#include "netlist/bench_io.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace uniscan {

namespace {

[[noreturn]] void fail_in(const std::string& source, std::size_t line_no, const std::string& msg) {
  std::string text = "bench parse error";
  if (!source.empty()) text += " in " + source;
  text += " at line " + std::to_string(line_no) + ": " + msg;
  throw std::runtime_error(text);
}

/// A gate definition waiting for its operands to resolve. Every view points
/// into the parsed text (or into a joined continuation line that outlives
/// the parse); operands are a slice of one flat vector shared by all gates.
struct PendingGate {
  GateType type;
  std::string_view name;
  std::size_t first_operand;
  std::size_t num_operands;
  std::size_t line_no;
};

/// A physical line is an incomplete fragment of a logical line when its
/// parenthesis is still open or it visibly trails off. Real .bench writers
/// wrap wide operand lists as
///   G123 = AND(G1, G2,
///               G3)
/// and some put the `=` and the expression on separate lines.
bool needs_continuation(std::string_view body) {
  const auto open = body.find('(');
  if (open != std::string_view::npos && body.find(')', open) == std::string_view::npos) return true;
  return !body.empty() && (body.back() == ',' || body.back() == '=');
}

}  // namespace

Netlist read_bench(std::istream& in, std::string circuit_name, const std::string& source) {
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return read_bench_string(text, std::move(circuit_name), source);
}

Netlist read_bench_string(std::string_view text, std::string circuit_name,
                          const std::string& source) {
  Netlist nl(std::move(circuit_name));
  const auto fail_at = [&source](std::size_t line_no, const std::string& msg) {
    fail_in(source, line_no, msg);
  };

  std::vector<std::string_view> output_names;
  std::vector<std::size_t> output_lines;
  std::vector<PendingGate> pending;
  std::vector<std::string_view> operands;

  const auto process = [&](std::string_view body, std::size_t line_no) {
    if (iequals(body.substr(0, 6), "INPUT(") || iequals(body.substr(0, 7), "OUTPUT(")) {
      const bool is_input = body[0] == 'I' || body[0] == 'i';
      const auto open = body.find('(');
      const auto close = body.rfind(')');
      if (close == std::string_view::npos || close < open) fail_at(line_no, "missing ')'");
      if (!trim(body.substr(close + 1)).empty())
        fail_at(line_no, "unexpected text after ')': '" +
                             excerpt(trim(body.substr(close + 1))) + "'");
      const std::string_view name = trim(body.substr(open + 1, close - open - 1));
      if (name.empty()) fail_at(line_no, is_input ? "empty INPUT name" : "empty OUTPUT name");
      if (is_input) {
        // Gates are created after the scan, so any net known now is a PI.
        if (nl.find(name)) fail_at(line_no, "duplicate INPUT '" + excerpt(name) + "'");
        nl.add_input(std::string(name));
      } else {
        output_names.push_back(name);
        output_lines.push_back(line_no);
      }
      return;
    }

    const auto eq = body.find('=');
    if (eq == std::string_view::npos) fail_at(line_no, "expected INPUT/OUTPUT or assignment");
    const std::string_view lhs = trim(body.substr(0, eq));
    const std::string_view rhs = trim(body.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (lhs.empty()) fail_at(line_no, "empty left-hand side");
    if (open == std::string_view::npos || close == std::string_view::npos || close < open)
      fail_at(line_no, "malformed gate expression");
    if (!trim(rhs.substr(close + 1)).empty())
      fail_at(line_no,
              "unexpected text after ')': '" + excerpt(trim(rhs.substr(close + 1))) + "'");

    GateType type;
    const auto keyword = trim(rhs.substr(0, open));
    if (!parse_gate_type(keyword, type))
      fail_at(line_no, "unknown gate type '" + excerpt(keyword) + "'");

    const std::size_t first = operands.size();
    const std::string_view arg_list = trim(rhs.substr(open + 1, close - open - 1));
    if (!arg_list.empty()) {
      for (std::size_t start = 0, i = 0; i <= arg_list.size(); ++i) {
        if (i < arg_list.size() && arg_list[i] != ',') continue;
        const std::string_view op = trim(arg_list.substr(start, i - start));
        if (op.empty()) fail_at(line_no, "empty operand");
        operands.push_back(op);
        start = i + 1;
      }
    }
    const std::size_t count = operands.size() - first;
    const int arity = gate_type_arity(type);
    if (arity >= 0 && count != static_cast<std::size_t>(arity))
      fail_at(line_no, std::string(keyword) + " takes exactly " + std::to_string(arity) +
                           " operand(s), got " + std::to_string(count));
    if (arity < 0 && count == 0)
      fail_at(line_no, std::string(keyword) + " needs at least one operand");
    pending.push_back(PendingGate{type, lhs, first, count, line_no});
  };

  // Assemble logical lines: strip comments/CR, join wrapped lines (open
  // parenthesis, trailing ',' or '=') before handing them to `process`.
  // Joined lines are kept alive in `joined` because pending gates hold
  // views into them.
  std::deque<std::string> joined;
  std::string logical;
  std::size_t line_no = 0, logical_line = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view body = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (const auto hash = body.find('#'); hash != std::string_view::npos)
      body = body.substr(0, hash);
    body = trim(body);
    if (body.empty()) continue;
    if (logical.empty()) {
      if (!needs_continuation(body)) {
        process(body, line_no);
        continue;
      }
      logical = body;
      logical_line = line_no;
    } else {
      logical += ' ';
      logical += body;
      if (needs_continuation(logical)) continue;
      process(joined.emplace_back(std::move(logical)), logical_line);
      logical.clear();
    }
  }
  if (!logical.empty())
    fail_at(logical_line, "unterminated line (expression continues past end of file)");

  // First pass: create all gates (fanins resolved later so definitions may
  // appear in any order, which real ISCAS files rely on). Gates take
  // consecutive ids after the PIs, in definition order.
  const GateId first_id = static_cast<GateId>(nl.num_gates());
  nl.reserve(nl.num_gates() + pending.size());
  for (const PendingGate& pg : pending) {
    if (nl.find(pg.name))
      fail_at(pg.line_no, "duplicate definition of net '" + excerpt(pg.name) + "'");
    if (pg.type == GateType::Dff)
      nl.add_dff(std::string(pg.name));
    else
      nl.add_gate(pg.type, std::string(pg.name), std::vector<GateId>(pg.num_operands, kNoGate));
  }

  // Second pass: resolve fanins through the netlist's name index.
  for (std::size_t k = 0; k < pending.size(); ++k) {
    const PendingGate& pg = pending[k];
    const GateId id = first_id + static_cast<GateId>(k);
    for (std::size_t pin = 0; pin < pg.num_operands; ++pin) {
      const std::string_view op = operands[pg.first_operand + pin];
      const auto driver = nl.find(op);
      if (!driver) fail_at(pg.line_no, "undefined net '" + excerpt(op) + "'");
      if (pg.type == GateType::Dff)
        nl.set_dff_input(id, *driver);
      else
        nl.replace_fanin(id, pin, *driver);
    }
  }

  for (std::size_t i = 0; i < output_names.size(); ++i) {
    const auto driver = nl.find(output_names[i]);
    if (!driver)
      fail_at(output_lines[i],
              "OUTPUT references undefined net '" + excerpt(output_names[i]) + "'");
    if (nl.output_index(*driver))
      fail_at(output_lines[i], "duplicate OUTPUT '" + excerpt(output_names[i]) + "'");
    nl.add_output(*driver);
  }

  nl.finalize();
  return nl;
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open bench file: " + path);
  return read_bench(f, std::filesystem::path(path).stem().string(), path);
}

std::string write_bench_string(const Netlist& nl) {
  std::string out;
  const auto line = [&out](std::string_view keyword, const std::string& name) {
    out += keyword;
    out += '(';
    out += name;
    out += ")\n";
  };
  out += "# ";
  out += nl.name();
  out += " — written by uniscan\n";
  for (GateId pi : nl.inputs()) line("INPUT", nl.gate(pi).name);
  for (GateId po : nl.outputs()) line("OUTPUT", nl.gate(po).name);
  out += '\n';
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    if (gate.type == GateType::Input) continue;
    out += gate.name;
    out += " = ";
    out += gate_type_name(gate.type);
    out += '(';
    for (std::size_t i = 0; i < gate.fanins.size(); ++i) {
      if (i) out += ", ";
      out += nl.gate(gate.fanins[i]).name;
    }
    out += ")\n";
  }
  return out;
}

void write_bench(std::ostream& out, const Netlist& nl) { out << write_bench_string(nl); }

}  // namespace uniscan
