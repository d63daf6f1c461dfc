#include "core/report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sim/sequential_sim.hpp"

namespace uniscan {

TextTable::TextTable(std::vector<std::string> header) : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size())
    throw std::invalid_argument("TextTable::add_row: cell count mismatch");
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& out) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  // First column left-aligned, the rest right-aligned.
  const auto pad = [&](const std::string& s, std::size_t w, bool left) {
    std::string out_s;
    if (left) {
      out_s = s + std::string(w - s.size(), ' ');
    } else {
      out_s = std::string(w - s.size(), ' ') + s;
    }
    return out_s;
  };

  const auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out << "  ";
      out << pad(row[c], width[c], c == 0);
    }
    out << "\n";
  };

  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c ? 2 : 0);
  out << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
}

std::string TextTable::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

StreamTable::StreamTable(std::ostream& out, std::vector<std::string> header,
                         std::vector<std::size_t> min_widths)
    : out_(out), width_(header.size()) {
  // Default minimum keeps typical numeric cells aligned without knowing the
  // data in advance; the name column gets extra room.
  for (std::size_t c = 0; c < header.size(); ++c) {
    width_[c] = std::max(header[c].size(), c < min_widths.size() ? min_widths[c]
                                           : c == 0             ? std::size_t{10}
                                                                : std::size_t{8});
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < width_.size(); ++c) {
    if (c) out_ << "  ";
    if (c == 0) out_ << header[c] << std::string(width_[c] - header[c].size(), ' ');
    else out_ << std::string(width_[c] - header[c].size(), ' ') << header[c];
    total += width_[c] + (c ? 2 : 0);
  }
  out_ << "\n" << std::string(total, '-') << "\n" << std::flush;
}

void StreamTable::add_row(const std::vector<std::string>& cells) {
  if (cells.size() != width_.size())
    throw std::invalid_argument("StreamTable::add_row: cell count mismatch");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) out_ << "  ";
    const std::size_t pad = cells[c].size() < width_[c] ? width_[c] - cells[c].size() : 0;
    if (c == 0) out_ << cells[c] << std::string(pad, ' ');
    else out_ << std::string(pad, ' ') << cells[c];
  }
  out_ << "\n" << std::flush;
}

std::string format_pct(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2) << v;
  return os.str();
}

std::string format_sat_summary(const SatSummary& s) {
  std::ostringstream os;
  os << "sat[second-chance]: attempts=" << s.attempts << " detected=" << s.detected
     << " proved_redundant=" << s.proved_redundant << " aborted=" << s.aborted
     << " mismatches=" << s.mismatches;
  return os.str();
}

std::string format_sequence_table(const ScanCircuit& sc, const TestSequence& seq) {
  const std::size_t npi = sc.netlist.num_inputs();
  const std::size_t sel = sc.scan_sel_index();
  const std::size_t inp = sc.chain().scan_inp_index;

  std::vector<std::string> header{"t"};
  for (std::size_t i = 0; i < npi; ++i) {
    if (i == sel || i == inp) continue;
    header.push_back(sc.netlist.gate(sc.netlist.inputs()[i]).name);
  }
  header.push_back("scan_sel");
  header.push_back("scan_inp");

  TextTable table(std::move(header));
  for (std::size_t t = 0; t < seq.length(); ++t) {
    std::vector<std::string> row{std::to_string(t)};
    for (std::size_t i = 0; i < npi; ++i) {
      if (i == sel || i == inp) continue;
      row.push_back(std::string(1, to_char(seq.at(t, i))));
    }
    row.push_back(std::string(1, to_char(seq.at(t, sel))));
    row.push_back(std::string(1, to_char(seq.at(t, inp))));
    table.add_row(std::move(row));
  }
  return table.to_string();
}

std::string format_tester_program(const ScanCircuit& sc, const TestSequence& seq) {
  const Netlist& nl = sc.netlist;
  const SequentialSimulator sim(nl);
  const SimTrace trace = sim.simulate(seq, sim.initial_state());

  std::ostringstream os;
  os << "# uniscan tester program for " << nl.name() << "\n";
  os << "# cycle | inputs (";
  for (std::size_t i = 0; i < nl.num_inputs(); ++i)
    os << (i ? " " : "") << nl.gate(nl.inputs()[i]).name;
  os << ") | expected outputs (";
  for (std::size_t o = 0; o < nl.num_outputs(); ++o)
    os << (o ? " " : "") << nl.gate(nl.outputs()[o]).name;
  os << ")\n";

  std::size_t scan_run = 0;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    const bool shifting = seq.at(t, sc.scan_sel_index()) == V3::One;
    if (shifting && scan_run == 0) {
      std::size_t len = 0;
      for (std::size_t u = t; u < seq.length() && seq.at(u, sc.scan_sel_index()) == V3::One; ++u)
        ++len;
      os << "# scan operation: " << len << " shift(s)"
         << (len < sc.max_chain_length() ? " (limited)" : " (complete)") << "\n";
      scan_run = len;
    }
    if (!shifting) scan_run = 0;
    else if (scan_run) --scan_run;

    os << t << " | ";
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) os << to_char(seq.at(t, i));
    os << " | ";
    for (V3 v : trace.po[t]) os << to_char(v);
    os << "\n";
  }
  return os.str();
}

}  // namespace uniscan
