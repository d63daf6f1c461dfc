#include "sim/sequence_io.hpp"

#include <charconv>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace uniscan {

namespace {

[[noreturn]] void fail_in(const std::string& source, std::size_t line_no, const std::string& msg) {
  std::string text = "sequence parse error";
  if (!source.empty()) text += " in " + source;
  text += " at line " + std::to_string(line_no) + ": " + msg;
  throw std::runtime_error(text);
}

/// Read the next non-empty, non-comment line; returns false on EOF.
bool next_line(std::istream& in, std::string& line, std::size_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    line = std::string(trim(line));
    if (!line.empty()) return true;
  }
  return false;
}

/// Whether `line` is exactly `<magic> v1` followed by counts.size() counts,
/// each a plain non-negative decimal that fits std::size_t; fills `counts`.
bool parse_header(const std::string& line, std::string_view magic,
                  std::span<std::size_t> counts) {
  std::istringstream is(line);
  std::vector<std::string> words;
  for (std::string w; is >> w;) words.push_back(std::move(w));
  if (words.size() != counts.size() + 2 || words[0] != magic || words[1] != "v1") return false;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const std::string& w = words[k + 2];
    const auto [ptr, ec] = std::from_chars(w.data(), w.data() + w.size(), counts[k]);
    if (ec != std::errc() || ptr != w.data() + w.size()) return false;
  }
  return true;
}

/// One vector row of `width` values. The row is never sized from `width`,
/// which comes from an unchecked header.
std::vector<V3> parse_row(const std::string& line, std::size_t width, std::size_t line_no,
                          const std::string& source) {
  std::vector<V3> row;
  for (char c : line) {
    if (c == ' ' || c == '\t') continue;
    if (c != '0' && c != '1' && c != 'x' && c != 'X')
      fail_in(source, line_no, "bad value character in '" + excerpt(line) + "'");
    row.push_back(v3_from_char(c));
  }
  if (row.size() != width)
    fail_in(source, line_no, "expected " + std::to_string(width) + " values, got " +
                                 std::to_string(row.size()));
  return row;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write file: " + path);
  return f;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read file: " + path);
  return f;
}

}  // namespace

void write_sequence(std::ostream& out, const TestSequence& seq) {
  out << "useq v1 " << seq.num_inputs() << "\n";
  for (std::size_t t = 0; t < seq.length(); ++t) {
    for (std::size_t i = 0; i < seq.num_inputs(); ++i) out << to_char(seq.at(t, i));
    out << "\n";
  }
}

std::string write_sequence_string(const TestSequence& seq) {
  std::ostringstream os;
  write_sequence(os, seq);
  return os.str();
}

void write_sequence_file(const std::string& path, const TestSequence& seq) {
  auto f = open_out(path);
  write_sequence(f, seq);
}

TestSequence read_sequence(std::istream& in, const std::string& source) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(in, line, line_no)) fail_in(source, line_no, "empty input");
  std::size_t width = 0;
  if (!parse_header(line, "useq", std::span<std::size_t>(&width, 1)))
    fail_in(source, line_no, "expected header 'useq v1 <num_inputs>'");

  TestSequence seq(width);
  while (next_line(in, line, line_no)) seq.append(parse_row(line, width, line_no, source));
  return seq;
}

TestSequence read_sequence_string(const std::string& text) {
  std::istringstream is(text);
  return read_sequence(is);
}

TestSequence read_sequence_file(const std::string& path) {
  auto f = open_in(path);
  return read_sequence(f, path);
}

void write_test_set(std::ostream& out, const ScanTestSet& set) {
  out << "utst v1 " << set.num_original_inputs << " " << set.chain_length << "\n";
  for (const ScanTest& t : set.tests) {
    out << "test ";
    for (V3 v : t.scan_in) out << to_char(v);
    out << "\n";
    for (const auto& vec : t.vectors) {
      for (V3 v : vec) out << to_char(v);
      out << "\n";
    }
  }
}

std::string write_test_set_string(const ScanTestSet& set) {
  std::ostringstream os;
  write_test_set(os, set);
  return os.str();
}

void write_test_set_file(const std::string& path, const ScanTestSet& set) {
  auto f = open_out(path);
  write_test_set(f, set);
}

ScanTestSet read_test_set(std::istream& in, const std::string& source) {
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(in, line, line_no)) fail_in(source, line_no, "empty input");
  std::size_t counts[2] = {};
  if (!parse_header(line, "utst", counts))
    fail_in(source, line_no, "expected header 'utst v1 <num_inputs> <chain_length>'");
  const auto [width, chain] = counts;

  ScanTestSet set;
  set.num_original_inputs = width;
  set.chain_length = chain;
  std::size_t test_line = 0;  // line of the last `test` line
  const auto require_vectors = [&] {
    if (!set.tests.empty() && set.tests.back().vectors.empty())
      fail_in(source, test_line, "test " + std::to_string(set.tests.size()) + " has no vectors");
  };
  while (next_line(in, line, line_no)) {
    // An empty scan-in (no flip-flops) leaves the bare keyword.
    if (line == "test" || starts_with(line, "test ")) {
      require_vectors();
      test_line = line_no;
      ScanTest t;
      const std::string si(trim(std::string_view(line).substr(4)));
      for (char c : si) {
        if (c != '0' && c != '1' && c != 'x' && c != 'X')
          fail_in(source, line_no, "bad scan-in character in '" + excerpt(si) + "'");
        t.scan_in.push_back(v3_from_char(c));
      }
      // scan_in covers every flip-flop; with multiple chains this exceeds
      // chain_length (the shift count), so only cross-test consistency is
      // checked here.
      if (t.scan_in.size() < chain)
        fail_in(source, line_no, "scan-in narrower than the chain length");
      if (!set.tests.empty() && t.scan_in.size() != set.tests.front().scan_in.size())
        fail_in(source, line_no, "inconsistent scan-in width");
      set.tests.push_back(std::move(t));
    } else {
      if (set.tests.empty()) fail_in(source, line_no, "vector before first 'test' line");
      set.tests.back().vectors.push_back(parse_row(line, width, line_no, source));
    }
  }
  require_vectors();
  return set;
}

ScanTestSet read_test_set_string(const std::string& text) {
  std::istringstream is(text);
  return read_test_set(is);
}

ScanTestSet read_test_set_file(const std::string& path) {
  auto f = open_in(path);
  return read_test_set(f, path);
}

}  // namespace uniscan
