#include "corpus/corpus.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "netlist/bench_io.hpp"
#include "util/sha256.hpp"
#include "util/string_utils.hpp"
#include "workloads/circuits.hpp"

#ifndef UNISCAN_CORPUS_SOURCE_DIR
#define UNISCAN_CORPUS_SOURCE_DIR ""
#endif

namespace uniscan {

const char* corpus_tier_name(CorpusTier t) noexcept {
  switch (t) {
    case CorpusTier::Fast: return "fast";
    case CorpusTier::Mid: return "mid";
    case CorpusTier::Large: return "large";
  }
  return "?";
}

bool parse_corpus_tier(std::string_view s, CorpusTier& out) noexcept {
  if (s == "fast") out = CorpusTier::Fast;
  else if (s == "mid") out = CorpusTier::Mid;
  else if (s == "large") out = CorpusTier::Large;
  else return false;
  return true;
}

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

}  // namespace

CorpusRegistry::CorpusRegistry(std::string dir) : dir_(std::move(dir)) {
  const std::string manifest = (std::filesystem::path(dir_) / "manifest.tsv").string();
  std::ifstream in(manifest);
  if (!in) return;  // empty registry: corpus not present in this checkout

  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& msg) {
    throw std::runtime_error(manifest + ":" + std::to_string(line_no) + ": " + msg);
  };
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::string_view body = trim(line);
    if (body.empty() || body[0] == '#') continue;
    const auto fields = split_tabs(line);
    if (fields.size() != 8)
      fail("expected 8 tab-separated fields (name tier source inputs dffs gates sha256 url), got " +
           std::to_string(fields.size()));

    CorpusEntry e;
    e.name = fields[0];
    if (!parse_corpus_tier(fields[1], e.tier)) fail("unknown tier '" + excerpt(fields[1]) + "'");
    e.source = fields[2];
    if (e.source != "embedded" && e.source != "file" && e.source != "synth")
      fail("unknown source '" + excerpt(e.source) + "'");
    e.num_inputs = std::strtoull(fields[3].c_str(), nullptr, 10);
    e.num_dffs = std::strtoull(fields[4].c_str(), nullptr, 10);
    e.num_gates = std::strtoull(fields[5].c_str(), nullptr, 10);
    e.sha256 = fields[6] == "-" ? "" : fields[6];
    if (!e.sha256.empty() && e.sha256.size() != 64)
      fail("sha256 pin must be 64 hex chars or '-'");
    e.url = fields[7] == "-" ? "" : fields[7];
    if (find(e.name)) fail("duplicate circuit '" + excerpt(e.name) + "'");
    entries_.push_back(std::move(e));
  }
}

const CorpusRegistry& CorpusRegistry::global() {
  static const CorpusRegistry reg(default_dir());
  return reg;
}

std::string CorpusRegistry::default_dir() {
  if (const char* env = std::getenv("UNISCAN_CORPUS_DIR"); env && *env) return env;
  const std::string compiled = UNISCAN_CORPUS_SOURCE_DIR;
  if (!compiled.empty() && std::filesystem::exists(compiled)) return compiled;
  return "corpus";
}

std::vector<CorpusEntry> CorpusRegistry::tier(CorpusTier t) const {
  std::vector<CorpusEntry> out;
  for (const auto& e : entries_)
    if (e.tier == t) out.push_back(e);
  return out;
}

const CorpusEntry* CorpusRegistry::find(std::string_view name) const noexcept {
  for (const auto& e : entries_)
    if (e.name == name) return &e;
  return nullptr;
}

std::string CorpusRegistry::circuit_path(const CorpusEntry& e) const {
  return (std::filesystem::path(dir_) / "circuits" / (e.name + ".bench")).string();
}

std::string CorpusRegistry::golden_path(const CorpusEntry& e) const {
  return (std::filesystem::path(dir_) / "golden" / (e.name + ".ans.sha")).string();
}

bool CorpusRegistry::has_file(const CorpusEntry& e) const {
  return std::filesystem::exists(circuit_path(e));
}

SynthSpec CorpusRegistry::synth_spec(const CorpusEntry& e) {
  if (e.source != "synth")
    throw std::runtime_error("corpus circuit " + e.name + " has source '" + e.source +
                             "', not synth");
  SynthSpec spec;
  spec.name = e.name;
  spec.num_inputs = e.num_inputs;
  spec.num_dffs = e.num_dffs;
  spec.num_gates = e.num_gates;
  // Stable per-circuit seed derived from the name (same scheme as
  // load_circuit's synthetic fallback, namespaced for the corpus).
  spec.seed = 0x5eedc0de;
  for (char c : e.name) spec.seed = spec.seed * 131 + static_cast<unsigned char>(c);
  return spec;
}

std::string CorpusRegistry::synth_bench_text(const CorpusEntry& e) {
  const Netlist nl = generate_synthetic(synth_spec(e));

  std::ostringstream os;
  os << "# uniscan corpus stand-in for " << e.name << ": deterministic synthetic circuit with\n"
     << "# the upstream profile (" << e.num_inputs << " PIs, " << e.num_dffs << " DFFs, "
     << e.num_gates << " gates). Replace with the canonical benchmark via\n"
     << "# tools/fetch_corpus; regenerate byte-identically via `corpus_tool synth " << e.name
     << "`.\n";
  return os.str() + write_bench_string(nl);
}

std::string CorpusRegistry::bench_text(const CorpusEntry& e, bool verify) const {
  std::string text;
  if (has_file(e)) {
    const std::string path = circuit_path(e);
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open corpus file " + path);
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
  } else if (e.source == "synth") {
    text = synth_bench_text(e);
  } else if (e.source == "embedded") {
    text = std::string(s27_bench_text());
  } else {
    throw std::runtime_error("corpus circuit " + e.name + " not fetched: " + circuit_path(e) +
                             " missing (run tools/fetch_corpus)");
  }
  if (verify && !e.sha256.empty()) {
    const std::string got = sha256_hex(text);
    if (got != e.sha256)
      throw std::runtime_error("corpus hash mismatch for " + e.name + ": content sha256 " + got +
                               ", manifest pins " + e.sha256 +
                               " (re-fetch or re-pin via tools/fetch_corpus)");
  }
  return text;
}

Netlist CorpusRegistry::load(const CorpusEntry& e, bool verify) const {
  if (e.source == "embedded" && !has_file(e)) return make_s27();
  return read_bench_string(bench_text(e, verify), e.name, circuit_path(e));
}

std::vector<SuiteEntry> CorpusRegistry::suite_entries(std::optional<CorpusTier> t) const {
  std::vector<SuiteEntry> out;
  for (const auto& e : entries_) {
    if (t && e.tier != *t) continue;
    // Rows that need a fetched file but have none are not runnable; skip
    // them rather than seed guaranteed-FAILED rows into every table run.
    if (e.source == "file" && !has_file(e)) continue;
    SuiteEntry s;
    s.name = e.name;
    s.num_inputs = e.num_inputs;
    s.num_dffs = e.num_dffs;
    s.num_gates = e.num_gates;
    s.in_fast_suite = e.tier == CorpusTier::Fast;
    s.bench_path = circuit_path(e);
    s.expected_sha256 = e.sha256;
    s.from_corpus = true;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace uniscan
