#include "corpus/golden.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "core/pipeline.hpp"
#include "fault/fault_list.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/logic3.hpp"
#include "util/sha256.hpp"
#include "util/string_utils.hpp"

namespace uniscan {

DigestOptions digest_profile(CorpusTier tier, std::size_t num_gates) {
  DigestOptions opt;
  opt.atpg.seed = 1;
  switch (tier) {
    case CorpusTier::Fast:
      // Full pipeline, near-default effort: fast rows are small enough that
      // the whole flow is sub-second.
      opt.atpg.final_effort_backtracks = 1500;
      break;
    case CorpusTier::Mid:
      // The last-chance pass and the omission trial loop dominate mid-size
      // wall time; cap the first, drop the second, and target a
      // deterministic 1500-fault prefix of the collapsed universe. Still
      // the real parser, scan insertion, fault collapsing, session fault
      // simulation, PODEM, and restoration on a paper-scale circuit.
      opt.atpg.max_backtracks = 40;
      opt.atpg.final_effort_backtracks = 0;
      opt.atpg.max_random_chunks = 24;
      opt.max_faults = 1500;
      opt.run_omission = false;
      if (num_gates > kMidGateBudget) {
        // s9234/s13207-class rows: per-call cost is ~10x a 1000-gate row,
        // so shrink the targeted prefix and the random bootstrap instead
        // of letting two circuits dominate the whole mid sweep.
        opt.atpg.max_random_chunks = 12;
        opt.atpg.window_schedule = {4};
        opt.max_faults = 400;
      }
      break;
    case CorpusTier::Large:
      opt.atpg.max_backtracks = 20;
      opt.atpg.final_effort_backtracks = 0;
      opt.atpg.max_random_chunks = 12;
      opt.atpg.window_schedule = {4};
      opt.max_faults = 500;
      opt.run_restoration = false;
      opt.run_omission = false;
      break;
  }
  return opt;
}

namespace {

void append_sequence_line(std::ostream& os, const char* label, const ScanCircuit& sc,
                          const TestSequence& seq) {
  const SequenceStats st = sequence_stats(sc, seq);
  os << "seq " << label << " len " << st.total << " scan " << st.scan << "\n";
}

/// Per-fault detected flags packed as hex nibbles (fault i -> bit i%4 of
/// nibble i/4), 128 nibbles per line. Collapsed fault order is deterministic
/// for a given netlist, so the map is position-addressable.
void append_detmap(std::ostream& os, const std::vector<DetectionRecord>& det) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string line;
  unsigned nibble = 0;
  for (std::size_t i = 0; i < det.size(); ++i) {
    if (det[i].detected) nibble |= 1u << (i % 4);
    if (i % 4 == 3 || i + 1 == det.size()) {
      line.push_back(kHex[nibble]);
      nibble = 0;
      if (line.size() == 128) {
        os << "detmap " << line << "\n";
        line.clear();
      }
    }
  }
  if (!line.empty()) os << "detmap " << line << "\n";
}

void append_vectors(std::ostream& os, const TestSequence& seq) {
  os << "vectors " << seq.length() << " x " << seq.num_inputs() << "\n";
  std::string row;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    row.clear();
    for (std::size_t i = 0; i < seq.num_inputs(); ++i) row.push_back(to_char(seq.at(t, i)));
    os << row << "\n";
  }
}

}  // namespace

CircuitDigest compute_circuit_digest(const Netlist& c, const DigestOptions& opt) {
  const ScanCircuit sc = insert_scan(c);
  FaultList fl = FaultList::collapsed(sc.netlist);
  const std::size_t collapsed = fl.size();
  if (opt.max_faults > 0 && fl.size() > opt.max_faults) fl = fl.prefix(opt.max_faults);

  const AtpgResult atpg = generate_tests(sc, fl, opt.atpg);

  std::ostringstream os;
  os << "uniscan-corpus-digest v" << kDigestFormatVersion << "\n";
  os << "circuit " << c.name() << "\n";
  os << "profile inputs " << sc.netlist.num_inputs() << " dffs " << sc.netlist.num_dffs()
     << " gates " << sc.netlist.num_gates() << "\n";
  os << "faults collapsed " << collapsed << " targeted " << fl.size() << "\n";
  const std::size_t aborted = fl.size() - atpg.detected - atpg.proved_redundant;
  os << "atpg detected " << atpg.detected << " funct " << atpg.detected_by_scan_knowledge
     << " redundant " << atpg.proved_redundant << " aborted " << aborted << " timed_out "
     << (atpg.timed_out ? 1 : 0) << "\n";
  append_detmap(os, atpg.detection);
  append_sequence_line(os, "generated", sc, atpg.sequence);

  const TestSequence* final_seq = &atpg.sequence;
  CompactionResult rest, omit;
  if (opt.run_restoration) {
    rest = restoration_compact(sc.netlist, *final_seq, fl.faults());
    append_sequence_line(os, "restored", sc, rest.sequence);
    os << "compaction restoration removed " << rest.vectors_removed << " rounds " << rest.rounds
       << " extra " << rest.extra_detected << "\n";
    final_seq = &rest.sequence;
  }
  if (opt.run_omission) {
    omit = omission_compact(sc.netlist, *final_seq, fl.faults());
    append_sequence_line(os, "omitted", sc, omit.sequence);
    os << "compaction omission removed " << omit.vectors_removed << " rounds " << omit.rounds
       << " extra " << omit.extra_detected << "\n";
    final_seq = &omit.sequence;
  }
  append_vectors(os, *final_seq);
  os << "end\n";

  CircuitDigest d;
  d.circuit = c.name();
  d.canonical_text = os.str();
  d.sha_hex = sha256_hex(d.canonical_text);
  return d;
}

CircuitDigest compute_corpus_digest(const CorpusRegistry& reg, const CorpusEntry& e) {
  return compute_circuit_digest(reg.load(e), digest_profile(e.tier, e.num_gates));
}

std::string read_golden_sha(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::getline(in, line);
  const std::string hex{trim(line)};
  if (hex.size() != 64 || hex.find_first_not_of("0123456789abcdef") != std::string::npos)
    throw std::runtime_error("malformed golden digest file " + path + ": '" + excerpt(hex) + "'");
  return hex;
}

void write_golden_sha(const std::string& path, const std::string& hex) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write golden digest file " + path);
  out << hex << "\n";
}

}  // namespace uniscan
