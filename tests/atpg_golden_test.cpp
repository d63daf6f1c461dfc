// Golden tier for the test GENERATOR itself: both fault models' exact ATPG
// output, with the SAT second chance and without it (SatMode::Off), pinned
// byte for byte. The corpus goldens (corpus/golden.cpp) cover only the
// stuck-at flow; this tier adds transition ATPG.
//
// Each case hashes (SHA-256) the generated vectors, every per-fault
// DetectionRecord, the funct/redundant/detected counts, AtpgStats and
// SatSummary. The gate-evaluation work metric is left out: it depends on
// the slot width, which a golden must not.
//
// Regenerate tests/data/atpg_golden.txt after an intentional generator change
// in ONE process (the cases rewrite the file in turn):
//   UNISCAN_REGEN_GOLDEN=1 ./uniscan_tests --gtest_filter='*AtpgGolden*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "atpg/seq_atpg.hpp"
#include "atpg/transition_atpg.hpp"
#include "fault/fault_list.hpp"
#include "fault/transition_fault.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/logic3.hpp"
#include "util/sha256.hpp"
#include "workloads/suite.hpp"

#ifndef UNISCAN_TEST_DATA_DIR
#define UNISCAN_TEST_DATA_DIR ""
#endif

namespace uniscan {
namespace {

enum class Model { StuckAt, Transition };

struct GoldenCase {
  const char* circuit;
  Model model;
  SatMode sat;
};

std::string case_name(const GoldenCase& c) {
  return std::string(c.circuit) + (c.model == Model::StuckAt ? "_stuck_" : "_trans_") +
         (c.sat == SatMode::Off ? "off" : "second_chance");
}

template <class Result>
std::string result_digest(const Result& r) {
  std::ostringstream os;
  os << "vectors " << r.sequence.length() << " x " << r.sequence.num_inputs() << "\n";
  for (std::size_t t = 0; t < r.sequence.length(); ++t) {
    for (std::size_t i = 0; i < r.sequence.num_inputs(); ++i) os << to_char(r.sequence.at(t, i));
    os << "\n";
  }
  os << "faults " << r.num_faults << " detected " << r.detected << " funct "
     << r.detected_by_scan_knowledge << " redundant " << r.proved_redundant << " timed_out "
     << r.timed_out << "\n";
  for (const DetectionRecord& d : r.detection) os << d.detected << " " << d.time << "\n";
  const AtpgStats& s = r.stats;
  os << "stats " << s.podem_calls << " " << s.podem_successes << " " << s.scan_load_assisted
     << " " << s.fallback_attempts << " " << s.random_chunks_accepted << "\n";
  const SatSummary& sat = r.sat;
  // The 0 stands where SatSummary's removed cross-check count used to be,
  // so digests recorded before its removal (the transition cases) still
  // compare.
  os << "sat " << sat.attempts << " " << sat.detected << " " << sat.proved_redundant << " "
     << sat.aborted << " 0 " << sat.mismatches << "\n";
  return sha256_hex(os.str());
}

/// Digest of one case's generator run.
std::string run_case(const GoldenCase& c) {
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry(c.circuit)));
  AtpgOptions opt;
  opt.sat_mode = c.sat;
  if (c.model == Model::StuckAt)
    return result_digest(generate_tests(sc, FaultList::collapsed(sc.netlist), opt));
  return result_digest(generate_transition_tests(sc, enumerate_transition_faults(sc.netlist), opt));
}

std::string golden_path() { return std::string(UNISCAN_TEST_DATA_DIR) + "/atpg_golden.txt"; }

std::map<std::string, std::string> read_goldens() {
  std::map<std::string, std::string> out;
  std::ifstream in(golden_path());
  std::string name, hex;
  while (in >> name >> hex) out[name] = hex;
  return out;
}

class AtpgGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(AtpgGolden, MatchesGolden) {
  const std::string name = case_name(GetParam());
  const std::string got = run_case(GetParam());

  std::map<std::string, std::string> golden = read_goldens();
  if (std::getenv("UNISCAN_REGEN_GOLDEN")) {
    golden[name] = got;
    std::ofstream out(golden_path());
    ASSERT_TRUE(out.is_open()) << golden_path();
    for (const auto& [n, h] : golden) out << n << " " << h << "\n";
    GTEST_SKIP() << "regenerated " << name << " in " << golden_path();
  }
  const auto it = golden.find(name);
  ASSERT_NE(it, golden.end()) << "no golden for " << name << " in " << golden_path()
                              << " (regenerate with UNISCAN_REGEN_GOLDEN=1)";
  EXPECT_EQ(got, it->second) << name << ": generator output changed";
}

constexpr GoldenCase kCases[] = {
    {"s27", Model::StuckAt, SatMode::Off},
    {"s27", Model::StuckAt, SatMode::SecondChance},
    {"s27", Model::Transition, SatMode::Off},
    {"s27", Model::Transition, SatMode::SecondChance},
    {"s208", Model::StuckAt, SatMode::Off},
    {"s208", Model::StuckAt, SatMode::SecondChance},
    {"s208", Model::Transition, SatMode::Off},
    {"s208", Model::Transition, SatMode::SecondChance},
    {"s298", Model::StuckAt, SatMode::Off},
    {"s298", Model::StuckAt, SatMode::SecondChance},
    {"s298", Model::Transition, SatMode::Off},
    {"s298", Model::Transition, SatMode::SecondChance},
    {"s386", Model::StuckAt, SatMode::Off},
    {"s386", Model::StuckAt, SatMode::SecondChance},
    {"s386", Model::Transition, SatMode::Off},
    {"s386", Model::Transition, SatMode::SecondChance},
};

INSTANTIATE_TEST_SUITE_P(Cases, AtpgGolden, ::testing::ValuesIn(kCases),
                         [](const auto& info) { return case_name(info.param); });

}  // namespace
}  // namespace uniscan
