#include "atpg/seq_atpg.hpp"
#include "atpg/transition_atpg.hpp"

#include <gtest/gtest.h>

#include "fault/fault_list.hpp"
#include "sim/fault_sim.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"
#include "workloads/synth_gen.hpp"

namespace uniscan {
namespace {

TEST(SeqAtpg, FullCoverageOnS27Scan) {
  const ScanCircuit sc = insert_scan(make_s27());
  const AtpgResult r = generate_tests(sc);
  EXPECT_EQ(r.num_faults, FaultList::collapsed(sc.netlist).size());
  // The paper reports 100% on s298 and near-100% elsewhere; s27 must be 100%.
  EXPECT_EQ(r.detected, r.num_faults) << "coverage " << r.fault_coverage();
  EXPECT_GT(r.sequence.length(), 0u);
}

TEST(SeqAtpg, SequenceIsFullySpecified) {
  const ScanCircuit sc = insert_scan(make_s27());
  const AtpgResult r = generate_tests(sc);
  for (std::size_t t = 0; t < r.sequence.length(); ++t)
    for (std::size_t i = 0; i < r.sequence.num_inputs(); ++i)
      EXPECT_NE(r.sequence.at(t, i), V3::X);
}

TEST(SeqAtpg, ReportedDetectionsMatchIndependentSimulation) {
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult r = generate_tests(sc, fl, {});
  FaultSimulator sim(sc.netlist);
  const auto check = sim.run(r.sequence, fl.faults());
  ASSERT_EQ(check.size(), r.detection.size());
  std::size_t detected = 0;
  for (std::size_t i = 0; i < check.size(); ++i) {
    EXPECT_EQ(check[i].detected, r.detection[i].detected) << i;
    detected += check[i].detected;
  }
  EXPECT_EQ(detected, r.detected);
}

TEST(SeqAtpg, DeterministicForFixedSeed) {
  const ScanCircuit sc = insert_scan(make_s27());
  AtpgOptions opt;
  opt.seed = 77;
  const AtpgResult a = generate_tests(sc, FaultList::collapsed(sc.netlist), opt);
  const AtpgResult b = generate_tests(sc, FaultList::collapsed(sc.netlist), opt);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.detected, b.detected);
}

TEST(SeqAtpg, DifferentSeedsStillCover) {
  const ScanCircuit sc = insert_scan(make_s27());
  for (std::uint64_t seed : {2ull, 3ull, 17ull}) {
    AtpgOptions opt;
    opt.seed = seed;
    const AtpgResult r = generate_tests(sc, FaultList::collapsed(sc.netlist), opt);
    EXPECT_GE(r.fault_coverage(), 99.0) << "seed " << seed;
  }
}

TEST(SeqAtpg, ScanKnowledgeSwitchOff) {
  // With the Section-2 knowledge disabled nothing may be counted as `funct`,
  // and coverage can only stay equal or drop.
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  AtpgOptions with, without;
  without.use_scan_knowledge = false;
  const AtpgResult a = generate_tests(sc, fl, with);
  const AtpgResult b = generate_tests(sc, fl, without);
  EXPECT_EQ(b.detected_by_scan_knowledge, 0u);
  EXPECT_GE(a.detected, b.detected);
}

TEST(SeqAtpg, NoScanKnowledgeSkipsTheSatPass) {
  // A SAT test is a scan-load test, so the ablation leaves forward PODEM
  // only: no solver call, no redundancy proof, for either fault model.
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("b01")));
  AtpgOptions with, without;
  without.use_scan_knowledge = false;
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const auto tf = enumerate_transition_faults(sc.netlist);
  const AtpgResult stuck = generate_tests(sc, fl, with);
  const AtpgResult trans = generate_transition_tests(sc, tf, with);
  EXPECT_GT(stuck.sat.attempts, 0u);
  EXPECT_GT(trans.sat.attempts, 0u);
  for (const AtpgResult& r :
       {generate_tests(sc, fl, without), generate_transition_tests(sc, tf, without)}) {
    EXPECT_EQ(r.sat.attempts, 0u);
    EXPECT_EQ(r.proved_redundant, 0u);
    EXPECT_EQ(r.stats.scan_load_assisted, 0u);
  }
}

TEST(SeqAtpg, WorksOnSyntheticCircuit) {
  SynthSpec spec;
  spec.name = "atpg_synth";
  spec.num_inputs = 5;
  spec.num_dffs = 8;
  spec.num_gates = 60;
  const ScanCircuit sc = insert_scan(generate_synthetic(spec));
  const AtpgResult r = generate_tests(sc);
  EXPECT_GE(r.fault_coverage(), 90.0) << r.detected << "/" << r.num_faults;
}

TEST(SeqAtpg, RandomPhaseCanBeDisabled) {
  const ScanCircuit sc = insert_scan(make_s27());
  AtpgOptions opt;
  opt.max_random_chunks = 0;  // purely deterministic run
  const AtpgResult r = generate_tests(sc, FaultList::collapsed(sc.netlist), opt);
  EXPECT_EQ(r.stats.random_chunks_accepted, 0u);
  EXPECT_GE(r.fault_coverage(), 95.0);
}

TEST(SeqAtpg, StatsAreConsistent) {
  const ScanCircuit sc = insert_scan(make_s27());
  const AtpgResult r = generate_tests(sc);
  EXPECT_GE(r.stats.podem_calls, r.stats.podem_successes);
  EXPECT_LE(r.detected_by_scan_knowledge, r.detected);
}

}  // namespace
}  // namespace uniscan
