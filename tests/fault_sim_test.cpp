#include "sim/fault_sim.hpp"

#include <gtest/gtest.h>

#include "fault/fault_list.hpp"
#include "netlist/builder.hpp"
#include "reference_sim.hpp"
#include "sim/sequential_sim.hpp"
#include "util/rng.hpp"
#include "workloads/circuits.hpp"

namespace uniscan {
namespace {

TestSequence random_sequence(const Netlist& nl, std::size_t len, std::uint64_t seed) {
  TestSequence seq(nl.num_inputs());
  Rng rng(seed);
  for (std::size_t t = 0; t < len; ++t) seq.append_x();
  seq.random_fill(rng);
  return seq;
}

TEST(FaultSim, AgreesWithSerialReferenceOnS27) {
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  const TestSequence seq = random_sequence(nl, 40, 123);

  FaultSimulator sim(nl);
  const auto records = sim.run(seq, fl.faults());
  ASSERT_EQ(records.size(), fl.size());
  for (std::size_t i = 0; i < fl.size(); ++i) {
    EXPECT_EQ(records[i].detected, ref::simulate(nl, fl[i], seq).detected)
        << "fault " << i << ": " << fault_to_string(nl, fl[i]);
  }
}

TEST(FaultSim, AgreesWithSerialReferenceOnToyPipeline) {
  const Netlist nl = make_toy_pipeline();
  const FaultList fl = FaultList::uncollapsed(nl);
  const TestSequence seq = random_sequence(nl, 24, 99);
  FaultSimulator sim(nl);
  const auto records = sim.run(seq, fl.faults());
  for (std::size_t i = 0; i < fl.size(); ++i)
    EXPECT_EQ(records[i].detected, ref::simulate(nl, fl[i], seq).detected) << "fault " << i;
}

TEST(FaultSim, GoodMachineSlotMatchesLogicSimulator) {
  // Detection times must refer to frames where the good machine output is
  // known; cross-check detection against explicit PO values.
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  const TestSequence seq = random_sequence(nl, 30, 5);
  const SequentialSimulator gsim(nl);
  const SimTrace trace = gsim.simulate(seq, gsim.initial_state());

  FaultSimulator sim(nl);
  const auto records = sim.run(seq, fl.faults());
  for (const auto& r : records) {
    if (!r.detected) continue;
    bool any_known_po = false;
    for (V3 v : trace.po[r.time]) any_known_po |= (v != V3::X);
    EXPECT_TRUE(any_known_po) << "detection claimed at a frame with all-X POs";
  }
}

TEST(FaultSim, DetectionTimeIsFirstObservation) {
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  const TestSequence seq = random_sequence(nl, 30, 7);
  FaultSimulator sim(nl);
  const auto records = sim.run(seq, fl.faults());
  for (std::size_t i = 0; i < fl.size(); ++i) {
    if (!records[i].detected) continue;
    // The prefix ending just before the detection time must NOT detect.
    if (records[i].time == 0) continue;
    TestSequence prefix = seq;
    prefix.truncate(records[i].time);
    const Fault one[1] = {fl[i]};
    EXPECT_FALSE(sim.detects_all(prefix, one)) << "fault " << i;
  }
}

TEST(FaultSim, DetectsAllMatchesRun) {
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  const TestSequence seq = random_sequence(nl, 50, 11);
  FaultSimulator sim(nl);
  const auto records = sim.run(seq, fl.faults());
  std::vector<Fault> detected;
  for (std::size_t i = 0; i < fl.size(); ++i)
    if (records[i].detected) detected.push_back(fl[i]);
  EXPECT_TRUE(sim.detects_all(seq, detected));
  EXPECT_FALSE(sim.detects_all(seq, fl.faults()));  // 50 random vectors can't catch all
}

TEST(FaultSim, EmptySequenceDetectsNothing) {
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  FaultSimulator sim(nl);
  const auto records = sim.run(TestSequence(nl.num_inputs()), fl.faults());
  for (const auto& r : records) EXPECT_FALSE(r.detected);
}

TEST(FaultSim, LatchRecordsReportLatchedEffects) {
  // In the toy pipeline, a stuck-at on f0's D input gets latched into f0.
  const Netlist nl = make_toy_pipeline();
  const auto g = nl.find("g");
  ASSERT_TRUE(g);
  const Fault f{*nl.find("f0"), 0, true};  // D-pin of f0 stuck-at-1
  // en=0 first forces g=0 so the pipe fills with known zeros (from all-X the
  // good value would stay unknown and no latch could be recorded); then
  // a=0,en=1 gives x = 0^0 = 0, g = 0: good f0' = 0, faulty = 1.
  TestSequence seq = TestSequence::from_rows(2, {"00", "00", "01"});
  FaultSimulator sim(nl);
  std::vector<LatchRecord> latched;
  const Fault faults[1] = {f};
  sim.run(seq, faults, &latched);
  ASSERT_EQ(latched.size(), 1u);
  EXPECT_TRUE(latched[0].latched);
  // The effect also shifts into f1 one frame later; the record keeps the
  // deepest (closest-to-scan-out) occurrence.
  EXPECT_EQ(latched[0].ff_index, 1u);
}

TEST(FaultSim, BatchBoundaries) {
  // More than 63 faults exercises multi-batch paths.
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::uncollapsed(nl);
  ASSERT_GT(fl.size(), 63u);
  const TestSequence seq = random_sequence(nl, 40, 123);
  FaultSimulator sim(nl);
  const auto records = sim.run(seq, fl.faults());
  // Cross-check a sample from the second batch against the serial reference.
  for (std::size_t i = 60; i < 70 && i < fl.size(); ++i)
    EXPECT_EQ(records[i].detected, ref::simulate(nl, fl[i], seq).detected) << i;
}

}  // namespace
}  // namespace uniscan
