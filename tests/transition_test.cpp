#include "atpg/transition_atpg.hpp"

#include <gtest/gtest.h>

#include "atpg/frame_model.hpp"
#include "atpg/podem.hpp"
#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "netlist/builder.hpp"
#include "sim/transition_sim.hpp"
#include "util/rng.hpp"
#include "workloads/circuits.hpp"

namespace uniscan {
namespace {

/// wire = BUF(a) -> PO; one DFF keeps the circuit sequential.
Netlist wire_circuit() {
  NetlistBuilder b("wire");
  const GateId a = b.input("a");
  const GateId w = b.buf("w", a);
  const GateId f = b.dff("f", w);
  const GateId o = b.or_("o", {w, f});
  b.output(w);
  b.output(o);
  return b.build();
}

TEST(TransitionFaults, EnumerationCoversStemsAndBranches) {
  const Netlist nl = make_s27();
  const auto faults = enumerate_transition_faults(nl);
  // Two per gate stem plus two per multi-fanout branch; must exceed 2*gates.
  EXPECT_GE(faults.size(), 2 * nl.num_gates());
  for (const auto& f : faults) EXPECT_LT(f.gate, nl.num_gates());
  EXPECT_FALSE(transition_fault_to_string(nl, faults[1]).empty());
}

TEST(TransitionSim, SlowToRiseDetectedOnLaunch) {
  const Netlist nl = wire_circuit();
  const TransitionFault str{*nl.find("w"), kStemPin, true};
  const TransitionFault faults[1] = {str};
  TransitionFaultSimulator sim(nl);

  // 0 then 1: the rising launch is delayed, PO 'w' shows 0 vs good 1 at t=1.
  const auto det = sim.run(TestSequence::from_rows(1, {"0", "1"}), faults);
  ASSERT_TRUE(det[0].detected);
  EXPECT_EQ(det[0].time, 1u);
}

TEST(TransitionSim, NoTransitionNoDetection) {
  const Netlist nl = wire_circuit();
  const TransitionFault str{*nl.find("w"), kStemPin, true};
  const TransitionFault faults[1] = {str};
  TransitionFaultSimulator sim(nl);
  // Constant 1: no rising transition is ever launched (the first frame's
  // history is X, so the first 1 yields and(1, X) = X — no detection).
  EXPECT_FALSE(sim.run(TestSequence::from_rows(1, {"1", "1", "1"}), faults)[0].detected);
  // Falling transitions do not excite a slow-to-rise fault either.
  EXPECT_FALSE(sim.run(TestSequence::from_rows(1, {"1", "0", "0"}), faults)[0].detected);
}

TEST(TransitionSim, SlowToFallSymmetry) {
  const Netlist nl = wire_circuit();
  const TransitionFault stf{*nl.find("w"), kStemPin, false};
  const TransitionFault faults[1] = {stf};
  TransitionFaultSimulator sim(nl);
  const auto det = sim.run(TestSequence::from_rows(1, {"1", "0"}), faults);
  ASSERT_TRUE(det[0].detected);
  EXPECT_EQ(det[0].time, 1u);
  EXPECT_FALSE(sim.run(TestSequence::from_rows(1, {"0", "1"}), faults)[0].detected);
}

TEST(TransitionSim, SessionMatchesOneShot) {
  const Netlist nl = make_s27();
  const auto faults = enumerate_transition_faults(nl);
  TestSequence seq(nl.num_inputs());
  Rng rng(5);
  for (int t = 0; t < 50; ++t) seq.append_x();
  seq.random_fill(rng);

  TransitionFaultSimulator sim(nl);
  const auto oneshot = sim.run(seq, faults);

  TransitionSimSession session(nl, faults);
  // Advance in chunks.
  for (std::size_t pos = 0; pos < seq.length();) {
    const std::size_t chunk = std::min<std::size_t>(7, seq.length() - pos);
    TestSequence part(nl.num_inputs());
    for (std::size_t t = 0; t < chunk; ++t) part.append(seq.vector_at(pos + t));
    session.advance(part);
    pos += chunk;
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    ASSERT_EQ(session.detections()[i].detected, oneshot[i].detected) << i;
    if (oneshot[i].detected) {
      ASSERT_EQ(session.detections()[i].time, oneshot[i].time) << i;
    }
  }
}

TEST(TransitionSim, SnapshotRestore) {
  const Netlist nl = make_s27();
  const auto faults = enumerate_transition_faults(nl);
  TransitionSimSession session(nl, faults);
  Rng rng(9);
  TestSequence a(nl.num_inputs());
  for (int t = 0; t < 10; ++t) a.append_x();
  a.random_fill(rng);
  session.advance(a);
  const auto snap = session.snapshot();
  const std::size_t before = session.num_detected();
  TestSequence b(nl.num_inputs());
  for (int t = 0; t < 20; ++t) b.append_x();
  b.random_fill(rng);
  session.advance(b);
  session.restore(snap);
  EXPECT_EQ(session.num_detected(), before);
  EXPECT_EQ(session.now(), 10u);
}

TEST(TransitionFrameModel, LaunchConditionEncodedInDCalculus) {
  const Netlist nl = wire_circuit();
  const auto w = *nl.find("w");
  FrameModel model(nl, TransitionFault{w, kStemPin, true}, 2);
  // a = 0 then 1: frame 1 must carry D on the wire (good 1, faulty 0).
  model.assign(0, 0, V3::Zero);
  model.assign(1, 0, V3::One);
  model.simulate();
  EXPECT_EQ(model.value(1, w), V5::d());
  EXPECT_TRUE(model.po_detection_frame().has_value());
  // Without the launch (1 then 1) no effect exists.
  model.clear_assignments();
  model.assign(0, 0, V3::One);
  model.assign(1, 0, V3::One);
  model.simulate();
  EXPECT_FALSE(model.po_detection_frame().has_value());
}

TEST(TransitionPodem, FindsLaunchAndCapture) {
  const Netlist nl = wire_circuit();
  FrameModel model(nl, TransitionFault{*nl.find("w"), kStemPin, true}, 3);
  const PodemResult r = run_podem(model, PodemGoal::ObservePo, {100, {}});
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.frames_used, 2u);  // launch needs a predecessor frame

  // Verify with the transition simulator.
  TestSequence seq = r.subsequence;
  Rng rng(3);
  seq.random_fill(rng);
  TransitionFaultSimulator sim(nl);
  const TransitionFault faults[1] = {{*nl.find("w"), kStemPin, true}};
  EXPECT_TRUE(sim.detects_all(seq, faults));
}

TEST(TransitionAtpg, GeneratesOnS27Scan) {
  const ScanCircuit sc = insert_scan(make_s27());
  const TransitionAtpgResult r = generate_transition_tests(sc);
  EXPECT_GT(r.fault_coverage(), 80.0) << r.detected << "/" << r.num_faults;

  // Claims verified independently.
  TransitionFaultSimulator sim(sc.netlist);
  const auto faults = enumerate_transition_faults(sc.netlist);
  const auto check = sim.run(r.sequence, faults);
  std::size_t detected = 0;
  for (std::size_t i = 0; i < check.size(); ++i) {
    ASSERT_EQ(check[i].detected, r.detection[i].detected) << i;
    detected += check[i].detected;
  }
  EXPECT_EQ(detected, r.detected);
}

TEST(TransitionCompaction, PreservesTransitionDetections) {
  const ScanCircuit sc = insert_scan(make_s27());
  const auto faults = enumerate_transition_faults(sc.netlist);
  const TransitionAtpgResult r = generate_transition_tests(sc);

  const CompactionResult rest = restoration_compact(sc.netlist, r.sequence, faults);
  const CompactionResult omit = omission_compact(sc.netlist, rest.sequence, faults);
  EXPECT_LE(omit.sequence.length(), rest.sequence.length());
  EXPECT_LE(rest.sequence.length(), r.sequence.length());

  TransitionFaultSimulator sim(sc.netlist);
  const auto before = sim.run(r.sequence, faults);
  const auto after = sim.run(omit.sequence, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (before[i].detected) {
      EXPECT_TRUE(after[i].detected) << i;
    }
  }
}

}  // namespace
}  // namespace uniscan
