#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include "fault/fault_list.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/fault_sim.hpp"
#include "util/rng.hpp"
#include "workloads/circuits.hpp"

namespace uniscan {
namespace {

/// Fault-simulate `sub` (x-filled) from all-X and report detection of `f`.
bool confirm(const Netlist& nl, const Fault& f, TestSequence sub, std::uint64_t seed = 999) {
  Rng rng(seed);
  sub.random_fill(rng);
  FaultSimulator sim(nl);
  const Fault one[1] = {f};
  return sim.detects_all(sub, one);
}

TEST(Podem, DetectsEasyFaultOnS27) {
  const Netlist nl = make_s27();
  // G17 = NOT(G11) drives the PO; G17 s-a-0 is detected by making G17 = 1.
  const auto g17 = nl.find("G17");
  ASSERT_TRUE(g17);
  FrameModel model(nl, Fault{*g17, kStemPin, false}, 4);
  const PodemResult r = run_podem(model, PodemGoal::ObservePo);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.frames_used, 1u);
  EXPECT_TRUE(confirm(nl, Fault{*g17, kStemPin, false}, r.subsequence));
}

TEST(Podem, EveryPoSuccessConfirmedBySimulation) {
  // Property: whenever PODEM claims success, an independent fault simulation
  // of the x-filled subsequence detects the fault. Run on the SCAN version:
  // the plain s27 from an unknown power-up state has many sequentially
  // untestable faults (e.g. G6 = 1 is unreachable under 3-valued semantics
  // without scan), which is exactly the problem scan solves.
  const ScanCircuit sc = insert_scan(make_s27());
  const Netlist& nl = sc.netlist;
  const FaultList fl = FaultList::collapsed(nl);
  std::size_t successes = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    FrameModel model(nl, fl[i], 10);
    const PodemResult r = run_podem(model, PodemGoal::ObservePo, {400, {}});
    if (!r.success) continue;
    ++successes;
    EXPECT_TRUE(confirm(nl, fl[i], r.subsequence))
        << "fault " << i << " (" << fault_to_string(nl, fl[i]) << ")";
  }
  // With scan lines as ordinary inputs/outputs, the engine should handle a
  // large majority of s27_scan deterministically.
  EXPECT_GT(successes, fl.size() * 3 / 4) << "only " << successes << "/" << fl.size();
}

TEST(Podem, PlainSequentialCircuitHasUntestableFaults) {
  // Documented behaviour: from the all-X power-up state several s27 faults
  // are sequentially untestable (G6 can never be justified to 1 without
  // scan), so the non-scan success count sits well below the scan one.
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  std::size_t successes = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    FrameModel model(nl, fl[i], 8);
    successes += run_podem(model, PodemGoal::ObservePo, {200, {}}).success;
  }
  EXPECT_GT(successes, 5u);
  EXPECT_LT(successes, fl.size());
}

TEST(Podem, SubsequenceEndsAtObservationFrame) {
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  for (std::size_t i = 0; i < fl.size(); ++i) {
    FrameModel model(nl, fl[i], 6);
    const PodemResult r = run_podem(model, PodemGoal::ObservePo, {100, {}});
    if (!r.success) continue;
    EXPECT_EQ(r.subsequence.length(), r.frames_used);
    EXPECT_LE(r.frames_used, 6u);
  }
}

TEST(Podem, LatchGoalLatchesEffect) {
  // On the scan version, the LatchIntoFf goal must report a chain position
  // whose flush length detects the fault.
  const ScanCircuit sc = insert_scan(make_s27());
  const Netlist& nl = sc.netlist;
  const GateId mux0 = nl.gate(sc.chain().cells[0]).fanins[0];
  const Fault f{mux0, kStemPin, true};
  FrameModel model(nl, f, 4);
  const PodemResult r = run_podem(model, PodemGoal::LatchIntoFf);
  ASSERT_TRUE(r.success);
  EXPECT_LT(r.latched_dff, nl.num_dffs());

  // Verify: subsequence + flush detects the fault.
  Rng rng(4242);
  TestSequence seq = r.subsequence;
  seq.random_fill(rng);
  // Flush: scan_sel = 1 until the effect reaches scan_out.
  const std::size_t shifts = nl.num_dffs() - r.latched_dff;
  for (std::size_t k = 0; k < shifts; ++k) {
    std::vector<V3> vec(nl.num_inputs(), V3::Zero);
    vec[sc.scan_sel_index()] = V3::One;
    seq.append(std::move(vec));
  }
  FaultSimulator sim(nl);
  const Fault one[1] = {f};
  EXPECT_TRUE(sim.detects_all(seq, one));
}

TEST(Podem, ScanObserveAcceptsLatchedOrPo) {
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  std::size_t successes = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    FrameModel model(nl, fl[i], 3);
    model.set_state_assignable(true);
    const PodemResult r = run_podem(model, PodemGoal::ScanObserve, {200, {}});
    if (r.success) {
      ++successes;
      EXPECT_EQ(r.scan_in.size(), nl.num_dffs());
    }
  }
  // With a controllable state and observable next state nearly every s27
  // fault is testable in 3 frames.
  EXPECT_GT(successes, fl.size() * 9 / 10);
}

TEST(Podem, RespectsBacktrackLimit) {
  const Netlist nl = make_s27();
  const FaultList fl = FaultList::collapsed(nl);
  for (std::size_t i = 0; i < fl.size(); ++i) {
    FrameModel model(nl, fl[i], 4);
    const PodemResult r = run_podem(model, PodemGoal::ObservePo, {1, {}});
    EXPECT_LE(r.backtracks, 2) << "limit 1 must stop the search immediately";
  }
}

TEST(Podem, PinnedScanSelKeepsFunctionalMode) {
  const ScanCircuit sc = insert_scan(make_s27());
  const Netlist& nl = sc.netlist;
  const FaultList fl = FaultList::collapsed(nl);
  for (std::size_t i = 0; i < fl.size(); i += 7) {
    FrameModel model(nl, fl[i], 2);
    model.set_state_assignable(true);
    model.pin_input(sc.scan_sel_index(), V3::Zero);
    const PodemResult r = run_podem(model, PodemGoal::ScanObserve, {100, {}});
    if (!r.success) continue;
    for (std::size_t t = 0; t < r.subsequence.length(); ++t)
      EXPECT_EQ(r.subsequence.at(t, sc.scan_sel_index()), V3::Zero);
  }
}

TEST(Podem, UsesScanShiftingWhenWindowAllows) {
  // A fault observable only through the chain: the scan_inp stem s-a-0 on
  // s27_scan needs shifting a 1 through the chain to scan_out.
  const ScanCircuit sc = insert_scan(make_s27());
  const Netlist& nl = sc.netlist;
  const GateId scan_inp = nl.inputs()[sc.chain().scan_inp_index];
  const Fault f{scan_inp, kStemPin, false};
  FrameModel model(nl, f, 8);
  const PodemResult r = run_podem(model, PodemGoal::ObservePo, {400, {}});
  ASSERT_TRUE(r.success);
  EXPECT_TRUE(confirm(nl, f, r.subsequence));
  // Detection requires at least chain-length+1 frames of shifting.
  EXPECT_GE(r.frames_used, nl.num_dffs() + 1);
}

}  // namespace
}  // namespace uniscan
