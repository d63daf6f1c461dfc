#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "atpg/seq_atpg.hpp"
#include "fault/fault_list.hpp"
#include "obs/counters.hpp"
#include "workloads/circuits.hpp"

namespace uniscan {
namespace {

TEST(Metrics, ScanOperationHistogram) {
  const ScanCircuit sc = insert_scan(make_s27());
  // scan_sel column: 0 1 1 0 1 1 1 0  -> one run of 2, one run of 3 (chain=3).
  TestSequence seq(sc.netlist.num_inputs());
  const int pattern[] = {0, 1, 1, 0, 1, 1, 1, 0};
  for (int v : pattern) {
    std::vector<V3> vec(sc.netlist.num_inputs(), V3::Zero);
    vec[sc.scan_sel_index()] = v ? V3::One : V3::Zero;
    seq.append(std::move(vec));
  }
  const SequenceMetrics m = compute_metrics(sc, seq);
  EXPECT_EQ(m.length, 8u);
  EXPECT_EQ(m.scan_vectors, 5u);
  EXPECT_EQ(m.scan_operations, 2u);
  EXPECT_EQ(m.longest_scan_op, 3u);
  EXPECT_EQ(m.complete_scan_ops, 1u);  // the 3-run equals the chain length
  EXPECT_EQ(m.scan_op_histogram.at(2), 1u);
  EXPECT_EQ(m.scan_op_histogram.at(3), 1u);
  EXPECT_DOUBLE_EQ(m.limited_scan_fraction(), 0.5);
}

TEST(Metrics, TrailingScanRunCounted) {
  const ScanCircuit sc = insert_scan(make_s27());
  TestSequence seq(sc.netlist.num_inputs());
  for (int t = 0; t < 2; ++t) {
    std::vector<V3> vec(sc.netlist.num_inputs(), V3::Zero);
    vec[sc.scan_sel_index()] = V3::One;
    seq.append(std::move(vec));
  }
  const SequenceMetrics m = compute_metrics(sc, seq);
  EXPECT_EQ(m.scan_operations, 1u);
  EXPECT_EQ(m.longest_scan_op, 2u);
}

TEST(Metrics, InputTransitionsIgnoreX) {
  const ScanCircuit sc = insert_scan(make_s27());
  TestSequence seq = TestSequence::from_rows(
      sc.netlist.num_inputs(), {"000000", "100000", "x00000", "000000"});
  const SequenceMetrics m = compute_metrics(sc, seq);
  // Only the 0->1 flip at t=1 counts; X boundaries do not.
  EXPECT_EQ(m.input_transitions, 1u);
}

TEST(Metrics, CompactedSequencesAreMostlyLimitedScan) {
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult atpg = generate_tests(sc, fl, {});
  const SequenceMetrics m = compute_metrics(sc, atpg.sequence);
  EXPECT_GT(m.scan_operations, 0u);
  EXPECT_GT(m.limited_scan_fraction(), 0.5) << "generated scan ops should be mostly limited";
}

TEST(Metrics, FormatIsHumanReadable) {
  const ScanCircuit sc = insert_scan(make_s27());
  TestSequence seq(sc.netlist.num_inputs());
  seq.append_x();
  const std::string s = format_metrics(compute_metrics(sc, seq));
  EXPECT_NE(s.find("cycles"), std::string::npos);
  EXPECT_NE(s.find("scan operations"), std::string::npos);
}

// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Telemetry counter registry unit behaviour (the cross-thread equivalence
// tier lives in obs_counter_test.cpp; these pin the single-thread API).

TEST(ObsRegistry, CountAccumulatesAndResetClears) {
  obs::reset();
  obs::count(obs::Counter::OmissionTrials);
  obs::count(obs::Counter::OmissionTrials, 4);
  EXPECT_EQ(obs::total(obs::Counter::OmissionTrials), 5u);
  obs::reset();
  EXPECT_EQ(obs::total(obs::Counter::OmissionTrials), 0u);
}

TEST(ObsRegistry, DisabledCountIsDropped) {
  obs::reset();
  obs::set_enabled(false);
  obs::count(obs::Counter::GateEvals, 1000);
  obs::set_enabled(true);
  EXPECT_EQ(obs::total(obs::Counter::GateEvals), 0u);
}

TEST(ObsRegistry, CounterScopeDeltaIsolatesARegion) {
  obs::reset();
  obs::count(obs::Counter::GateEvals, 7);  // before the scope: not its delta
  const obs::CounterScope scope;
  obs::count(obs::Counter::GateEvals, 3);
  EXPECT_EQ(scope.delta(obs::Counter::GateEvals), 3u);
  const obs::CounterArray d = scope.deltas();
  EXPECT_EQ(d[std::size_t(obs::Counter::GateEvals)], 3u);
  EXPECT_EQ(d[std::size_t(obs::Counter::BatchSkips)], 0u);
  EXPECT_EQ(obs::total(obs::Counter::GateEvals), 10u);
}

TEST(ObsRegistry, GenerationCountsGateEvalsAndPolls) {
  // End-to-end sanity that the registry is actually wired into the ATPG
  // flow: generating tests must evaluate gates and poll its cancel token.
  obs::reset();
  const ScanCircuit sc = insert_scan(make_s27());
  const AtpgResult atpg = generate_tests(sc, FaultList::collapsed(sc.netlist), {});
  EXPECT_GT(obs::total(obs::Counter::GateEvals), 0u);
  EXPECT_GT(obs::total(obs::Counter::CancelPolls), 0u);
  // gate_evals on the result equals the scoped registry delta of the run.
  EXPECT_GT(atpg.gate_evals, 0u);
  obs::reset();
}

}  // namespace
}  // namespace uniscan
