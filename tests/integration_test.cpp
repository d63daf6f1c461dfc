// Cross-cutting integration tests that exercise several subsystems at once.
#include <gtest/gtest.h>

#include "core/uniscan.hpp"
#include "reference_sim.hpp"

namespace uniscan {
namespace {

TEST(Integration, WideGateRejectedAtFinalize) {
  Netlist nl("wide");
  std::vector<GateId> ins;
  for (int i = 0; i < 65; ++i) ins.push_back(nl.add_input("i" + std::to_string(i)));
  nl.add_output(nl.add_gate(GateType::And, "g", std::move(ins)));
  EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Integration, TesterProgramExpectationsMatchSimulation) {
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult atpg = generate_tests(sc, fl, {});
  TestSequence seq = atpg.sequence;
  seq.truncate(12);
  const std::string program = format_tester_program(sc, seq);

  // Re-derive the expected outputs and check each data line.
  const SequentialSimulator sim(sc.netlist);
  const SimTrace trace = sim.simulate(seq, sim.initial_state());
  std::istringstream is(program);
  std::string line;
  std::size_t t = 0;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto bar = line.rfind('|');
    ASSERT_NE(bar, std::string::npos);
    std::string expected;
    for (char c : line.substr(bar + 1))
      if (c != ' ') expected.push_back(c);
    std::string actual;
    for (V3 v : trace.po[t]) actual.push_back(to_char(v));
    EXPECT_EQ(expected, actual) << "cycle " << t;
    ++t;
  }
  EXPECT_EQ(t, seq.length());
}

TEST(Integration, InsertScanBenchRoundTripStaysFunctional) {
  // insert-scan -> .bench text -> parse -> the scan circuit still loads a
  // state through its chain (the muxes survived serialization).
  const ScanCircuit sc = insert_scan(make_s27());
  const Netlist reparsed = read_bench_string(write_bench_string(sc.netlist), "s27_scan_rt");
  EXPECT_EQ(reparsed.num_inputs(), sc.netlist.num_inputs());
  EXPECT_EQ(reparsed.num_dffs(), sc.netlist.num_dffs());

  const SequentialSimulator sim(reparsed);
  // Shift 1,0,1 through the reparsed chain (same column positions as sc).
  State s(reparsed.num_dffs(), V3::X);
  const V3 pattern[3] = {V3::One, V3::Zero, V3::One};
  for (int k = 0; k < 3; ++k) {
    std::vector<V3> pi(reparsed.num_inputs(), V3::Zero);
    pi[sc.scan_sel_index()] = V3::One;
    pi[sc.chain().scan_inp_index] = pattern[2 - k];
    s = sim.step(s, pi).next_state;
  }
  EXPECT_EQ(s, (State{V3::One, V3::Zero, V3::One}));
}

TEST(Integration, VerilogCircuitThroughFullPipeline) {
  const auto text = R"(
module demo (a, b, y);
  input a, b;
  output y;
  wire y, q0, q1, n0, n1, t;
  dff r0 (q0, n0);
  dff r1 (q1, n1);
  xor g0 (n0, a, q1);
  nand g1 (t, b, q0);
  not g2 (n1, t);
  or  g3 (y, q0, t);
endmodule
)";
  const Netlist c = read_verilog_string(text);
  const GenerateCompactReport r = run_generate_and_compact(c);
  EXPECT_GE(r.atpg.fault_coverage(), 85.0);
  EXPECT_LE(r.omitted.total, r.raw.total);
}

TEST(Integration, RepeatFillReducesInputTransitions) {
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("b01")));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const BaselineResult base = generate_baseline_tests(sc, fl, {});

  TranslationOptions rnd, rep;
  rnd.fill = XFillPolicy::RandomFill;
  rep.fill = XFillPolicy::RepeatFill;
  const auto m_rnd = compute_metrics(sc, translate_test_set(sc, base.test_set, rnd));
  const auto m_rep = compute_metrics(sc, translate_test_set(sc, base.test_set, rep));
  EXPECT_LT(m_rep.input_transitions, m_rnd.input_transitions);
  EXPECT_EQ(m_rep.length, m_rnd.length);
}

TEST(Integration, SequenceFileSurvivesWholeFlow) {
  // generate -> write -> read -> compact -> write -> read -> faultsim.
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult atpg = generate_tests(sc, fl, {});

  const TestSequence loaded = read_sequence_string(write_sequence_string(atpg.sequence));
  ASSERT_EQ(loaded, atpg.sequence);

  const CompactionResult omit = omission_compact(sc.netlist, loaded, fl.faults());
  const TestSequence reloaded = read_sequence_string(write_sequence_string(omit.sequence));
  FaultSimulator sim(sc.netlist);
  EXPECT_EQ(sim.detected_indices(reloaded, fl.faults()).size(),
            sim.detected_indices(omit.sequence, fl.faults()).size());
}

TEST(Integration, KernelAgreesWithReferenceOnScanShiftSequences) {
  // Long scan shifts keep most of C_scan quiet while values march down the
  // chain; the kernel's good trace and detections must still match the
  // scalar reference.
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("s298")));
  const Netlist& nl = sc.netlist;
  Rng rng(12);
  TestSequence seq(nl.num_inputs());
  for (int t = 0; t < 80; ++t) {
    std::vector<V3> vec(nl.num_inputs());
    for (auto& v : vec) v = rng.next_bool() ? V3::One : V3::Zero;
    vec[sc.scan_sel_index()] = t % 20 < 14 ? V3::One : V3::Zero;  // long shifts
    seq.append(std::move(vec));
  }
  const SequentialSimulator good(nl);
  const SimTrace a = good.simulate(seq, good.initial_state());
  const ref::GoodTrace b = ref::good_trace(nl, seq, good.initial_state());
  for (std::size_t t = 0; t < a.po.size(); ++t) ASSERT_EQ(a.po[t], b.po[t]) << t;

  const FaultList fl = FaultList::collapsed(nl);
  const std::vector<DetectionRecord> got = FaultSimulator(nl).run(seq, fl.faults());
  for (std::size_t i = 0; i < fl.size(); ++i) {
    const ref::Result want = ref::simulate(nl, fl.faults()[i], seq);
    ASSERT_EQ(got[i].detected, want.detected) << "fault " << i;
    if (want.detected) {
      ASSERT_EQ(got[i].time, want.time) << "fault " << i;
    }
  }
}

}  // namespace
}  // namespace uniscan
