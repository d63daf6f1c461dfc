#include "sim/sequential_sim.hpp"

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "reference_sim.hpp"
#include "util/rng.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

std::vector<V3> vec(const std::string& s) {
  std::vector<V3> out;
  for (char c : s) out.push_back(v3_from_char(c));
  return out;
}

TEST(GateEval, ScalarGateFunctions) {
  const V3 in01[] = {V3::Zero, V3::One};
  const V3 in11[] = {V3::One, V3::One};
  EXPECT_EQ(eval_gate_v3(GateType::And, in01, 2), V3::Zero);
  EXPECT_EQ(eval_gate_v3(GateType::Nand, in11, 2), V3::Zero);
  EXPECT_EQ(eval_gate_v3(GateType::Or, in01, 2), V3::One);
  EXPECT_EQ(eval_gate_v3(GateType::Nor, in01, 2), V3::Zero);
  EXPECT_EQ(eval_gate_v3(GateType::Xor, in01, 2), V3::One);
  EXPECT_EQ(eval_gate_v3(GateType::Xnor, in01, 2), V3::Zero);
  EXPECT_EQ(eval_gate_v3(GateType::Const0, nullptr, 0), V3::Zero);
  EXPECT_EQ(eval_gate_v3(GateType::Const1, nullptr, 0), V3::One);
}

TEST(GateEval, WideGates) {
  const V3 in[] = {V3::One, V3::One, V3::One, V3::Zero};
  EXPECT_EQ(eval_gate_v3(GateType::And, in, 4), V3::Zero);
  EXPECT_EQ(eval_gate_v3(GateType::And, in, 3), V3::One);
  EXPECT_EQ(eval_gate_v3(GateType::Xor, in, 4), V3::One);  // odd parity
  EXPECT_EQ(eval_gate_v3(GateType::Xor, in, 3), V3::One);
}

TEST(SequentialSim, PowerUpStateIsAllX) {
  const Netlist nl = make_s27();
  const SequentialSimulator sim(nl);
  const State s = sim.initial_state();
  ASSERT_EQ(s.size(), 3u);
  for (V3 v : s) EXPECT_EQ(v, V3::X);
}

// Hand-derived s27 frame: with G0=1, G3=0 the output is 1 regardless of the
// (unknown) state, and the next state of G5/G6 is determined.
TEST(SequentialSim, S27KnownFrameFromUnknownState) {
  const Netlist nl = make_s27();
  const SequentialSimulator sim(nl);
  const FrameValues fv = sim.step(sim.initial_state(), vec("1xx0"));
  EXPECT_EQ(fv.po[0], V3::One);          // G17
  EXPECT_EQ(fv.next_state[0], V3::One);  // G5' = G10 = NOR(0, 0) = 1
  EXPECT_EQ(fv.next_state[1], V3::Zero); // G6' = G11 = NOR(x, 1) = 0
  EXPECT_EQ(fv.next_state[2], V3::X);    // G7' depends on unknown G7
}

TEST(SequentialSim, S27StateBecomesFullyKnown) {
  const Netlist nl = make_s27();
  const SequentialSimulator sim(nl);
  // G1=0 and the G7' = NAND(G2, G12) structure pin down the rest within a
  // few cycles of constant inputs.
  State s = sim.initial_state();
  for (int i = 0; i < 3; ++i) s = sim.step(s, vec("1000")).next_state;
  for (V3 v : s) EXPECT_NE(v, V3::X);
}

TEST(SequentialSim, ToyPipelineShiftBehaviour) {
  const Netlist nl = make_toy_pipeline();
  const SequentialSimulator sim(nl);
  // f0' = (a ^ f1) & en, f1' = f0, out = f1 | (x & en).
  State s{V3::Zero, V3::Zero};  // start from a known state
  FrameValues fv = sim.step(s, vec("11"));  // a=1, en=1
  EXPECT_EQ(fv.next_state[0], V3::One);
  EXPECT_EQ(fv.next_state[1], V3::Zero);
  fv = sim.step(fv.next_state, vec("01"));
  EXPECT_EQ(fv.next_state[0], V3::Zero);
  EXPECT_EQ(fv.next_state[1], V3::One);  // the 1 shifted down the pipe
}

TEST(SequentialSim, TraceShapes) {
  const Netlist nl = make_s27();
  const SequentialSimulator sim(nl);
  TestSequence seq = TestSequence::from_rows(4, {"0000", "1111", "0101"});
  const SimTrace trace = sim.simulate(seq, sim.initial_state());
  EXPECT_EQ(trace.po.size(), 3u);
  EXPECT_EQ(trace.state.size(), 4u);  // includes the initial state
  EXPECT_EQ(trace.state[0], sim.initial_state());
}

TEST(SequentialSim, XInputsPropagatePessimistically) {
  NetlistBuilder b("xprop");
  const GateId a = b.input("a");
  const GateId n = b.not_("n", a);
  const GateId g = b.or_("g", {a, n});  // a | !a: 3-valued sim cannot see it's 1
  b.output(g);
  const Netlist nl = b.build();
  const SequentialSimulator sim(nl);
  // No DFFs: state is empty.
  NetlistBuilder b2("dummy");
  (void)b2;
  EXPECT_EQ(sim.step({}, {V3::X}).po[0], V3::X);
  EXPECT_EQ(sim.step({}, {V3::One}).po[0], V3::One);
}

TEST(SequentialSim, RejectsWidthMismatch) {
  const Netlist nl = make_s27();
  const SequentialSimulator sim(nl);
  EXPECT_THROW(sim.step(sim.initial_state(), vec("00")), std::invalid_argument);
  EXPECT_THROW(sim.step({V3::Zero}, vec("0000")), std::invalid_argument);
}

TEST(SequentialSim, StepFromPartlyKnownStateMatchesReference) {
  const Netlist nl = make_s27();
  const SequentialSimulator sim(nl);
  const State start{V3::One, V3::Zero, V3::X};
  const FrameValues fv = sim.step(start, vec("1010"));
  const ref::GoodTrace want =
      ref::good_trace(nl, TestSequence::from_rows(4, {"1010"}), start);
  EXPECT_EQ(fv.po, want.po[0]);
  EXPECT_EQ(fv.next_state, want.state[1]);
}

// step() evaluates into a scratch buffer shared across calls; nothing of an
// earlier frame may leak into a later one.
TEST(SequentialSim, StepDoesNotCarryHistory) {
  const Netlist nl = make_s27();
  const SequentialSimulator sim(nl);
  const State zero(3, V3::Zero);
  const FrameValues first = sim.step(zero, vec("1111"));
  State s = sim.initial_state();
  for (int t = 0; t < 5; ++t) s = sim.step(s, vec(t % 2 ? "0x01" : "0000")).next_state;
  const FrameValues again = sim.step(zero, vec("1111"));
  EXPECT_EQ(first.po, again.po);
  EXPECT_EQ(first.next_state, again.next_state);
}

TestSequence random_sequence(const Netlist& nl, std::size_t len, std::uint64_t seed,
                             double x_prob) {
  TestSequence seq(nl.num_inputs());
  Rng rng(seed);
  for (std::size_t t = 0; t < len; ++t) {
    std::vector<V3> v(nl.num_inputs());
    for (auto& x : v)
      x = rng.next_double() < x_prob ? V3::X : (rng.next_bool() ? V3::One : V3::Zero);
    seq.append(std::move(v));
  }
  return seq;
}

// The compiled good-machine kernel against the scalar reference, frame by
// frame over whole traces.
class GoodMachineMatchesReference : public ::testing::TestWithParam<const char*> {
 protected:
  void check(std::size_t len, std::uint64_t seed, double x_prob) {
    const Netlist nl = load_circuit(*find_suite_entry(GetParam()));
    const SequentialSimulator sim(nl);
    const TestSequence seq = random_sequence(nl, len, seed, x_prob);
    const SimTrace got = sim.simulate(seq, sim.initial_state());
    const ref::GoodTrace want = ref::good_trace(nl, seq, sim.initial_state());
    ASSERT_EQ(got.po.size(), want.po.size());
    for (std::size_t t = 0; t < got.po.size(); ++t) {
      ASSERT_EQ(got.po[t], want.po[t]) << GetParam() << " frame " << t;
      ASSERT_EQ(got.state[t + 1], want.state[t + 1]) << GetParam() << " frame " << t;
    }
  }
};

TEST_P(GoodMachineMatchesReference, FullTraceEquality) { check(120, 42, 0.0); }

TEST_P(GoodMachineMatchesReference, WithXInputs) { check(60, 7, 0.3); }

INSTANTIATE_TEST_SUITE_P(Suite, GoodMachineMatchesReference,
                         ::testing::Values("s27", "b01", "s208", "s298", "b09"));

}  // namespace
}  // namespace uniscan
