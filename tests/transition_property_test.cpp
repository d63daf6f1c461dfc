// Parameterized property sweeps for the transition-fault subsystem.
#include <gtest/gtest.h>

#include "core/uniscan.hpp"

namespace uniscan {
namespace {

// ---------------------------------------------------------------------------
// Relationship between transition faults and their stuck-at twins. A strict
// implication ("transition detected => twin detected") does NOT hold in
// sequential circuits: a PERMANENT fault on a scan-path line (e.g. the mux
// select) keeps the faulty machine's state unknown from power-up, so the
// conservative 3-valued simulator can never credit a detection, while the
// TRANSIENT gross-delay fault only perturbs launch cycles and produces a
// crisp known difference. We pin down both the aggregate direction and the
// documented counterexample.
// ---------------------------------------------------------------------------

class TransitionVsStuckAt : public ::testing::TestWithParam<const char*> {};

TEST_P(TransitionVsStuckAt, TwinsDetectedForMostNonScanPathFaults) {
  const Netlist c = load_circuit(*find_suite_entry(GetParam()));
  const ScanCircuit sc = insert_scan(c);
  const auto tfaults = enumerate_transition_faults(sc.netlist);

  Rng rng(42);
  TestSequence seq(sc.netlist.num_inputs());
  for (int t = 0; t < 200; ++t) seq.append_x();
  seq.random_fill(rng);

  TransitionFaultSimulator tsim(sc.netlist);
  FaultSimulator ssim(sc.netlist);
  const auto tdet = tsim.run(seq, tfaults);

  std::vector<Fault> twins;
  twins.reserve(tfaults.size());
  for (const auto& tf : tfaults)
    twins.push_back(Fault{tf.gate, tf.pin, /*stuck_one=*/!tf.slow_to_rise});
  const auto sdet = ssim.run(seq, twins);

  std::size_t both = 0, transition_only = 0;
  for (std::size_t i = 0; i < tfaults.size(); ++i) {
    if (!tdet[i].detected) continue;
    if (sdet[i].detected) ++both;
    else ++transition_only;
  }
  ASSERT_GT(both, 0u);
  // The X-masking exceptions are a small minority.
  EXPECT_LT(transition_only, (both + transition_only) / 4)
      << GetParam() << ": too many transition-only detections";
}

INSTANTIATE_TEST_SUITE_P(Suite, TransitionVsStuckAt, ::testing::Values("s27", "b01", "b02"));

TEST(TransitionVsStuckAtCounterexample, PermanentScanSelFaultIsXMasked) {
  // The documented exception in isolation: on b02_scan, the scan-mux select
  // STR fault is detectable while its permanent s-a-0 twin is not (the
  // faulty machine can never initialize its state through the broken scan
  // path, so all comparisons stay X).
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("b02")));
  const Netlist& nl = sc.netlist;
  const GateId mux0 = nl.gate(sc.chain().cells[0]).fanins[0];
  ASSERT_EQ(nl.gate(mux0).type, GateType::Mux2);

  Rng rng(42);
  TestSequence seq(nl.num_inputs());
  for (int t = 0; t < 200; ++t) seq.append_x();
  seq.random_fill(rng);

  const TransitionFault tf{mux0, 2, true};
  const Fault twin{mux0, 2, false};
  TransitionFaultSimulator tsim(nl);
  FaultSimulator ssim(nl);
  const TransitionFault tfs[1] = {tf};
  const Fault sfs[1] = {twin};
  EXPECT_TRUE(tsim.run(seq, tfs)[0].detected);
  EXPECT_FALSE(ssim.run(seq, sfs)[0].detected);
}

// ---------------------------------------------------------------------------
// Property: the transition generator's claims verify across circuits/seeds.
// ---------------------------------------------------------------------------

struct TGenParam {
  const char* circuit;
  std::uint64_t seed;
};

class TransitionGenerator : public ::testing::TestWithParam<TGenParam> {};

TEST_P(TransitionGenerator, ClaimsVerifyAndCompactionPreserves) {
  const auto [name, seed] = GetParam();
  const Netlist c = load_circuit(*find_suite_entry(name));
  const ScanCircuit sc = insert_scan(c);
  const auto faults = enumerate_transition_faults(sc.netlist);

  AtpgOptions opt;
  opt.seed = seed;
  const TransitionAtpgResult r = generate_transition_tests(sc, faults, opt);
  EXPECT_GT(r.fault_coverage(), 75.0) << name;

  TransitionFaultSimulator sim(sc.netlist);
  const auto check = sim.run(r.sequence, faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    ASSERT_EQ(check[i].detected, r.detection[i].detected) << name << " fault " << i;

  const CompactionResult rest = restoration_compact(sc.netlist, r.sequence, faults);
  const auto after = sim.run(rest.sequence, faults);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (check[i].detected) {
      ASSERT_TRUE(after[i].detected) << name << " fault " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TransitionGenerator,
                         ::testing::Values(TGenParam{"s27", 1}, TGenParam{"s27", 9},
                                           TGenParam{"b01", 1}, TGenParam{"b02", 3}),
                         [](const auto& info) {
                           return std::string(info.param.circuit) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Property: FrameModel transition semantics equals the transition simulator
// on random stimuli (model-vs-machine consistency).
// ---------------------------------------------------------------------------

TEST(TransitionModelConsistency, FrameModelMatchesSimulator) {
  const Netlist nl = make_s27();
  const auto faults = enumerate_transition_faults(nl);
  Rng rng(7);
  TransitionFaultSimulator sim(nl);

  for (std::size_t fi = 0; fi < faults.size(); fi += 6) {
    // Random fully specified window.
    const std::size_t frames = 5;
    FrameModel model(nl, faults[fi], frames);
    TestSequence seq(nl.num_inputs());
    for (std::size_t f = 0; f < frames; ++f) {
      std::vector<V3> vec(nl.num_inputs());
      for (std::size_t i = 0; i < vec.size(); ++i) {
        vec[i] = rng.next_bool() ? V3::One : V3::Zero;
        model.assign(f, i, vec[i]);
      }
      seq.append(std::move(vec));
    }
    model.simulate();
    const TransitionFault one[1] = {faults[fi]};
    const auto det = sim.run(seq, one);
    const bool model_detects = model.po_detection_frame().has_value();
    EXPECT_EQ(model_detects, det[0].detected)
        << "fault " << fi << " (" << transition_fault_to_string(nl, faults[fi]) << ")";
    if (model_detects && det[0].detected) {
      EXPECT_EQ(*model.po_detection_frame(), det[0].time);
    }
  }
}

}  // namespace
}  // namespace uniscan
