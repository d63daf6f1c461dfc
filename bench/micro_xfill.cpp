// Ablation (DESIGN.md §5.5): x-fill policy of the Section-3 translation.
// Random fill maximizes incidental coverage, zero/repeat fill minimize
// tester switching — the bench quantifies both sides of the trade.
#include <benchmark/benchmark.h>

#include "core/uniscan.hpp"

using namespace uniscan;

namespace {

struct Setup {
  ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("s298")));
  FaultList fl = FaultList::collapsed(sc.netlist);
  BaselineResult base = generate_baseline_tests(sc, fl, {});
};

Setup& setup() {
  static Setup s;
  return s;
}

void BM_XFillPolicy(benchmark::State& state) {
  Setup& s = setup();
  TranslationOptions opt;
  switch (state.range(0)) {
    case 0: opt.fill = XFillPolicy::RandomFill; break;
    case 1: opt.fill = XFillPolicy::ZeroFill; break;
    default: opt.fill = XFillPolicy::RepeatFill; break;
  }

  std::size_t detected = 0, transitions = 0;
  FaultSimulator sim(s.sc.netlist);
  for (auto _ : state) {
    const TestSequence seq = translate_test_set(s.sc, s.base.test_set, opt);
    detected = sim.detected_indices(seq, s.fl.faults()).size();
    transitions = compute_metrics(s.sc, seq).input_transitions;
    benchmark::DoNotOptimize(seq);
  }
  state.counters["detected"] = static_cast<double>(detected);
  state.counters["input_transitions"] = static_cast<double>(transitions);
  state.counters["policy"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_XFillPolicy)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
