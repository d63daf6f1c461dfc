// Microbenchmarks + ablation: PODEM search cost versus time-frame window
// length (DESIGN.md §5 ablation 2), and full generation runs.
#include <benchmark/benchmark.h>

#include <chrono>

#include "core/uniscan.hpp"
#include "obs/counters.hpp"

using namespace uniscan;

namespace {

const ScanCircuit& s27_scan() {
  static ScanCircuit sc = insert_scan(make_s27());
  return sc;
}

const ScanCircuit& s298_scan() {
  static ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("s298")));
  return sc;
}

/// Ablation: deterministic PODEM over all collapsed faults at a fixed window
/// length. Longer windows find deeper tests but each simulate() costs more.
/// Every model shares one CompiledNetlist, as the ATPG loops share their
/// session's, so the timing is search and not compilation.
void BM_PodemWindowSweep(benchmark::State& state) {
  const ScanCircuit& sc = s298_scan();
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const CompiledNetlist cnl(sc.netlist);
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  PodemOptions opt;
  opt.max_backtracks = 40;
  std::size_t successes = 0;
  std::uint64_t evals = 0;
  double seconds = 0;
  for (auto _ : state) {
    const obs::CounterScope scope;
    const auto t0 = std::chrono::steady_clock::now();
    successes = 0;
    for (std::size_t i = 0; i < fl.size(); i += 16) {  // sample every 16th fault
      FrameModel model(cnl, fl[i], window);
      successes += run_podem(model, PodemGoal::ObservePo, opt).success;
    }
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    evals += scope.delta(obs::Counter::FrameGateEvals);
    benchmark::DoNotOptimize(successes);
  }
  state.counters["detected"] = static_cast<double>(successes);
  state.counters["window"] = static_cast<double>(window);
  state.counters["frame_gate_evals"] =
      static_cast<double>(evals) / static_cast<double>(state.iterations());
  state.counters["ns_per_frame_gate_eval"] =
      evals ? seconds * 1e9 / static_cast<double>(evals) : 0.0;
}
BENCHMARK(BM_PodemWindowSweep)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_GenerateTestsS27(benchmark::State& state) {
  const ScanCircuit& sc = s27_scan();
  for (auto _ : state) {
    AtpgResult r = generate_tests(sc);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GenerateTestsS27)->Unit(benchmark::kMillisecond);

void BM_GenerateTestsS298(benchmark::State& state) {
  const ScanCircuit& sc = s298_scan();
  for (auto _ : state) {
    AtpgResult r = generate_tests(sc);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GenerateTestsS298)->Unit(benchmark::kMillisecond);

/// Ablation 3 (paper Table 5 `funct` column): generation with and without
/// the Section-2 functional scan knowledge.
void BM_ScanKnowledgeOnOff(benchmark::State& state) {
  const ScanCircuit& sc = s298_scan();
  AtpgOptions opt;
  opt.use_scan_knowledge = state.range(0) != 0;
  opt.max_backtracks = 60;  // keep the ablation affordable; the gap is huge either way
  std::size_t detected = 0;
  for (auto _ : state) {
    AtpgResult r = generate_tests(sc, FaultList::collapsed(sc.netlist), opt);
    detected = r.detected;
    benchmark::DoNotOptimize(r);
  }
  state.counters["detected"] = static_cast<double>(detected);
  state.counters["knowledge"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ScanKnowledgeOnOff)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
