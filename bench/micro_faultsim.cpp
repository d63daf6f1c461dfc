// Microbenchmarks + ablation: parallel-fault (63 machines/word) versus
// serial (one machine/word) sequential fault simulation — DESIGN.md §5
// ablation 1. BM_CounterDisabled/BM_CounterEnabled pin down the telemetry
// registry's per-count cost (DESIGN.md §5g: disabled must be one predictable
// branch); BM_ParallelFaultSimNoObs is the whole-simulation overhead check
// the EXPERIMENTS.md 2%-budget row uses.
#include <benchmark/benchmark.h>

#include "core/uniscan.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"

using namespace uniscan;

namespace {

struct Setup {
  Netlist nl;
  FaultList fl;
  TestSequence seq;

  explicit Setup(const char* circuit, std::size_t len) :
      nl(load_circuit(*find_suite_entry(circuit))),
      fl(FaultList::collapsed(nl)),
      seq(nl.num_inputs()) {
    Rng rng(7);
    for (std::size_t t = 0; t < len; ++t) seq.append_x();
    seq.random_fill(rng);
  }
};

Setup& s298() {
  static Setup s("s298", 256);
  return s;
}

void BM_ParallelFaultSim(benchmark::State& state) {
  Setup& s = s298();
  FaultSimulator sim(s.nl);
  for (auto _ : state) {
    auto records = sim.run(s.seq, s.fl.faults());
    benchmark::DoNotOptimize(records);
  }
  state.counters["faults"] = static_cast<double>(s.fl.size());
  state.counters["fault_frames/s"] = benchmark::Counter(
      static_cast<double>(s.fl.size() * s.seq.length()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelFaultSim)->Unit(benchmark::kMillisecond);

void BM_SerialFaultSim(benchmark::State& state) {
  // One fault per word: the cost model of a naive serial simulator on the
  // same kernel.
  Setup& s = s298();
  FaultSimulator sim(s.nl);
  for (auto _ : state) {
    std::size_t detected = 0;
    for (std::size_t i = 0; i < s.fl.size(); ++i) {
      auto records = sim.run(s.seq, std::span<const Fault>(&s.fl[i], 1));
      detected += records[0].detected;
    }
    benchmark::DoNotOptimize(detected);
  }
  state.counters["fault_frames/s"] = benchmark::Counter(
      static_cast<double>(s.fl.size() * s.seq.length()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SerialFaultSim)->Unit(benchmark::kMillisecond);

void BM_GoodMachineSim(benchmark::State& state) {
  Setup& s = s298();
  const SequentialSimulator sim(s.nl);
  for (auto _ : state) {
    auto trace = sim.simulate(s.seq, sim.initial_state());
    benchmark::DoNotOptimize(trace);
  }
  state.counters["frames/s"] =
      benchmark::Counter(static_cast<double>(s.seq.length()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoodMachineSim)->Unit(benchmark::kMicrosecond);

void BM_CounterDisabled(benchmark::State& state) {
  // The disabled hot path of obs::count: one relaxed atomic bool load and a
  // branch, independent of the counter or increment.
  obs::set_enabled(false);
  for (auto _ : state) obs::count(obs::Counter::GateEvals, 63);
  obs::set_enabled(true);
}
BENCHMARK(BM_CounterDisabled)->Unit(benchmark::kNanosecond);

void BM_CounterEnabled(benchmark::State& state) {
  // Enabled path: the load + branch plus one relaxed fetch_add on this
  // worker's cache-line-aligned shard (uncontended here).
  obs::set_enabled(true);
  for (auto _ : state) obs::count(obs::Counter::GateEvals, 63);
}
BENCHMARK(BM_CounterEnabled)->Unit(benchmark::kNanosecond);

void BM_ParallelFaultSimNoObs(benchmark::State& state) {
  // BM_ParallelFaultSim with telemetry disabled: the pair bounds the
  // whole-simulation counter overhead (EXPERIMENTS.md keeps it under 2%).
  Setup& s = s298();
  FaultSimulator sim(s.nl);
  obs::set_enabled(false);
  for (auto _ : state) {
    auto records = sim.run(s.seq, s.fl.faults());
    benchmark::DoNotOptimize(records);
  }
  obs::set_enabled(true);
}
BENCHMARK(BM_ParallelFaultSimNoObs)->Unit(benchmark::kMillisecond);

/// The slot width a run over `n` faults takes under the current cap.
double run_width(std::size_t n) {
  return static_cast<double>(slot_width_bits(efficient_slot_width(n, widest_slot_width())));
}

void BM_ParallelFaultSimWidth(benchmark::State& state) {
  // Slot-width ablation: the same run with the widest word capped at 64,
  // 256 and 512 bits (a 512 cap leaves the CPU's native width); the
  // simulator still narrows below the cap when the fault count justifies
  // it, and the `slot_width` counter reports the word it ran.
  Setup& s = s298();
  FaultSimulator sim(s.nl);
  const detail::SlotWidthCap cap(static_cast<SlotWidth>(state.range(0)));
  for (auto _ : state) {
    auto records = sim.run(s.seq, s.fl.faults());
    benchmark::DoNotOptimize(records);
  }
  state.counters["slot_width"] = run_width(s.fl.size());
  state.counters["fault_frames/s"] = benchmark::Counter(
      static_cast<double>(s.fl.size() * s.seq.length()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelFaultSimWidth)->Arg(64)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelFaultSimWidthLarge(benchmark::State& state) {
  // The width ablation on a fault list an order of magnitude larger
  // (s1423: ~3.2k collapsed faults, 50 batches at width 64 vs 13 at 256).
  // Small circuits are fixup-bound (see EXPERIMENTS.md); this is the
  // regime the wide words are for.
  static Setup s("s1423", 256);
  FaultSimulator sim(s.nl);
  const detail::SlotWidthCap cap(static_cast<SlotWidth>(state.range(0)));
  for (auto _ : state) {
    auto records = sim.run(s.seq, s.fl.faults());
    benchmark::DoNotOptimize(records);
  }
  state.counters["slot_width"] = run_width(s.fl.size());
  state.counters["fault_frames/s"] = benchmark::Counter(
      static_cast<double>(s.fl.size() * s.seq.length()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelFaultSimWidthLarge)->Arg(64)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SessionAdvanceWidth(benchmark::State& state) {
  // Session construction is untimed; the advance packs the whole fault
  // universe into kBits-1-slot batches at the width the cap allows.
  Setup& s = s298();
  const detail::SlotWidthCap cap(static_cast<SlotWidth>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    FaultSimSession session(s.nl, s.fl.faults());
    state.ResumeTiming();
    session.advance(s.seq);
    benchmark::DoNotOptimize(session.num_detected());
  }
  state.counters["slot_width"] = run_width(s.fl.size());
}
BENCHMARK(BM_SessionAdvanceWidth)->Arg(64)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SessionAdvance(benchmark::State& state) {
  // Streaming session: cost of advancing the whole fault universe one chunk.
  Setup& s = s298();
  for (auto _ : state) {
    state.PauseTiming();
    FaultSimSession session(s.nl, s.fl.faults());
    state.ResumeTiming();
    session.advance(s.seq);
    benchmark::DoNotOptimize(session.num_detected());
  }
}
BENCHMARK(BM_SessionAdvance)->Unit(benchmark::kMillisecond);

void BM_RepackFaultSim(benchmark::State& state) {
  // A session advanced chunk by chunk, the regime repacking (DESIGN.md
  // §5j) targets: early chunks detect the easy faults, and the session
  // repacks the survivors into fewer, narrower batches. s344 is
  // random-testable (most lanes die within the first chunks); a
  // random-resistant circuit like s526 keeps its population live and the
  // trigger correctly never fires. Arg = the slot-width cap (a 512 cap
  // leaves the CPU's native width); detections are identical under every
  // cap.
  static Setup s("s344", 2048);
  constexpr std::size_t kChunk = 64;
  std::vector<TestSequence> chunks;
  for (std::size_t t = 0; t < s.seq.length(); t += kChunk) {
    TestSequence c(s.nl.num_inputs());
    for (std::size_t u = t; u < std::min(t + kChunk, s.seq.length()); ++u)
      c.append(std::vector<V3>(s.seq.vector_at(u)));
    chunks.push_back(std::move(c));
  }
  const detail::SlotWidthCap cap(static_cast<SlotWidth>(state.range(0)));
  const std::uint64_t evals0 = obs::totals()[static_cast<std::size_t>(obs::Counter::GateEvals)];
  std::uint64_t iters = 0;
  for (auto _ : state) {
    state.PauseTiming();
    FaultSimSession session(s.nl, s.fl.faults());
    state.ResumeTiming();
    for (const TestSequence& c : chunks) session.advance(c);
    benchmark::DoNotOptimize(session.num_detected());
    ++iters;
  }
  const std::uint64_t evals1 = obs::totals()[static_cast<std::size_t>(obs::Counter::GateEvals)];
  if (iters)
    state.counters["gate_evals/iter"] = static_cast<double>((evals1 - evals0) / iters);
}
BENCHMARK(BM_RepackFaultSim)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
