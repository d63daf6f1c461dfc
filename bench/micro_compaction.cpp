// Microbenchmarks + ablations for the static compaction procedures:
// restoration-before-omission order (DESIGN.md §5 ablation 4) and the
// omission trial order (back-to-front vs front-to-back). Accepts --threads=N (stripped before google-benchmark sees the
// flags) to size the global fault-simulation pool.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>

#include "core/exit_codes.hpp"
#include "core/uniscan.hpp"
#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"

using namespace uniscan;

namespace {

struct Setup {
  ScanCircuit sc;
  FaultList fl;
  AtpgResult atpg;

  explicit Setup(const char* name)
      : sc(insert_scan(load_circuit(*find_suite_entry(name)))),
        fl(FaultList::collapsed(sc.netlist)),
        atpg(generate_tests(sc, fl, {})) {}
};

Setup& s27() {
  static Setup s("s27");
  return s;
}
Setup& b01() {
  static Setup s("b01");
  return s;
}

void BM_RestorationS27(benchmark::State& state) {
  Setup& s = s27();
  std::size_t len = 0;
  for (auto _ : state) {
    CompactionResult r = restoration_compact(s.sc.netlist, s.atpg.sequence, s.fl.faults());
    len = r.sequence.length();
    benchmark::DoNotOptimize(r);
  }
  state.counters["in_len"] = static_cast<double>(s.atpg.sequence.length());
  state.counters["out_len"] = static_cast<double>(len);
}
BENCHMARK(BM_RestorationS27)->Unit(benchmark::kMillisecond);

void BM_OmissionS27(benchmark::State& state) {
  Setup& s = s27();
  std::size_t len = 0;
  for (auto _ : state) {
    CompactionResult r = omission_compact(s.sc.netlist, s.atpg.sequence, s.fl.faults());
    len = r.sequence.length();
    benchmark::DoNotOptimize(r);
  }
  state.counters["out_len"] = static_cast<double>(len);
}
BENCHMARK(BM_OmissionS27)->Unit(benchmark::kMillisecond);

/// Ablation: the paper's order (restoration THEN omission) versus
/// omission-only. Restoration first is much cheaper because omission then
/// works on a shorter sequence; final lengths are comparable.
void BM_PipelineOrder(benchmark::State& state) {
  Setup& s = b01();
  const bool restoration_first = state.range(0) != 0;
  std::size_t len = 0;
  for (auto _ : state) {
    TestSequence input = s.atpg.sequence;
    if (restoration_first) {
      CompactionResult r = restoration_compact(s.sc.netlist, input, s.fl.faults());
      input = r.sequence;
    }
    CompactionResult o = omission_compact(s.sc.netlist, input, s.fl.faults());
    len = o.sequence.length();
    benchmark::DoNotOptimize(o);
  }
  state.counters["final_len"] = static_cast<double>(len);
  state.counters["restor_first"] = static_cast<double>(restoration_first);
}
BENCHMARK(BM_PipelineOrder)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/// Ablation: omission trial order.
void BM_OmissionOrder(benchmark::State& state) {
  Setup& s = s27();
  OmissionOptions opt;
  opt.back_to_front = state.range(0) != 0;
  std::size_t len = 0;
  for (auto _ : state) {
    CompactionResult r = omission_compact(s.sc.netlist, s.atpg.sequence, s.fl.faults(), opt);
    len = r.sequence.length();
    benchmark::DoNotOptimize(r);
  }
  state.counters["final_len"] = static_cast<double>(len);
  state.counters["back_to_front"] = static_cast<double>(opt.back_to_front);
}
BENCHMARK(BM_OmissionOrder)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Pull out --threads=N before google-benchmark rejects it as unknown.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      const auto n = uniscan::flag_uint(argv[i], uniscan::ThreadPool::kMaxThreads);
      if (!n) return uniscan::kExitUsage;
      uniscan::ThreadPool::set_global_threads(*n == 0 ? 1 : *n);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
