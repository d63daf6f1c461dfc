// Circuit setup on the large corpus tier, one benchmark per step: the
// synthetic generator, writing its .bench text, the manifest pin hash,
// parsing, scan insertion and stuck-at fault collapsing. Each iteration runs
// its step over every large-tier row, on inputs the previous step produced
// once up front, so the benchmarks split the `corpus.load_s`,
// `scan.insert_s` and `fault.collapse_s` layers of perfbench's `setup_s`.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/uniscan.hpp"
#include "util/sha256.hpp"

using namespace uniscan;

namespace {

struct LargeTier {
  std::vector<CorpusEntry> rows;
  std::vector<Netlist> generated;  // synth rows only
  std::vector<std::string> texts;  // canonical .bench text of every row
  std::vector<Netlist> parsed;
  std::vector<ScanCircuit> scanned;

  LargeTier() {
    const CorpusRegistry& reg = CorpusRegistry::global();
    rows = reg.tier(CorpusTier::Large);
    for (const CorpusEntry& e : rows) {
      if (e.source == "synth") generated.push_back(generate_synthetic(CorpusRegistry::synth_spec(e)));
      texts.push_back(reg.bench_text(e, /*verify=*/true));
      parsed.push_back(read_bench_string(texts.back(), e.name));
      scanned.push_back(insert_scan(parsed.back()));
    }
  }
};

const LargeTier& large() {
  static const LargeTier t;
  return t;
}

void finish(benchmark::State& state, std::size_t rows) {
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_SynthGenerate(benchmark::State& state) {
  const LargeTier& t = large();
  for (auto _ : state)
    for (const CorpusEntry& e : t.rows)
      if (e.source == "synth")
        benchmark::DoNotOptimize(generate_synthetic(CorpusRegistry::synth_spec(e)));
  finish(state, t.generated.size());
}
BENCHMARK(BM_SynthGenerate)->Unit(benchmark::kMillisecond);

void BM_WriteBench(benchmark::State& state) {
  const LargeTier& t = large();
  for (auto _ : state)
    for (const Netlist& nl : t.generated) benchmark::DoNotOptimize(write_bench_string(nl));
  finish(state, t.generated.size());
}
BENCHMARK(BM_WriteBench)->Unit(benchmark::kMillisecond);

void BM_PinHash(benchmark::State& state) {
  const LargeTier& t = large();
  std::size_t bytes = 0;
  for (const std::string& text : t.texts) bytes += text.size();
  for (auto _ : state)
    for (const std::string& text : t.texts) benchmark::DoNotOptimize(sha256_hex(text));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
  finish(state, t.texts.size());
}
BENCHMARK(BM_PinHash)->Unit(benchmark::kMillisecond);

void BM_Parse(benchmark::State& state) {
  const LargeTier& t = large();
  for (auto _ : state)
    for (std::size_t i = 0; i < t.texts.size(); ++i)
      benchmark::DoNotOptimize(read_bench_string(t.texts[i], t.rows[i].name));
  finish(state, t.texts.size());
}
BENCHMARK(BM_Parse)->Unit(benchmark::kMillisecond);

void BM_InsertScan(benchmark::State& state) {
  const LargeTier& t = large();
  for (auto _ : state)
    for (const Netlist& nl : t.parsed) benchmark::DoNotOptimize(insert_scan(nl));
  finish(state, t.parsed.size());
}
BENCHMARK(BM_InsertScan)->Unit(benchmark::kMillisecond);

void BM_Collapse(benchmark::State& state) {
  const LargeTier& t = large();
  for (auto _ : state)
    for (const ScanCircuit& sc : t.scanned)
      benchmark::DoNotOptimize(FaultList::collapsed(sc.netlist));
  finish(state, t.scanned.size());
}
BENCHMARK(BM_Collapse)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
