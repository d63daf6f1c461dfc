// Regenerates the paper's Table 7: start from a CONVENTIONAL complete-scan
// test set (the [26]-style baseline), translate it into a unified sequence
// (Section 3), then compact with restoration [23] + omission [22]. Shows
// that even tests produced by conventional scan ATPG shrink substantially
// once scan operations become ordinary vectors. Circuits run as parallel
// tasks (--threads=N); rows stream to stdout in suite order as the
// completed prefix grows (run_suite_tasks).
#include "bench_common.hpp"

#include <iostream>

using namespace uniscan;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto suite = bench::select_suite(args);

  std::cout << "=== Table 7: results for translated test sets ===\n\n";

  struct Row {
    TranslateCompactReport r;
    double wall_ms = 0.0;
  };
  StreamTable table(std::cout, {"circ", "test.total", "test.scan", "restor.total", "restor.scan",
                                "omit.total", "omit.scan", "base.cyc", "status"});
  bench::BenchJson json;
  std::size_t total_omit = 0, total_base = 0;
  const PipelineConfig cfg = anchor_suite_budget(bench::make_config(args));
  const auto rows = run_suite_tasks(
      suite,
      [&](std::size_t i) {
        const bench::Stopwatch sw;
        Row row;
        const Netlist c = run_stage(suite[i].name, "load",
                                    [&] { return load_circuit(suite[i], args.bench_dir); });
        row.r = run_translate_and_compact(c, cfg);
        row.wall_ms = sw.ms();
        return row;
      },
      [&](std::size_t i, const TaskOutcome<Row>& outcome) {
        if (outcome.failed()) {
          table.add_row({suite[i].name, "-", "-", "-", "-", "-", "-", "-",
                         bench::row_status(*outcome.failure)});
          json.add_failure(*outcome.failure);
          return;
        }
        const TranslateCompactReport& r = outcome.value.r;
        table.add_row({suite[i].name, std::to_string(r.translated.total),
                       std::to_string(r.translated.scan), std::to_string(r.restored.total),
                       std::to_string(r.restored.scan), std::to_string(r.omitted.total),
                       std::to_string(r.omitted.scan),
                       std::to_string(r.baseline.application_cycles()),
                       bench::row_status(r.timed_out())});
        json.add(suite[i].name, outcome.value.wall_ms,
                 r.restoration.gate_evals + r.omission.gate_evals, r.translated.total,
                 r.omitted.total, r.timed_out(), &r.stages);
        total_omit += r.omitted.total;
        total_base += r.baseline.application_cycles();
      });
  if (total_base > 0)
    std::cout << "\nsuite totals: translated+compacted = " << total_omit
              << " cycles, complete-scan baseline = " << total_base << " cycles ("
              << format_pct(100.0 * static_cast<double>(total_omit) /
                            static_cast<double>(total_base))
              << "% of baseline)\n";
  return bench::finish_suite(json, args, rows);
}
