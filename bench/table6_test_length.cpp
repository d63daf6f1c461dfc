// Regenerates the paper's Table 6: test application time of the unified
// approach. For every circuit: the generated sequence T (total vectors and
// scan_sel=1 vectors), after restoration-based compaction [23], after
// omission-based compaction [22], faults gained by compaction (`ext det`),
// and the complete-scan baseline cycles (the paper's [26] column; here our
// second-approach generator, see DESIGN.md §3). Circuits run as parallel
// tasks (--threads=N); rows stream to stdout in suite order as the
// completed prefix grows (run_suite_tasks).
#include "bench_common.hpp"

#include <iostream>

using namespace uniscan;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto suite = bench::select_suite(args);

  std::cout << "=== Table 6: test length after test generation and compaction ===\n\n";

  struct Row {
    GenerateCompactReport r;
    double wall_ms = 0.0;
  };
  StreamTable table(std::cout, {"circ", "test.total", "test.scan", "restor.total", "restor.scan",
                                "omit.total", "omit.scan", "ext", "base.cyc", "status"});
  bench::BenchJson json;
  std::size_t total_omit = 0, total_base = 0;
  SatSummary sat_total;
  const PipelineConfig cfg = anchor_suite_budget(bench::make_config(args));
  const auto rows = run_suite_tasks(
      suite,
      [&](std::size_t i) {
        const bench::Stopwatch sw;
        Row row;
        const Netlist c = run_stage(suite[i].name, "load",
                                    [&] { return load_circuit(suite[i], args.bench_dir); });
        row.r = run_generate_and_compact(c, cfg);
        row.wall_ms = sw.ms();
        return row;
      },
      [&](std::size_t i, const TaskOutcome<Row>& outcome) {
        if (outcome.failed()) {
          table.add_row({suite[i].name, "-", "-", "-", "-", "-", "-", "", "-",
                         bench::row_status(*outcome.failure)});
          json.add_failure(*outcome.failure);
          return;  // failed rows contribute nothing to the totals
        }
        const GenerateCompactReport& r = outcome.value.r;
        table.add_row({suite[i].name, std::to_string(r.raw.total), std::to_string(r.raw.scan),
                       std::to_string(r.restored.total), std::to_string(r.restored.scan),
                       std::to_string(r.omitted.total), std::to_string(r.omitted.scan),
                       r.extra_detected ? numbered("+", r.extra_detected) : "",
                       std::to_string(r.baseline.application_cycles()),
                       bench::row_status(r.timed_out())});
        json.add(suite[i].name, outcome.value.wall_ms,
                 r.atpg.gate_evals + r.restoration.gate_evals + r.omission.gate_evals, r.raw.total,
                 r.omitted.total, r.timed_out(), &r.stages);
        if (args.sat != SatMode::Off) {
          sat_total.add(r.atpg.sat);
          json.record_sat(args.sat, r.atpg.sat);
        }
        total_omit += r.omitted.total;
        total_base += r.baseline.application_cycles();
      },
      cfg.fail_fast);
  if (total_base > 0)
    std::cout << "\nsuite totals: unified+compacted = " << total_omit
              << " cycles, complete-scan baseline = " << total_base << " cycles ("
              << format_pct(100.0 * static_cast<double>(total_omit) /
                            static_cast<double>(total_base))
              << "% of baseline)\n";
  if (args.sat != SatMode::Off)
    std::cout << format_sat_summary(args.sat, sat_total) << "\n";
  return bench::finish_suite(json, args, rows);
}
