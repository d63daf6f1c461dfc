// EXTENSION (not in the paper): unified at-speed testing. The paper's
// comparison procedure [26] targets at-speed testing of scan circuits; this
// table applies the unified approach to the TRANSITION fault model directly:
// generate one sequence on C_scan (consecutive vectors are launch/capture
// pairs at speed, scan shifts included), then compact with the same
// restoration + omission machinery, all under gross-delay semantics.
// Circuits run as parallel tasks (--threads=N); rows stream to stdout in
// suite order as the completed prefix grows (run_suite_tasks).
#include "bench_common.hpp"

#include <iostream>

using namespace uniscan;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto suite = bench::select_suite(args);

  std::cout << "=== Table 8 (extension): transition-fault generation and compaction ===\n\n";

  struct Row {
    TransitionAtpgResult r;
    SequenceStats omitted;
    bool compaction_timed_out = false;
    std::uint64_t gate_evals = 0;
    double wall_ms = 0.0;
    std::vector<obs::StageStat> stages;
  };
  StreamTable table(std::cout, {"circ", "tfaults", "det", "tcov", "funct", "test.total",
                                "omit.total", "omit.scan", "status"});
  bench::BenchJson json;
  std::size_t total_faults = 0, total_detected = 0;
  const PipelineConfig cfg = anchor_suite_budget(bench::make_config(args));
  const auto rows = run_suite_tasks(
      suite,
      [&](std::size_t i) {
        const bench::Stopwatch sw;
        Row row;
        const Netlist c = run_stage(suite[i].name, "load",
                                    [&] { return load_circuit(suite[i], args.bench_dir); });
        const ScanCircuit sc = bench::timed_stage(row.stages, suite[i].name, "scan",
                                                  [&] { return insert_scan(c); });
        const auto faults =
            bench::timed_stage(row.stages, suite[i].name, "faults",
                               [&] { return enumerate_transition_faults(sc.netlist); });

        CancelToken cancel = cfg.cancel;
        if (cfg.per_circuit_budget_secs > 0)
          cancel = cancel.child(Deadline::after(cfg.per_circuit_budget_secs));

        AtpgOptions opt = cfg.atpg;
        opt.cancel = cancel;
        row.r = bench::timed_stage(row.stages, suite[i].name, "atpg",
                                   [&] { return generate_transition_tests(sc, faults, opt); });

        RestorationOptions rest_opt;
        rest_opt.cancel = cancel;
        const CompactionResult rest =
            bench::timed_stage(row.stages, suite[i].name, "restoration", [&] {
              return restoration_compact(sc.netlist, row.r.sequence, faults, rest_opt);
            });
        OmissionOptions om_opt;
        om_opt.cancel = cancel;
        const CompactionResult omit = bench::timed_stage(row.stages, suite[i].name, "omission", [&] {
          return omission_compact(sc.netlist, rest.sequence, faults, om_opt);
        });
        row.omitted = sequence_stats(sc, omit.sequence);
        row.compaction_timed_out = rest.timed_out || omit.timed_out;
        row.gate_evals = row.r.gate_evals + rest.gate_evals + omit.gate_evals;
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
        const Row& row = outcome.value;
        const TransitionAtpgResult& r = row.r;
        const bool timed_out = r.timed_out || row.compaction_timed_out;
        table.add_row({suite[i].name, std::to_string(r.num_faults), std::to_string(r.detected),
                       format_pct(r.fault_coverage()),
                       std::to_string(r.detected_by_scan_knowledge),
                       std::to_string(r.sequence.length()), std::to_string(row.omitted.total),
                       std::to_string(row.omitted.scan), bench::row_status(timed_out)});
        json.add(suite[i].name, row.wall_ms, row.gate_evals, r.sequence.length(),
                 row.omitted.total, timed_out, &row.stages, r.detected);
        if (args.scan_knowledge) json.record_sat(r.sat);
        total_faults += r.num_faults;
        total_detected += r.detected;
      });
  if (total_faults > 0)
    std::cout << "\nsuite transition coverage: "
              << format_pct(100.0 * static_cast<double>(total_detected) /
                            static_cast<double>(total_faults))
              << "% (" << total_detected << "/" << total_faults << ")\n";
  json.print_sat_summary();
  return bench::finish_suite(json, args, rows);
}
