// Regenerates the paper's Table 5: fault coverage of the Section-2 test
// generation procedure over the benchmark suite. Columns mirror the paper:
// circuit, inputs (including scan_sel/scan_inp), state variables, collapsed
// fault count, detected faults, coverage, and `funct` — faults detected only
// through the functional-level scan knowledge.
//
// Run with --no-scan-knowledge for the ablation (funct becomes 0 and
// coverage may drop). Circuits run as parallel tasks on the global pool
// (--threads=N); rows STREAM to stdout as the completed prefix of the suite
// grows (run_suite_tasks), so a long --corpus run under
// --time-budget shows its finished rows immediately — while the emitted
// order stays identical at any thread count; --json=FILE records
// per-circuit wall time and gate evaluations (BENCH_atpg.json).
#include "bench_common.hpp"

#include <iostream>

using namespace uniscan;

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);
  const auto suite = bench::select_suite(args);

  std::cout << "=== Table 5: fault coverage after test generation ===\n";
  if (!args.scan_knowledge) std::cout << "(functional scan knowledge DISABLED)\n";
  std::cout << "\n";

  struct Row {
    std::size_t inputs = 0;
    std::size_t dffs = 0;
    AtpgResult r;
    double wall_ms = 0.0;
    std::vector<obs::StageStat> stages;
  };
  // `redund` and `eff` extend the paper's columns: faults PROVED untestable
  // by any single-vector scan test, and coverage relative to the remaining
  // (possibly testable) universe.
  StreamTable table(std::cout, {"circ", "inp", "stvr", "faults", "total", "fcov", "funct",
                                "redund", "eff", "status"});
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
        const FaultList fl = bench::timed_stage(row.stages, suite[i].name, "faults",
                                                [&] { return FaultList::collapsed(sc.netlist); });

        AtpgOptions opt = cfg.atpg;
        opt.cancel = cfg.cancel;
        if (cfg.per_circuit_budget_secs > 0)
          opt.cancel = opt.cancel.child(Deadline::after(cfg.per_circuit_budget_secs));
        row.r = bench::timed_stage(row.stages, suite[i].name, "atpg",
                                   [&] { return generate_tests(sc, fl, opt); });
        row.inputs = sc.netlist.num_inputs();
        row.dffs = sc.netlist.num_dffs();
        row.wall_ms = sw.ms();
        return row;
      },
      [&](std::size_t i, const TaskOutcome<Row>& outcome) {
        if (outcome.failed()) {
          table.add_row({suite[i].name, "-", "-", "-", "-", "-", "-", "-", "-",
                         bench::row_status(*outcome.failure)});
          json.add_failure(*outcome.failure);
          return;
        }
        const Row& row = outcome.value;
        const AtpgResult& r = row.r;
        const std::size_t testable_universe = r.num_faults - r.proved_redundant;
        const double efficiency =
            testable_universe == 0
                ? 100.0
                : 100.0 * static_cast<double>(r.detected) / static_cast<double>(testable_universe);
        table.add_row({suite[i].name, std::to_string(row.inputs), std::to_string(row.dffs),
                       std::to_string(r.num_faults), std::to_string(r.detected),
                       format_pct(r.fault_coverage()), std::to_string(r.detected_by_scan_knowledge),
                       std::to_string(r.proved_redundant), format_pct(efficiency),
                       bench::row_status(r.timed_out)});
        // Generation builds the sequence from scratch: in_len 0, out_len the
        // generated vector count.
        json.add(suite[i].name, row.wall_ms, r.gate_evals, 0, r.sequence.length(), r.timed_out,
                 &row.stages);
        if (args.scan_knowledge) json.record_sat(r.sat);
        total_faults += r.num_faults;
        total_detected += r.detected;
      });
  if (total_faults > 0)
    std::cout << "\nsuite total: " << total_detected << "/" << total_faults << " ("
              << format_pct(100.0 * static_cast<double>(total_detected) /
                            static_cast<double>(total_faults))
              << "%)\n";
  json.print_sat_summary();
  return bench::finish_suite(json, args, rows);
}
