// Regenerates the paper's Table 4: the s27_scan sequence of Table 1 after
// static compaction for non-scan circuits — vector restoration [23] followed
// by vector omission [22]. The compacted sequence rearranges complete scan
// operations into limited ones.
//
// By default only s27 runs (with its full Table-4 sequence printout). With
// --full the restoration+omission pipeline additionally covers the fast
// suite's s2xx-s5xx circuits, producing one restoration_<name> and one
// omission_<name> JSON entry per circuit (BENCH_compaction.json).
#include "bench_common.hpp"

#include <iostream>

using namespace uniscan;

namespace {

/// One circuit's outcome: the summary row plus its two JSON entries.
struct CircuitRows {
  std::size_t generated = 0;
  bool generation_timed_out = false;
  CompactionResult rest, omit;
  std::vector<obs::StageStat> rest_stages, omit_stages;
  std::size_t detected = 0, total_faults = 0;  // by the compacted sequence
  std::string s27_table;  // the Table-4 sequence printout (s27 only)
};

CircuitRows run_circuit(const SuiteEntry& entry, const bench::Args& args,
                        const PipelineConfig& cfg) {
  const ScanCircuit sc = run_stage(entry.name, "scan", [&] {
    return insert_scan(run_stage(entry.name, "load",
                                 [&] { return load_circuit(entry, args.bench_dir); }));
  });
  const FaultList fl =
      run_stage(entry.name, "faults", [&] { return FaultList::collapsed(sc.netlist); });

  CancelToken cancel = cfg.cancel;
  if (cfg.per_circuit_budget_secs > 0)
    cancel = cancel.child(Deadline::after(cfg.per_circuit_budget_secs));

  AtpgOptions opt = cfg.atpg;
  opt.cancel = cancel;
  const AtpgResult gen = run_stage(entry.name, "atpg", [&] { return generate_tests(sc, fl, opt); });

  CircuitRows r;
  r.generated = gen.sequence.length();
  r.generation_timed_out = gen.timed_out;
  RestorationOptions rest_opt = cfg.restoration;
  rest_opt.cancel = cancel;
  r.rest = bench::timed_stage(r.rest_stages, entry.name, "restoration", [&] {
    return restoration_compact(sc.netlist, gen.sequence, fl.faults(), rest_opt);
  });

  OmissionOptions om_opt = cfg.omission;
  om_opt.cancel = cancel;
  r.omit = bench::timed_stage(r.omit_stages, entry.name, "omission", [&] {
    return omission_compact(sc.netlist, r.rest.sequence, fl.faults(), om_opt);
  });

  if (entry.name == "s27") {
    r.s27_table = "=== Table 4: compacted test sequence for s27_scan ===\n\n" +
                  format_sequence_table(sc, r.omit.sequence) + "\n";
  }

  FaultSimulator sim(sc.netlist);
  r.detected = sim.detected_indices(r.omit.sequence, fl.faults()).size();
  r.total_faults = fl.size();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::parse_args(argc, argv);

  // Default: the paper's s27 row. --full: the fast-suite circuits (the
  // larger paper circuits make compaction runs impractically long here);
  // --circuit/--circuits/--corpus select like the other table binaries.
  std::vector<SuiteEntry> suite;
  if (args.circuits.empty() && args.circuit.empty() && args.corpus.empty()) {
    suite = args.full ? fast_suite() : std::vector<SuiteEntry>{*find_suite_entry("s27")};
  } else {
    suite = bench::select_suite(args);
  }

  bench::BenchJson json;
  const PipelineConfig cfg = anchor_suite_budget(bench::make_config(args));
  std::string s27_table;
  // Circuits run as parallel tasks; rows and JSON entries stream in suite
  // order as the completed prefix grows. The s27 sequence printout follows
  // the summary so the streamed table is never interrupted.
  StreamTable summary(std::cout,
                      {"circuit", "generated", "restored", "omitted", "detected", "status"});
  const auto rows = run_suite_tasks(
      suite, [&](std::size_t i) { return run_circuit(suite[i], args, cfg); },
      [&](std::size_t i, const TaskOutcome<CircuitRows>& outcome) {
        const std::string& name = suite[i].name;
        if (outcome.failed()) {
          summary.add_row({name, "-", "-", "-", "-", bench::row_status(*outcome.failure)});
          json.add_failure(*outcome.failure);
          return;
        }
        const CircuitRows& r = outcome.value;
        const std::size_t restored = r.rest.sequence.length();
        const std::size_t omitted = r.omit.sequence.length();
        json.add("restoration_" + name, r.rest_stages.back().wall_ms, r.rest.gate_evals,
                 r.generated, restored, r.rest.timed_out, &r.rest_stages);
        json.add("omission_" + name, r.omit_stages.back().wall_ms, r.omit.gate_evals, restored,
                 omitted, r.omit.timed_out, &r.omit_stages);
        summary.add_row(
            {name, std::to_string(r.generated), std::to_string(restored), std::to_string(omitted),
             std::to_string(r.detected) + "/" + std::to_string(r.total_faults),
             bench::row_status(r.generation_timed_out || r.rest.timed_out || r.omit.timed_out)});
        if (!r.s27_table.empty()) s27_table = r.s27_table;
      },
      cfg.fail_fast);
  if (!s27_table.empty()) std::cout << "\n" << s27_table;
  return bench::finish_suite(json, args, rows);
}
