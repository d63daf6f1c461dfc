#include "core/pipeline.hpp"

#include <chrono>

#include "fault/fault_list.hpp"
#include "sim/fault_sim.hpp"

namespace uniscan {

SequenceStats sequence_stats(const ScanCircuit& sc, const TestSequence& seq) {
  SequenceStats s;
  s.total = seq.length();
  s.scan = seq.count_ones(sc.scan_sel_index());
  return s;
}

namespace {

/// Derive the effective cancel token of one circuit's flow: the config's
/// parent token, narrowed by the whole-run budget (when not already anchored
/// by a suite runner) and the per-circuit budget. Inert when neither budget
/// is set and no parent was supplied — zero-cost in the common case.
CancelToken derive_circuit_token(const PipelineConfig& config) {
  CancelToken tok = config.cancel;
  if (config.time_budget_secs > 0) tok = tok.child(Deadline::after(config.time_budget_secs));
  if (config.per_circuit_budget_secs > 0)
    tok = tok.child(Deadline::after(config.per_circuit_budget_secs));
  return tok;
}

/// run_stage plus a StageStat row: wall time and the counter deltas the
/// stage contributed, appended to `stages` on success. A throwing stage
/// records nothing — its circuit's report is discarded anyway (suite
/// isolation) and the per-stage counter test relies on failed stages
/// contributing no rows.
template <typename Fn>
auto timed_stage(std::vector<obs::StageStat>& stages, const std::string& circuit,
                 const char* stage, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  using R = decltype(fn());
  const Clock::time_point t0 = Clock::now();
  const obs::CounterScope scope;
  const auto record = [&] {
    obs::StageStat st;
    st.name = stage;
    st.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    st.counters = scope.deltas();
    stages.push_back(std::move(st));
  };
  if constexpr (std::is_void_v<R>) {
    run_stage(circuit, stage, std::forward<Fn>(fn));
    record();
  } else {
    auto result = run_stage(circuit, stage, std::forward<Fn>(fn));
    record();
    return result;
  }
}

}  // namespace

PipelineConfig anchor_suite_budget(const PipelineConfig& config) {
  PipelineConfig cfg = config;
  if (cfg.time_budget_secs > 0) {
    cfg.cancel = cfg.cancel.child(Deadline::after(cfg.time_budget_secs));
    cfg.time_budget_secs = 0;
  }
  return cfg;
}

GenerateCompactReport run_generate_and_compact(const Netlist& c, const PipelineConfig& config) {
  GenerateCompactReport report;
  report.circuit = c.name();
  const obs::TraceSpan span("circuit", report.circuit);
  const CancelToken cancel = derive_circuit_token(config);

  const ScanCircuit sc =
      timed_stage(report.stages, report.circuit, "scan", [&] { return insert_scan(c); });
  report.num_inputs = sc.netlist.num_inputs();
  report.num_dffs = sc.netlist.num_dffs();

  const FaultList faults = timed_stage(report.stages, report.circuit, "faults",
                                       [&] { return FaultList::collapsed(sc.netlist); });

  AtpgOptions atpg_opt = config.atpg;
  atpg_opt.cancel = cancel;
  report.atpg = timed_stage(report.stages, report.circuit, "atpg",
                            [&] { return generate_tests(sc, faults, atpg_opt); });
  report.raw = sequence_stats(sc, report.atpg.sequence);

  RestorationOptions rest_opt = config.restoration;
  rest_opt.cancel = cancel;
  report.restoration = timed_stage(report.stages, report.circuit, "restoration", [&] {
    return restoration_compact(sc.netlist, report.atpg.sequence, faults.faults(), rest_opt);
  });
  report.restored = sequence_stats(sc, report.restoration.sequence);

  OmissionOptions om_opt = config.omission;
  om_opt.cancel = cancel;
  report.omission = timed_stage(report.stages, report.circuit, "omission", [&] {
    return omission_compact(sc.netlist, report.restoration.sequence, faults.faults(), om_opt);
  });
  report.omitted = sequence_stats(sc, report.omission.sequence);

  // ext det: final compacted sequence vs. the generated sequence.
  timed_stage(report.stages, report.circuit, "verify", [&] {
    FaultSimulator sim(sc.netlist);
    const auto final_det = sim.run(report.omission.sequence, faults.faults());
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (final_det[i].detected && !report.atpg.detection[i].detected) ++report.extra_detected;
  });

  if (config.run_baseline) {
    BaselineOptions base_opt = config.baseline;
    base_opt.cancel = cancel;
    report.baseline = timed_stage(report.stages, report.circuit, "baseline",
                                  [&] { return generate_baseline_tests(sc, faults, base_opt); });
    report.baseline_run = true;
  }
  return report;
}

TranslateCompactReport run_translate_and_compact(const Netlist& c, const PipelineConfig& config) {
  TranslateCompactReport report;
  report.circuit = c.name();
  const obs::TraceSpan span("circuit", report.circuit);
  const CancelToken cancel = derive_circuit_token(config);

  const ScanCircuit sc =
      timed_stage(report.stages, report.circuit, "scan", [&] { return insert_scan(c); });
  const FaultList faults = timed_stage(report.stages, report.circuit, "faults",
                                       [&] { return FaultList::collapsed(sc.netlist); });

  BaselineOptions base_opt = config.baseline;
  base_opt.cancel = cancel;
  report.baseline = timed_stage(report.stages, report.circuit, "baseline",
                                [&] { return generate_baseline_tests(sc, faults, base_opt); });
  // The baseline's bookkeeping sequence IS the Section-3 translation of its
  // test set (fully specified), so it is the compaction input.
  const TestSequence& translated = report.baseline.translated;
  timed_stage(report.stages, report.circuit, "translate",
              [&] { report.translated = sequence_stats(sc, translated); });

  RestorationOptions rest_opt = config.restoration;
  rest_opt.cancel = cancel;
  report.restoration = timed_stage(report.stages, report.circuit, "restoration", [&] {
    return restoration_compact(sc.netlist, translated, faults.faults(), rest_opt);
  });
  report.restored = sequence_stats(sc, report.restoration.sequence);

  OmissionOptions om_opt = config.omission;
  om_opt.cancel = cancel;
  report.omission = timed_stage(report.stages, report.circuit, "omission", [&] {
    return omission_compact(sc.netlist, report.restoration.sequence, faults.faults(), om_opt);
  });
  report.omitted = sequence_stats(sc, report.omission.sequence);
  return report;
}

std::vector<TaskOutcome<GenerateCompactReport>> run_suite_generate_and_compact(
    const std::vector<SuiteEntry>& suite, const PipelineConfig& config,
    const std::string& bench_dir) {
  const PipelineConfig cfg = anchor_suite_budget(config);
  return run_suite_tasks(suite, [&](std::size_t i) {
    const Netlist c =
        run_stage(suite[i].name, "load", [&] { return load_circuit(suite[i], bench_dir); });
    return run_generate_and_compact(c, cfg);
  });
}

std::vector<TaskOutcome<TranslateCompactReport>> run_suite_translate_and_compact(
    const std::vector<SuiteEntry>& suite, const PipelineConfig& config,
    const std::string& bench_dir) {
  const PipelineConfig cfg = anchor_suite_budget(config);
  return run_suite_tasks(suite, [&](std::size_t i) {
    const Netlist c =
        run_stage(suite[i].name, "load", [&] { return load_circuit(suite[i], bench_dir); });
    return run_translate_and_compact(c, cfg);
  });
}

}  // namespace uniscan
