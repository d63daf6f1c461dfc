// High-level flows: everything the paper's experiments do, one call each.
//
//  * run_generate_and_compact — Section 2 generation on C_scan, then [23]
//    restoration, then [22] omission (Tables 5 and 6).
//  * run_translate_and_compact — baseline complete-scan test set, Section-3
//    translation, then the same two compactions (Table 7).
#pragma once

#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "atpg/seq_atpg.hpp"
#include "baseline/scan_testset_gen.hpp"
#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "netlist/netlist.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "scan/scan_insertion.hpp"
#include "translate/translation.hpp"
#include "util/cancel.hpp"
#include "util/fault_inject.hpp"
#include "util/thread_pool.hpp"
#include "workloads/suite.hpp"

namespace uniscan {

/// Vector counts of a unified sequence: total and how many hold scan_sel = 1
/// (the paper reports both in Tables 6 and 7).
struct SequenceStats {
  std::size_t total = 0;
  std::size_t scan = 0;
};

SequenceStats sequence_stats(const ScanCircuit& sc, const TestSequence& seq);

struct PipelineConfig {
  AtpgOptions atpg;
  RestorationOptions restoration;
  OmissionOptions omission;
  BaselineOptions baseline;
  bool run_baseline = true;  // generate the "[26]"-style comparison column

  // ---- deadline / failure policy (DESIGN.md §5f) ---------------------------
  /// Whole-run wall-clock budget in seconds (0 = unlimited). In a suite run
  /// the deadline is anchored ONCE at suite start and shared by every
  /// circuit; in a single-circuit run it covers that circuit's flow.
  double time_budget_secs = 0;
  /// Per-circuit budget in seconds (0 = unlimited), anchored when the
  /// circuit's flow starts. Combines with `time_budget_secs`: whichever
  /// deadline fires first cancels the work.
  double per_circuit_budget_secs = 0;
  /// Externally supplied parent token (e.g. a Ctrl-C handler). Budgets
  /// derive children from it, so it cancels everything regardless of them.
  CancelToken cancel;
};

/// Structured record of one circuit task that failed: which circuit, which
/// pipeline stage raised, and the exception text. Rendered as a FAILED row
/// by the table binaries and as a `failures[]` entry in bench JSON.
struct TaskFailure {
  std::string circuit;
  std::string stage;  // "unknown" when the exception carried no stage tag
  std::string what;
};

/// Exception wrapper that tags an escaping error with the pipeline stage it
/// came from, so suite isolation can report WHERE a circuit failed.
class StageError : public std::runtime_error {
 public:
  StageError(std::string stage, const std::string& what)
      : std::runtime_error(what), stage_(std::move(stage)) {}
  const std::string& stage() const noexcept { return stage_; }

 private:
  std::string stage_;
};

/// Run one pipeline stage: fire the deterministic fault-injection hook
/// (UNISCAN_FAULT_INJECT=<circuit>:<stage>), then the stage body; any
/// escaping std::exception is rethrown as StageError tagged with `stage`.
/// Already-tagged errors from nested stages pass through unchanged.
template <typename Fn>
auto run_stage(const std::string& circuit, const char* stage, Fn&& fn) {
  const obs::TraceSpan span(stage, circuit);
  try {
    maybe_inject_fault(circuit, stage);
    return fn();
  } catch (const StageError&) {
    throw;
  } catch (const std::exception& e) {
    throw StageError(stage, e.what());
  }
}

/// One row of Tables 5+6.
struct GenerateCompactReport {
  std::string circuit;
  std::size_t num_inputs = 0;  // C_scan inputs (paper's `inp`, includes scan lines)
  std::size_t num_dffs = 0;
  AtpgResult atpg;

  SequenceStats raw, restored, omitted;
  CompactionResult restoration;
  CompactionResult omission;
  /// Faults detected by the final compacted sequence that the generated
  /// sequence did not detect (Table 6 `ext det`).
  std::size_t extra_detected = 0;

  bool baseline_run = false;
  BaselineResult baseline;  // valid when baseline_run

  /// Per-stage wall time and counter deltas, in execution order (the bench
  /// JSON's `stages` rows). Deltas are exact: a circuit's whole flow runs on
  /// one pool worker (nested fan-out is inline), so the worker-shard scope
  /// sees exactly this circuit's work.
  std::vector<obs::StageStat> stages;

  /// True when any stage's deadline fired: the report holds valid, verified
  /// partial results (best-so-far sequence, less-compacted selection).
  bool timed_out() const {
    return atpg.timed_out || restoration.timed_out || omission.timed_out ||
           (baseline_run && baseline.timed_out);
  }
};

GenerateCompactReport run_generate_and_compact(const Netlist& c, const PipelineConfig& config = {});

/// One row of Table 7.
struct TranslateCompactReport {
  std::string circuit;
  BaselineResult baseline;
  SequenceStats translated, restored, omitted;
  CompactionResult restoration;
  CompactionResult omission;

  /// Per-stage wall time and counter deltas (see GenerateCompactReport).
  std::vector<obs::StageStat> stages;

  /// True when any stage's deadline fired (partial but consistent results).
  bool timed_out() const {
    return baseline.timed_out || restoration.timed_out || omission.timed_out;
  }
};

TranslateCompactReport run_translate_and_compact(const Netlist& c, const PipelineConfig& config = {});

/// Result slot of one suite task: the value when the task finished, or the
/// failure record when it threw. Exactly one of the two is meaningful;
/// `value` is default-constructed on failure.
template <typename R>
struct TaskOutcome {
  R value{};
  std::optional<TaskFailure> failure;

  bool failed() const noexcept { return failure.has_value(); }
};

/// Anchor a suite-wide `time_budget_secs` ONCE: the returned config carries
/// the started deadline as its parent token (and a zeroed budget), so every
/// circuit task shares a single clock instead of each re-starting it. The
/// suite flows below call this themselves; table binaries that fan out with
/// their own lambdas must call it before the fan-out.
PipelineConfig anchor_suite_budget(const PipelineConfig& config);

/// run_suite_tasks' default emission: ignore every row.
struct NoEmit {
  template <typename R>
  void operator()(std::size_t, const TaskOutcome<R>&) const noexcept {}
};

/// The suite executor. Fans `fn(index)` for every suite entry across
/// ThreadPool::global() and returns one TaskOutcome per entry, in suite
/// order. Each result is written only into its task-indexed slot, so the
/// outcomes are bit-identical at any thread count (the pool's determinism
/// contract, DESIGN.md §5d); issued from inside a pool task, the fan-out
/// degenerates to an inline loop.
///
/// Failures are isolated: a task that throws is captured into its own
/// slot's TaskFailure (stage-tagged when the error is a StageError) and the
/// other entries complete normally (DESIGN.md §5f).
///
/// Emission streams: `emit(index, outcome)` is called for every slot, in
/// suite order, as soon as the completed prefix grows, so a long run under
/// --time-budget shows its finished rows while the stragglers still compute.
/// Emission is keyed on slot index, never on completion order. `emit` runs
/// under an internal mutex on whichever worker finished the
/// prefix-extending task; keep it cheap (format + print one row).
template <typename Fn, typename Emit = NoEmit>
auto run_suite_tasks(const std::vector<SuiteEntry>& suite, Fn&& fn, Emit&& emit = {}) {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  const obs::TraceSpan span("suite");
  std::vector<TaskOutcome<R>> out(suite.size());
  std::vector<char> done(suite.size(), 0);
  std::mutex mu;
  std::size_t next_to_emit = 0;
  ThreadPool::global().parallel_for(suite.size(), [&](std::size_t task, std::size_t) {
    try {
      out[task].value = fn(task);
    } catch (const StageError& e) {
      out[task].failure = TaskFailure{suite[task].name, e.stage(), e.what()};
    } catch (const std::exception& e) {
      out[task].failure = TaskFailure{suite[task].name, "unknown", e.what()};
    } catch (...) {
      out[task].failure = TaskFailure{suite[task].name, "unknown", "non-standard exception"};
    }
    const std::lock_guard<std::mutex> lock(mu);
    done[task] = 1;
    while (next_to_emit < out.size() && done[next_to_emit]) {
      emit(next_to_emit, out[next_to_emit]);
      ++next_to_emit;
    }
  });
  return out;
}

/// Per-circuit parallel versions of the two flows over run_suite_tasks: one
/// isolated, deadline-aware task per suite entry. A suite-wide
/// `time_budget_secs` is anchored ONCE here (not per circuit);
/// `per_circuit_budget_secs` is anchored inside each circuit's flow.
std::vector<TaskOutcome<GenerateCompactReport>> run_suite_generate_and_compact(
    const std::vector<SuiteEntry>& suite, const PipelineConfig& config = {},
    const std::string& bench_dir = {});
std::vector<TaskOutcome<TranslateCompactReport>> run_suite_translate_and_compact(
    const std::vector<SuiteEntry>& suite, const PipelineConfig& config = {},
    const std::string& bench_dir = {});

}  // namespace uniscan
