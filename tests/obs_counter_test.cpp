// Counter-equivalence tier for the telemetry registry (DESIGN.md §5g): the
// process-wide counter totals must be bit-identical at any thread count.
// The deterministic fail-fast schedule (sim/fault_sim.hpp
// run_fail_fast_waves: waves of 1, 2, 4, 8, ... batches, fail flags read
// only between waves) and the omission engine's last-failure-first order
// (the failure it remembers is the lowest failing position of a wave) make
// the set of executed batch advances, and therefore every counter, a pure
// function of the input, so these tests compare EXACT equality of whole
// CounterArrays, not tolerances. The small suite has at most two batches a
// circuit; the Table 7 s298 case below reaches the later waves.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/uniscan.hpp"

namespace uniscan {
namespace {

struct PoolGuard {
  explicit PoolGuard(std::size_t n) { ThreadPool::set_global_threads(n); }
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

const std::size_t kThreadCounts[] = {1, 2, 4, 8};

std::vector<SuiteEntry> small_suite() {
  return {*find_suite_entry("s27"), *find_suite_entry("b01"), *find_suite_entry("b02")};
}

/// Totals of the full stuck-at flow (generation + both compactions +
/// verification) over the small suite at `threads` workers.
obs::CounterArray stuck_at_totals(std::size_t threads) {
  const PoolGuard pool(threads);
  obs::reset();
  PipelineConfig cfg;
  cfg.run_baseline = false;
  run_suite_generate_and_compact(small_suite(), cfg);
  return obs::totals();
}

/// Totals of the transition-fault flow (table8's shape) at `threads`.
obs::CounterArray transition_totals(std::size_t threads) {
  const PoolGuard pool(threads);
  obs::reset();
  const auto suite = small_suite();
  run_suite_tasks(suite, [&](std::size_t i) {
    const ScanCircuit sc = insert_scan(load_circuit(suite[i]));
    const auto faults = enumerate_transition_faults(sc.netlist);
    const TransitionAtpgResult r = generate_transition_tests(sc, faults, {});
    const CompactionResult rest = restoration_compact(sc.netlist, r.sequence, faults, {});
    omission_compact(sc.netlist, rest.sequence, faults, {});
    return 0;
  });
  return obs::totals();
}

std::string diff_string(const obs::CounterArray& a, const obs::CounterArray& b) {
  std::string out;
  for (std::size_t i = 0; i < obs::kNumCounters; ++i)
    if (a[i] != b[i])
      out += std::string(obs::counter_name(static_cast<obs::Counter>(i))) + ": " +
             std::to_string(a[i]) + " vs " + std::to_string(b[i]) + "  ";
  return out;
}

TEST(ObsCounters, StuckAtTotalsBitIdenticalAcrossThreadCounts) {
  const obs::CounterArray base = stuck_at_totals(1);
  EXPECT_GT(base[std::size_t(obs::Counter::GateEvals)], 0u);
  EXPECT_GT(base[std::size_t(obs::Counter::OmissionTrials)], 0u);
  for (std::size_t t : kThreadCounts) {
    const obs::CounterArray got = stuck_at_totals(t);
    EXPECT_EQ(got, base) << "threads=" << t << ": " << diff_string(got, base);
  }
}

TEST(ObsCounters, TransitionTotalsBitIdenticalAcrossThreadCounts) {
  const obs::CounterArray base = transition_totals(1);
  EXPECT_GT(base[std::size_t(obs::Counter::GateEvals)], 0u);
  for (std::size_t t : kThreadCounts) {
    const obs::CounterArray got = transition_totals(t);
    EXPECT_EQ(got, base) << "threads=" << t << ": " << diff_string(got, base);
  }
}

/// Totals of omission alone on the Table 7 s298 sequence (a translated,
/// restored complete-scan test set; eleven 63-fault batches) at `threads`.
obs::CounterArray translated_omission_totals(std::size_t threads) {
  static const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("s298")));
  static const FaultList fl = FaultList::collapsed(sc.netlist);
  static const TestSequence seq =
      restoration_compact(sc.netlist, generate_baseline_tests(sc, fl, {}).translated,
                          fl.faults())
          .sequence;
  const PoolGuard pool(threads);
  obs::reset();
  omission_compact(sc.netlist, seq, fl.faults(), {});
  return obs::totals();
}

TEST(ObsCounters, TranslatedOmissionTotalsBitIdenticalAcrossThreadCounts) {
  const obs::CounterArray base = translated_omission_totals(1);
  EXPECT_GT(base[std::size_t(obs::Counter::OmissionTrials)], 0u);
  EXPECT_GT(base[std::size_t(obs::Counter::BatchesRun)], 0u);
  for (std::size_t t : kThreadCounts) {
    const obs::CounterArray got = translated_omission_totals(t);
    EXPECT_EQ(got, base) << "threads=" << t << ": " << diff_string(got, base);
  }
}

// ---------------------------------------------------------------------------
// Stability under fault injection: a failed stage contributes no per-stage
// rows, and the healthy circuits' per-stage counter rows are unchanged from
// a clean run (suite isolation keeps their work bit-identical).

struct IsolatedRun {
  std::vector<TaskOutcome<GenerateCompactReport>> outcomes;
  obs::CounterArray totals{};
};

IsolatedRun run_isolated(std::size_t threads) {
  const PoolGuard pool(threads);
  obs::reset();
  PipelineConfig cfg;
  cfg.run_baseline = false;
  IsolatedRun r;
  r.outcomes = run_suite_generate_and_compact(small_suite(), cfg);
  r.totals = obs::totals();
  return r;
}

struct InjectGuard {
  explicit InjectGuard(const char* spec) { ::setenv("UNISCAN_FAULT_INJECT", spec, 1); }
  ~InjectGuard() { ::unsetenv("UNISCAN_FAULT_INJECT"); }
};

TEST(ObsCounters, FaultInjectionLeavesHealthyRowsUnchanged) {
  const IsolatedRun clean = run_isolated(1);
  for (const auto& o : clean.outcomes) ASSERT_FALSE(o.failed());

  const InjectGuard inject("b01:atpg");
  const IsolatedRun injected = run_isolated(1);

  ASSERT_EQ(injected.outcomes.size(), clean.outcomes.size());
  for (std::size_t i = 0; i < injected.outcomes.size(); ++i) {
    if (small_suite()[i].name == "b01") {
      EXPECT_TRUE(injected.outcomes[i].failed());
      // The aborted circuit's report is the default-constructed slot: no
      // stage rows survive from the failed flow.
      EXPECT_TRUE(injected.outcomes[i].value.stages.empty());
      continue;
    }
    ASSERT_FALSE(injected.outcomes[i].failed());
    const auto& got = injected.outcomes[i].value.stages;
    const auto& want = clean.outcomes[i].value.stages;
    ASSERT_EQ(got.size(), want.size()) << small_suite()[i].name;
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s].name, want[s].name);
      EXPECT_EQ(got[s].counters, want[s].counters)
          << small_suite()[i].name << "/" << got[s].name << ": "
          << diff_string(got[s].counters, want[s].counters);
    }
  }
}

TEST(ObsCounters, FaultInjectionTotalsStableAcrossThreadCounts) {
  const InjectGuard inject("b01:atpg");
  const IsolatedRun base = run_isolated(1);
  for (std::size_t t : kThreadCounts) {
    const IsolatedRun got = run_isolated(t);
    EXPECT_EQ(got.totals, base.totals)
        << "threads=" << t << ": " << diff_string(got.totals, base.totals);
  }
}

}  // namespace
}  // namespace uniscan
