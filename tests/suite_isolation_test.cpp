// Failure isolation for suite runs (DESIGN.md §5f): one poisoned circuit
// becomes a structured TaskFailure in its own slot while every other
// circuit's report stays bit-identical to a clean run — at any thread count.
// Failures are injected deterministically via UNISCAN_FAULT_INJECT.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "util/thread_pool.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

/// Scoped UNISCAN_FAULT_INJECT setting; always unset on exit so one test's
/// poison cannot leak into the next.
class ScopedInjection {
 public:
  explicit ScopedInjection(const std::string& spec) {
    ::setenv("UNISCAN_FAULT_INJECT", spec.c_str(), /*overwrite=*/1);
  }
  ~ScopedInjection() { ::unsetenv("UNISCAN_FAULT_INJECT"); }
};

std::vector<SuiteEntry> mini_suite() {
  return {*find_suite_entry("s27"), *find_suite_entry("b01"), *find_suite_entry("b02")};
}

class SuiteIsolation : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("UNISCAN_FAULT_INJECT");
    ThreadPool::set_global_threads(1);
  }
};

TEST_F(SuiteIsolation, CleanRunHasNoFailures) {
  const auto rows = run_suite_generate_and_compact(mini_suite());
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    EXPECT_FALSE(row.failed());
    EXPECT_GT(row.value.atpg.detected, 0u);
    EXPECT_FALSE(row.value.timed_out());
  }
}

TEST_F(SuiteIsolation, InjectedFailureIsIsolatedAndOtherRowsBitIdentical) {
  const auto suite = mini_suite();
  const auto clean = run_suite_generate_and_compact(suite);
  ASSERT_EQ(clean.size(), 3u);

  const ScopedInjection poison("b01:atpg");
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::set_global_threads(threads);
    const auto rows = run_suite_generate_and_compact(suite);
    ASSERT_EQ(rows.size(), 3u);

    // The poisoned circuit fails with a structured, stage-tagged record.
    ASSERT_TRUE(rows[1].failed());
    EXPECT_EQ(rows[1].failure->circuit, "b01");
    EXPECT_EQ(rows[1].failure->stage, "atpg");
    EXPECT_NE(rows[1].failure->what.find("injected fault"), std::string::npos);

    // The healthy circuits are bit-identical to the clean run.
    for (const std::size_t i : {0u, 2u}) {
      ASSERT_FALSE(rows[i].failed()) << suite[i].name;
      EXPECT_EQ(rows[i].value.atpg.sequence, clean[i].value.atpg.sequence) << suite[i].name;
      EXPECT_EQ(rows[i].value.atpg.detected, clean[i].value.atpg.detected) << suite[i].name;
      EXPECT_EQ(rows[i].value.omission.sequence, clean[i].value.omission.sequence)
          << suite[i].name;
    }
  }
}

TEST_F(SuiteIsolation, WildcardStageKillsFirstStageOfTheCircuit) {
  const ScopedInjection poison("b02:*");
  const auto rows = run_suite_generate_and_compact(mini_suite());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_FALSE(rows[0].failed());
  EXPECT_FALSE(rows[1].failed());
  ASSERT_TRUE(rows[2].failed());
  EXPECT_EQ(rows[2].failure->circuit, "b02");
  EXPECT_EQ(rows[2].failure->stage, "load");  // the flow's first stage
}

TEST_F(SuiteIsolation, TranslateFlowIsolatesFailuresToo) {
  const ScopedInjection poison("b01:baseline");
  const auto rows = run_suite_translate_and_compact(mini_suite());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_FALSE(rows[0].failed());
  ASSERT_TRUE(rows[1].failed());
  EXPECT_EQ(rows[1].failure->stage, "baseline");
  EXPECT_FALSE(rows[2].failed());
  EXPECT_GT(rows[2].value.omitted.total, 0u);
}

TEST_F(SuiteIsolation, SuiteBudgetAnchoredOnceProducesTimedOutNotFailed) {
  // A pre-expired suite budget must DEGRADE (timed_out rows with verified
  // partial results), never FAIL: no exceptions, no TaskFailure slots.
  PipelineConfig cfg;
  cfg.time_budget_secs = 1e-9;
  const auto rows = run_suite_generate_and_compact(mini_suite(), cfg);
  ASSERT_EQ(rows.size(), 3u);
  for (const auto& row : rows) {
    ASSERT_FALSE(row.failed());
    EXPECT_TRUE(row.value.timed_out());
    EXPECT_EQ(row.value.atpg.proved_redundant, 0u);
  }
}

}  // namespace
}  // namespace uniscan
