// Determinism of the suite executor (DESIGN.md §5d): a mini-suite run
// through run_suite_generate_and_compact / run_suite_translate_and_compact
// must produce identical reports — down to the rendered Table 5/6 rows and
// the formatted sequence tables — when run twice at the same thread count
// and when run at different thread counts. Per-circuit tasks land in
// task-indexed slots, so the merge order is the suite order by construction;
// these tests pin the contents too.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "util/thread_pool.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

struct PoolGuard {
  explicit PoolGuard(std::size_t n) { ThreadPool::set_global_threads(n); }
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

std::vector<SuiteEntry> mini_suite() {
  return {*find_suite_entry("s27"), *find_suite_entry("b01"), *find_suite_entry("b02")};
}

/// The reports of a suite run in which no circuit may fail.
template <typename R>
std::vector<R> reports(const std::vector<TaskOutcome<R>>& outcomes) {
  std::vector<R> out;
  for (const TaskOutcome<R>& o : outcomes) {
    EXPECT_FALSE(o.failed()) << o.failure->circuit << ": " << o.failure->what;
    out.push_back(o.value);
  }
  return out;
}

/// Render the Table-5 + Table-6 cells of one report the way the bench
/// binaries do; comparing the rendered strings catches any divergence a
/// field-by-field comparison of doubles might round away.
std::string render_rows(const std::vector<GenerateCompactReport>& reports) {
  TextTable t5({"circ", "inp", "stvr", "faults", "total", "fcov", "funct", "redund", "eff"});
  TextTable t6({"circ", "test.total", "test.scan", "restor.total", "restor.scan", "omit.total",
                "omit.scan", "ext", "base.cyc"});
  for (const GenerateCompactReport& r : reports) {
    const AtpgResult& a = r.atpg;
    t5.add_row({r.circuit, std::to_string(r.num_inputs), std::to_string(r.num_dffs),
                std::to_string(a.num_faults), std::to_string(a.detected),
                format_pct(a.fault_coverage()), std::to_string(a.detected_by_scan_knowledge),
                std::to_string(a.proved_redundant), ""});
    t6.add_row({r.circuit, std::to_string(r.raw.total), std::to_string(r.raw.scan),
                std::to_string(r.restored.total), std::to_string(r.restored.scan),
                std::to_string(r.omitted.total), std::to_string(r.omitted.scan),
                std::to_string(r.extra_detected), std::to_string(r.baseline.application_cycles())});
  }
  return t5.to_string() + "\n" + t6.to_string();
}

void expect_same(const std::vector<GenerateCompactReport>& got,
                 const std::vector<GenerateCompactReport>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("circuit " + want[i].circuit);
    EXPECT_EQ(got[i].circuit, want[i].circuit);
    EXPECT_EQ(got[i].atpg.sequence, want[i].atpg.sequence);
    EXPECT_EQ(got[i].restoration.sequence, want[i].restoration.sequence);
    EXPECT_EQ(got[i].omission.sequence, want[i].omission.sequence);
    EXPECT_EQ(got[i].atpg.gate_evals, want[i].atpg.gate_evals);
    EXPECT_EQ(got[i].extra_detected, want[i].extra_detected);
    EXPECT_EQ(got[i].baseline.application_cycles(), want[i].baseline.application_cycles());
  }
  EXPECT_EQ(render_rows(got), render_rows(want));
}

TEST(PipelineDeterminism, GenerateSuiteIdenticalAcrossThreadCounts) {
  const auto suite = mini_suite();
  const PipelineConfig cfg;

  PoolGuard one(1);
  const auto want = reports(run_suite_generate_and_compact(suite, cfg));
  ASSERT_EQ(want.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i)
    EXPECT_EQ(want[i].circuit, suite[i].name);  // ordered merge

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    PoolGuard guard(threads);
    const auto got = reports(run_suite_generate_and_compact(suite, cfg));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

TEST(PipelineDeterminism, GenerateSuiteRepeatableAtFixedThreadCount) {
  const auto suite = mini_suite();
  const PipelineConfig cfg;
  PoolGuard guard(4);
  const auto first = reports(run_suite_generate_and_compact(suite, cfg));
  const auto second = reports(run_suite_generate_and_compact(suite, cfg));
  expect_same(second, first);
}

TEST(PipelineDeterminism, TranslateSuiteIdenticalAcrossThreadCounts) {
  const auto suite = mini_suite();
  const PipelineConfig cfg;

  PoolGuard one(1);
  const auto want = reports(run_suite_translate_and_compact(suite, cfg));
  ASSERT_EQ(want.size(), suite.size());

  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    PoolGuard guard(threads);
    const auto got = reports(run_suite_translate_and_compact(suite, cfg));
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("circuit " + want[i].circuit);
      EXPECT_EQ(got[i].circuit, want[i].circuit);
      EXPECT_EQ(got[i].baseline.translated, want[i].baseline.translated);
      EXPECT_EQ(got[i].restoration.sequence, want[i].restoration.sequence);
      EXPECT_EQ(got[i].omission.sequence, want[i].omission.sequence);
      EXPECT_EQ(got[i].baseline.application_cycles(), want[i].baseline.application_cycles());
    }
  }
}

TEST(PipelineDeterminism, FormattedReportsIdenticalAcrossThreadCounts) {
  // The human-readable artifacts must match too: render every compacted
  // sequence as the paper-style table and compare the full strings.
  const auto suite = mini_suite();
  PipelineConfig cfg;
  cfg.run_baseline = false;

  const auto render = [&](const std::vector<GenerateCompactReport>& reports) {
    std::string out;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const ScanCircuit sc = insert_scan(load_circuit(suite[i]));
      out += format_sequence_table(sc, reports[i].omission.sequence);
      out += "\n";
    }
    return out;
  };

  PoolGuard one(1);
  const std::string want = render(reports(run_suite_generate_and_compact(suite, cfg)));
  {
    PoolGuard guard(4);
    const std::string got = render(reports(run_suite_generate_and_compact(suite, cfg)));
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace uniscan
