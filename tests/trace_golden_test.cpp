// Golden-trace tier for the Chrome trace_event output (DESIGN.md §5g): an
// end-to-end s27 run with tracing on must produce a well-formed trace
// (balanced B/E per lane, monotonic timestamps) whose SPAN STRUCTURE — the
// set of root-to-span name paths — matches the checked-in golden file.
// Durations and event counts are deliberately not golden: they vary run to
// run; the nesting does not.
//
// Regenerate tests/data/trace_golden_s27.txt after an intentional span
// change with UNISCAN_REGEN_GOLDEN=1 ./uniscan_tests --gtest_filter='TraceGolden.*'.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/uniscan.hpp"

#ifndef UNISCAN_TEST_DATA_DIR
#define UNISCAN_TEST_DATA_DIR ""
#endif

namespace uniscan {
namespace {

struct Event {
  char phase = 0;  // 'B' or 'E'
  int tid = -1;
  long long ts = -1;
  std::string name;  // empty for 'E'
};

/// Pull the value of `"key": <num>` out of one event line.
long long int_field(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\": ");
  if (pos == std::string::npos) return -1;
  return std::strtoll(line.c_str() + pos + key.size() + 4, nullptr, 10);
}

/// Pull the value of `"key": "<str>"` out of one event line.
std::string str_field(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\": \"");
  if (pos == std::string::npos) return {};
  const auto start = pos + key.size() + 5;
  const auto end = line.find('"', start);
  return line.substr(start, end - start);
}

/// Parse the writer's one-event-per-line format. The header/footer lines
/// are validated here too (this is what "well-formed" means for a file we
/// produce ourselves; a JSON library would add a dependency for no signal).
std::vector<Event> parse_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "{\"traceEvents\": [") << "unexpected header";
  std::vector<Event> events;
  while (std::getline(in, line)) {
    if (line.rfind("],", 0) == 0) {  // footer: otherData with the drop count
      EXPECT_NE(line.find("\"dropped_events\": 0"), std::string::npos)
          << "events were dropped; raise the buffer cap or trim spans";
      return events;
    }
    Event e;
    const std::string ph = str_field(line, "ph");
    EXPECT_EQ(ph.size(), 1u) << line;
    if (ph.size() != 1) continue;
    e.phase = ph[0];
    e.tid = static_cast<int>(int_field(line, "tid"));
    e.ts = int_field(line, "ts");
    e.name = str_field(line, "name");
    EXPECT_TRUE(e.phase == 'B' || e.phase == 'E') << line;
    EXPECT_GE(e.tid, 0) << line;
    EXPECT_GE(e.ts, 0) << line;
    if (e.phase == 'B') {
      EXPECT_FALSE(e.name.empty()) << line;
    }
    events.push_back(std::move(e));
  }
  ADD_FAILURE() << "trace file has no footer line";
  return events;
}

/// Replay the per-tid span stacks: every E must close a B on the same lane,
/// every lane must end empty, and timestamps per lane must be monotonic.
/// Returns the sorted unique root-to-span paths ("suite/circuit/atpg/podem").
std::vector<std::string> span_paths(const std::vector<Event>& events) {
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, long long> last_ts;
  std::set<std::string> paths;
  for (const Event& e : events) {
    auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, e.ts) << "ts not monotonic on tid " << e.tid;
    }
    last_ts[e.tid] = e.ts;
    auto& stack = stacks[e.tid];
    if (e.phase == 'B') {
      stack.push_back(e.name);
      std::string path;
      for (const std::string& s : stack) path += (path.empty() ? "" : "/") + s;
      paths.insert(std::move(path));
    } else {
      EXPECT_FALSE(stack.empty()) << "E without matching B on tid " << e.tid;
      if (!stack.empty()) stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks)
    EXPECT_TRUE(stack.empty()) << stack.size() << " unclosed span(s) on tid " << tid;
  return {paths.begin(), paths.end()};
}

/// One full s27 flow (generation, both compactions, verification, baseline)
/// with tracing into `path`, at one worker so every span lands on tid 0.
void traced_s27_run(const std::string& path) {
  ThreadPool::set_global_threads(1);
  obs::Tracer::start(path);
  const auto outcomes =
      run_suite_generate_and_compact({*find_suite_entry("s27")}, PipelineConfig{});
  obs::Tracer::stop_and_write();
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_FALSE(outcomes[0].failed());
}

TEST(TraceGolden, S27SpanStructureMatchesGolden) {
  const std::string trace_path = ::testing::TempDir() + "trace_golden_s27.json";
  traced_s27_run(trace_path);
  const std::vector<Event> events = parse_trace(trace_path);
  ASSERT_FALSE(events.empty());
  const std::vector<std::string> paths = span_paths(events);
  std::remove(trace_path.c_str());

  const std::string golden_path = std::string(UNISCAN_TEST_DATA_DIR) + "/trace_golden_s27.txt";
  if (std::getenv("UNISCAN_REGEN_GOLDEN")) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.is_open()) << golden_path;
    for (const std::string& p : paths) out << p << "\n";
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << golden_path
                            << " (regenerate with UNISCAN_REGEN_GOLDEN=1)";
  std::vector<std::string> want;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) want.push_back(line);
  EXPECT_EQ(paths, want) << "span structure changed; if intentional, regenerate the golden "
                            "file with UNISCAN_REGEN_GOLDEN=1";
}

TEST(TraceGolden, TraceIsBalancedAtFourWorkers) {
  // Structure golden only applies at one worker (one lane, one determinate
  // interleaving); at 4 workers we still require well-formedness: balanced
  // per-lane stacks, monotonic per-lane timestamps, nothing dropped.
  const std::string trace_path = ::testing::TempDir() + "trace_mt_s27.json";
  ThreadPool::set_global_threads(4);
  obs::Tracer::start(trace_path);
  const std::vector<SuiteEntry> suite = {*find_suite_entry("s27"), *find_suite_entry("b01"),
                                         *find_suite_entry("b02")};
  PipelineConfig cfg;
  cfg.run_baseline = false;
  const auto outcomes = run_suite_generate_and_compact(suite, cfg);
  obs::Tracer::stop_and_write();
  ThreadPool::set_global_threads(1);
  for (const auto& o : outcomes) ASSERT_FALSE(o.failed());

  const std::vector<Event> events = parse_trace(trace_path);
  ASSERT_FALSE(events.empty());
  span_paths(events);  // asserts balance + monotonicity per lane
  std::remove(trace_path.c_str());
}

TEST(TraceGolden, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(obs::Tracer::enabled());
  const obs::TraceSpan span("should_not_record");  // must be a cheap no-op
}

}  // namespace
}  // namespace uniscan
