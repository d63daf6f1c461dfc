// Shared helpers for the experiment binaries (bench/table*_*.cpp).
//
// Flags understood by the table binaries:
//   --full               run the whole paper suite (default: fast suite)
//   --bench-dir=DIR      load real .bench files from DIR when present
//   --seed=N             ATPG seed
//   --no-scan-knowledge  disable the Section-2 functional scan knowledge
//   --x-fill=random|zero translation x-fill policy
//   --threads=N          size of the global fault-simulation thread pool
//   --json=FILE          also write machine-readable results to FILE
//   --circuits=A,B,C     run an explicit comma-separated subset of the suite
//   --corpus=TIER        run the corpus registry instead of the paper suite:
//                        fast | mid | large | all (circuits come from
//                        corpus/manifest.tsv; hash-verified on load);
//                        combine with --circuits to narrow by name
//   --time-budget=SECS   suite-wide wall-clock budget (graceful degradation)
//   --per-circuit-budget=SECS  per-circuit wall-clock budget
//   --trace=FILE         emit a Chrome trace_event JSON of the run to FILE
//
// A numeric flag takes a plain non-negative decimal value (--threads at
// most ThreadPool::kMaxThreads); anything else is a usage error (exit 2).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/exit_codes.hpp"
#include "core/uniscan.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"

namespace uniscan::bench {

struct Args {
  bool full = false;
  bool scan_knowledge = true;
  std::vector<std::string> circuits;  // --circuits=A,B,C subset
  std::string bench_dir;
  std::string json;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  XFillPolicy fill = XFillPolicy::RandomFill;
  double time_budget_secs = 0;
  double per_circuit_budget_secs = 0;
  std::string trace;   // --trace=FILE: Chrome trace_event output
  std::string corpus;  // --corpus=fast|mid|large|all
};

/// Value of a strictly parsed numeric flag; a rejected value (already
/// reported by the parser) is a usage error.
template <class T>
T flag_or_exit(std::optional<T> v) {
  if (!v) std::exit(kExitUsage);
  return *v;
}

inline Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") a.full = true;
    else if (arg == "--no-scan-knowledge") a.scan_knowledge = false;
    else if (arg.rfind("--bench-dir=", 0) == 0) a.bench_dir = arg.substr(12);
    else if (arg.rfind("--json=", 0) == 0) a.json = arg.substr(7);
    else if (arg.rfind("--seed=", 0) == 0) a.seed = flag_or_exit(flag_uint(arg));
    else if (arg.rfind("--threads=", 0) == 0)
      a.threads = flag_or_exit(flag_uint(arg, ThreadPool::kMaxThreads));
    else if (arg == "--x-fill=zero") a.fill = XFillPolicy::ZeroFill;
    else if (arg == "--x-fill=random") a.fill = XFillPolicy::RandomFill;
    else if (arg.rfind("--circuits=", 0) == 0) {
      std::string rest = arg.substr(11);
      std::size_t start = 0;
      while (start <= rest.size()) {
        const std::size_t comma = rest.find(',', start);
        const std::size_t end = comma == std::string::npos ? rest.size() : comma;
        if (end > start) a.circuits.push_back(rest.substr(start, end - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (arg.rfind("--corpus=", 0) == 0) {
      a.corpus = arg.substr(9);
      CorpusTier tier;
      if (a.corpus != "all" && !parse_corpus_tier(a.corpus, tier)) {
        std::fprintf(stderr, "unknown corpus tier: %s (fast|mid|large|all)\n", arg.c_str() + 9);
        std::exit(2);
      }
    } else if (arg.rfind("--time-budget=", 0) == 0)
      a.time_budget_secs = flag_or_exit(flag_number(arg));
    else if (arg.rfind("--per-circuit-budget=", 0) == 0)
      a.per_circuit_budget_secs = flag_or_exit(flag_number(arg));
    else if (arg.rfind("--trace=", 0) == 0) a.trace = arg.substr(8);
    else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (a.threads == 0) a.threads = 1;
  ThreadPool::set_global_threads(a.threads);
  if (!a.trace.empty()) obs::Tracer::start(a.trace);
  return a;
}

/// Wall-clock stopwatch for the experiment binaries.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// run_stage wrapped with a Stopwatch + CounterScope: appends a StageStat
/// row (wall time, counter deltas) to `stages` on success and returns the
/// stage's value. Bench-side mirror of the pipeline's internal per-stage
/// recording, for table binaries that drive stages by hand.
template <typename Fn>
auto timed_stage(std::vector<obs::StageStat>& stages, const std::string& circuit,
                 const char* stage, Fn&& fn) {
  const Stopwatch sw;
  const obs::CounterScope scope;
  if constexpr (std::is_void_v<decltype(fn())>) {
    run_stage(circuit, stage, std::forward<Fn>(fn));
    stages.push_back(obs::StageStat{stage, sw.ms(), scope.deltas()});
  } else {
    auto result = run_stage(circuit, stage, std::forward<Fn>(fn));
    stages.push_back(obs::StageStat{stage, sw.ms(), scope.deltas()});
    return result;
  }
}

/// Render a CounterArray as a JSON object keyed by counter_name.
inline std::string counters_json(const obs::CounterArray& c) {
  std::string out = "{";
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    if (i) out += ", ";
    out += "\"";
    out += obs::counter_name(static_cast<obs::Counter>(i));
    out += "\": ";
    out += std::to_string(c[i]);
  }
  out += "}";
  return out;
}

/// Collects per-row results and writes them as a JSON document (schema v2):
///   { "schema_version": 2, "threads": N, "slot_width": 64|256|512,
///     "counters": {gate_evals, batch_skips, ...},       // process totals
///     "entries": [ {name, wall_ms, gate_evals, in_len, out_len, timed_out,
///                   detected,                           // additive in v2
///                   "stages": [{name, wall_ms, counters: {...}}, ...]},
///                  ... ],
///     "failures": [ {circuit, stage, what}, ... ] }
/// The `stages` array appears on entries constructed with a per-stage
/// breakdown (v1 consumers that only read the flat fields keep working: no
/// v1 key was renamed or removed). `detected` (faults the generator
/// detected) appears only on rows of binaries that pass it (table8). The
/// failures array is always present (empty on a healthy run) so CI can
/// assert its shape unconditionally.
/// Intended for CI artifacts (BENCH_compaction.json, robustness output).
class BenchJson {
 public:
  void add(std::string name, double wall_ms, std::uint64_t gate_evals, std::size_t in_len,
           std::size_t out_len, bool timed_out = false,
           const std::vector<obs::StageStat>* stages = nullptr,
           std::optional<std::size_t> detected = std::nullopt) {
    entries_.push_back({std::move(name), wall_ms, gate_evals, in_len, out_len, timed_out,
                        detected, stages ? *stages : std::vector<obs::StageStat>{}});
  }

  void add_failure(const TaskFailure& f) { failures_.push_back(f); }
  bool has_failures() const { return !failures_.empty(); }

  /// Accumulate a circuit's SAT second-chance contribution. Once called,
  /// write() emits the additive v2 `sat` block and print_sat_summary()
  /// prints the suite total. The ATPG tables 5, 6 and 8 call it for every
  /// healthy row when the pass runs, i.e. unless --no-scan-knowledge.
  void record_sat(const SatSummary& s) {
    sat_.add(s);
    have_sat_ = true;
  }

  /// The `format_sat_summary` line of the recorded total, if any.
  void print_sat_summary() const {
    if (have_sat_) std::printf("%s\n", format_sat_summary(sat_).c_str());
  }

  /// No-op when `path` is empty (no --json flag given). The `counters`
  /// object snapshots the process-wide registry totals at write time.
  void write(const std::string& path, std::size_t threads) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    out << "{\n  \"schema_version\": 2,\n  \"threads\": " << threads
        << ",\n  \"slot_width\": " << slot_width_bits(widest_slot_width());
    if (have_sat_)
      out << ",\n  \"sat\": {\"attempts\": " << sat_.attempts
          << ", \"detected\": " << sat_.detected
          << ", \"proved_redundant\": " << sat_.proved_redundant
          << ", \"aborted\": " << sat_.aborted << ", \"mismatches\": " << sat_.mismatches << "}";
    out << ",\n  \"counters\": " << counters_json(obs::totals()) << ",\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out << "    {\"name\": \"" << json_escape(e.name) << "\", \"wall_ms\": " << e.wall_ms
          << ", \"gate_evals\": " << e.gate_evals << ", \"in_len\": " << e.in_len
          << ", \"out_len\": " << e.out_len << ", \"timed_out\": "
          << (e.timed_out ? "true" : "false");
      if (e.detected) out << ", \"detected\": " << *e.detected;
      if (!e.stages.empty()) {
        out << ", \"stages\": [";
        for (std::size_t s = 0; s < e.stages.size(); ++s) {
          const obs::StageStat& st = e.stages[s];
          out << (s ? ", " : "") << "{\"name\": \"" << json_escape(st.name)
              << "\", \"wall_ms\": " << st.wall_ms
              << ", \"counters\": " << counters_json(st.counters) << "}";
        }
        out << "]";
      }
      out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"failures\": [\n";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      const TaskFailure& f = failures_[i];
      out << "    {\"circuit\": \"" << json_escape(f.circuit) << "\", \"stage\": \""
          << json_escape(f.stage) << "\", \"what\": \"" << json_escape(f.what) << "\"}"
          << (i + 1 < failures_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

 private:
  struct Entry {
    std::string name;
    double wall_ms;
    std::uint64_t gate_evals;
    std::size_t in_len;
    std::size_t out_len;
    bool timed_out;
    std::optional<std::size_t> detected;
    std::vector<obs::StageStat> stages;
  };
  std::vector<Entry> entries_;
  std::vector<TaskFailure> failures_;
  SatSummary sat_;
  bool have_sat_ = false;
};

inline std::vector<SuiteEntry> select_suite(const Args& a) {
  // A repeated name would run a circuit twice and count it twice.
  for (auto it = a.circuits.begin(); it != a.circuits.end(); ++it)
    if (std::find(a.circuits.begin(), it, *it) != it) {
      std::fprintf(stderr, "circuit '%s' is repeated in --circuits\n", it->c_str());
      std::exit(2);
    }
  if (!a.corpus.empty()) {
    const CorpusRegistry& reg = CorpusRegistry::global();
    std::optional<CorpusTier> tier;
    CorpusTier parsed;
    if (parse_corpus_tier(a.corpus, parsed)) tier = parsed;  // "all" -> nullopt
    std::vector<SuiteEntry> out = reg.suite_entries(tier);
    if (out.empty()) {
      std::fprintf(stderr, "corpus tier '%s' is empty (no manifest at %s?)\n", a.corpus.c_str(),
                   reg.dir().c_str());
      std::exit(2);
    }
    // --circuits narrows the corpus selection by name (corpus order kept).
    if (!a.circuits.empty()) {
      std::vector<SuiteEntry> picked;
      for (const SuiteEntry& e : out)
        if (std::find(a.circuits.begin(), a.circuits.end(), e.name) != a.circuits.end())
          picked.push_back(e);
      if (picked.size() != a.circuits.size()) {
        for (const std::string& name : a.circuits)
          if (std::none_of(picked.begin(), picked.end(),
                           [&](const SuiteEntry& e) { return e.name == name; }))
            std::fprintf(stderr, "circuit '%s' is not in corpus tier '%s'\n", name.c_str(),
                         a.corpus.c_str());
        std::exit(2);
      }
      return picked;
    }
    return out;
  }
  if (!a.circuits.empty()) {
    std::vector<SuiteEntry> out;
    for (const std::string& name : a.circuits) {
      const auto e = find_suite_entry(name);
      if (!e) {
        std::fprintf(stderr, "unknown circuit: %s\n", name.c_str());
        std::exit(2);
      }
      out.push_back(*e);
    }
    return out;
  }
  return a.full ? paper_suite() : fast_suite();
}

inline PipelineConfig make_config(const Args& a) {
  PipelineConfig cfg;
  cfg.atpg.seed = a.seed;
  cfg.atpg.use_scan_knowledge = a.scan_knowledge;
  cfg.baseline.seed = a.seed + 10;
  cfg.time_budget_secs = a.time_budget_secs;
  cfg.per_circuit_budget_secs = a.per_circuit_budget_secs;
  return cfg;
}

/// Render one row's status cell: "" when healthy, "TIMEOUT" when the row's
/// deadline fired, "FAILED(stage)" for an isolated failure.
inline std::string row_status(bool timed_out) { return timed_out ? "TIMEOUT" : ""; }
inline std::string row_status(const TaskFailure& f) { return "FAILED(" + f.stage + ")"; }

/// Exit code of a table binary whose run had isolated failures (the healthy
/// rows were still produced; CI asserts on this). Alias of the shared
/// taxonomy in core/exit_codes.hpp.
inline constexpr int kExitHadFailures = uniscan::kExitHadFailures;

/// Print isolated failures to stderr, one structured line each.
inline void print_failures(const std::vector<TaskFailure>& failures) {
  for (const TaskFailure& f : failures)
    std::fprintf(stderr, "FAILED circuit=%s stage=%s: %s\n", f.circuit.c_str(), f.stage.c_str(),
                 f.what.c_str());
}

/// Shared tail of the suite tables: write the --json file, then report the
/// isolated failures among `rows` on stderr. Returns the binary's exit code.
template <class Row>
int finish_suite(const BenchJson& json, const Args& a,
                 const std::vector<TaskOutcome<Row>>& rows) {
  json.write(a.json, a.threads);
  if (!json.has_failures()) return 0;
  std::vector<TaskFailure> failures;
  for (const auto& row : rows)
    if (row.failed()) failures.push_back(*row.failure);
  print_failures(failures);
  return kExitHadFailures;
}

}  // namespace uniscan::bench
