// uniscan benchmark program.
//
// Runs one workload through the library's public layer calls, the same calls
// core/pipeline.cpp makes, checks every result, and prints the metrics as one
// JSON object on the last line of stdout. perfbench/README.md explains the
// workloads, the metrics and the layer -> metric -> workload map.
//
//   uniscan_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                     [--corpus-dir DIR] [--scratch-dir DIR] [--corrupt]
//
// The run is single-threaded (the global ThreadPool keeps its default single
// worker) and sets no deadline, so every deterministic metric is a pure
// function of the seed. Times are process CPU time; setup is repeated and
// its median reported. --trace 1 adds a traced pass and prints the per-layer
// metrics instead of the end-to-end ones. --corrupt drops the last vector of
// every final sequence before the output check (the check must then fail).
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/seq_atpg.hpp"
#include "atpg/transition_atpg.hpp"
#include "baseline/scan_testset_gen.hpp"
#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "corpus/corpus.hpp"
#include "fault/fault_list.hpp"
#include "fault/transition_fault.hpp"
#include "netlist/bench_io.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "scan/scan_insertion.hpp"
#include "serve/minijson.hpp"
#include "sim/fault_sim.hpp"
#include "sim/fault_sim_session.hpp"
#include "sim/transition_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace uniscan;
using obs::Counter;

// ---- workloads --------------------------------------------------------------

enum class Flow { StuckGen, TranslateCompact, TransitionSat, Grade };

struct Workload {
  const char* name;
  std::vector<Flow> flows;            // run on every circuit, in this order
  std::vector<const char*> circuits;  // corpus rows; empty = the whole large tier
};

// Circuit sets are chosen from measured layer shares (README.md, "Workloads").
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"stuck_gen", {Flow::StuckGen}, {"s344", "s444", "s526", "b03", "b09", "b10", "s510"}},
      {"translate_compact", {Flow::TranslateCompact}, {"u002", "u003", "s526", "b09"}},
      {"transition_sat", {Flow::TransitionSat}, {"s208", "s298", "s386", "s420"}},
      {"grade_large", {Flow::Grade}, {}},
      // Test-only: every flow on s27.
      {"smoke",
       {Flow::StuckGen, Flow::TranslateCompact, Flow::TransitionSat, Flow::Grade},
       {"s27"}},
  };
  return w;
}

// grade_large: a seeded 64-vector unified sequence with P(scan_sel) = 1/4,
// graded against the first 2048 collapsed stuck-at and transition faults.
constexpr std::size_t kGradeVectors = 64;
constexpr std::size_t kGradeFaults = 2048;
constexpr std::size_t kGradeChunk = 16;  // session chunk of the grading cross-check

// Setup is repeated until both bounds are met; its median is setup_s.
constexpr int kMinSetupReps = 3;
constexpr double kMinSetupCpuS = 2.0;

// ---- timing ----------------------------------------------------------------

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// High-water resident set of this process image. Read from /proc, not
/// getrusage: ru_maxrss carries over the launching process's peak across
/// fork + exec.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- layers ----------------------------------------------------------------

enum Layer : std::size_t {
  kLoad,
  kScan,
  kCompile,
  kFaults,
  kAtpg,
  kBaseline,
  kRestoration,
  kOmission,
  kVerify,
  kGradeStuck,
  kGradeTransition,
  kNumLayers
};
constexpr Layer kFirstFlowLayer = kAtpg;

// Span names of the benchmark's own spans around each layer call.
constexpr const char* kLayerSpan[kNumLayers] = {
    "bench.load",        "bench.scan",     "bench.compile",
    "bench.faults",      "bench.atpg",     "bench.baseline",
    "bench.restoration", "bench.omission", "bench.verify",
    "bench.grade_stuck", "bench.grade_transition"};

struct LayerStat {
  double cpu_s = 0;
  obs::CounterArray counters{};
};

/// Per-span self and inclusive wall time folded from the traces of a pass.
struct SpanFold {
  struct Stat {
    double self_s = 0;
    double incl_s = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Stat> spans;
  std::uint64_t dropped = 0;

  double self(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_s;
  }

  // The trace writer emits one event object per line (obs/trace.cpp); one
  // worker means one lane, so begin/end events nest in file order.
  void add_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read trace " + path);
    struct Open {
      std::string name;
      std::int64_t ts;
      std::int64_t child_us;
    };
    std::vector<Open> stack;
    std::string line;
    while (std::getline(in, line)) {
      if (const std::size_t k = line.find("{\"dropped_events\""); k != std::string::npos) {
        const auto other = serve::parse_json_object(line.substr(k, line.find('}', k) - k + 1));
        if (other) dropped += static_cast<std::uint64_t>(other->at("dropped_events").as_int());
        continue;
      }
      if (line.rfind("{\"ph\"", 0) != 0) continue;
      if (line.back() == ',') line.pop_back();
      std::string error;
      const auto ev = serve::parse_json_object(line, &error);
      if (!ev) throw std::runtime_error("bad trace event in " + path + ": " + error);
      const std::int64_t ts = ev->at("ts").as_int();
      if (ev->at("ph").as_string() == "B") {
        stack.push_back({ev->at("name").as_string(), ts, 0});
      } else if (!stack.empty()) {
        const Open o = stack.back();
        stack.pop_back();
        const std::int64_t dur = ts - o.ts;
        Stat& st = spans[o.name];
        st.incl_s += 1e-6 * static_cast<double>(dur);
        st.self_s += 1e-6 * static_cast<double>(dur - std::min(dur, o.child_us));
        ++st.calls;
        if (!stack.empty()) stack.back().child_us += dur;
      }
    }
    if (!stack.empty()) throw std::runtime_error("unbalanced trace " + path);
  }
};

/// CPU time and counter deltas of every layer call, plus the flow outcomes
/// the per-layer ratios need.
struct Ledger {
  std::array<LayerStat, kNumLayers> layers{};
  std::uint64_t podem_calls = 0;
  std::uint64_t podem_successes = 0;
  SatSummary sat;
  std::uint64_t omission_removed = 0;
  std::uint64_t baseline_cycles = 0;

  double flow_cpu() const {
    double s = 0;
    for (std::size_t l = kFirstFlowLayer; l < kNumLayers; ++l) s += layers[l].cpu_s;
    return s;
  }
  double setup_cpu() const {
    double s = 0;
    for (std::size_t l = 0; l < kFirstFlowLayer; ++l) s += layers[l].cpu_s;
    return s;
  }
  std::uint64_t counter(Counter c, Layer from, Layer to) const {
    std::uint64_t n = 0;
    for (std::size_t l = from; l <= to; ++l) n += layers[l].counters[static_cast<std::size_t>(c)];
    return n;
  }
};

/// Times one public layer call: CPU time, counter deltas, and (traced runs)
/// a benchmark span inside a trace restarted per call, so no call can fill
/// the tracer's per-worker event cap.
class LayerTimer {
 public:
  LayerTimer(Ledger& ledger, SpanFold* fold, std::string trace_path)
      : ledger_(ledger), fold_(fold), trace_path_(std::move(trace_path)) {}

  template <class Fn>
  auto operator()(Layer l, Fn&& fn) {
    if (fold_) obs::Tracer::start(trace_path_);
    auto result = [&] {
      const obs::TraceSpan span(kLayerSpan[l]);
      const obs::CounterScope scope;
      const double t0 = cpu_now();
      auto r = fn();
      ledger_.layers[l].cpu_s += cpu_now() - t0;
      const obs::CounterArray d = scope.deltas();
      for (std::size_t i = 0; i < obs::kNumCounters; ++i) ledger_.layers[l].counters[i] += d[i];
      return r;
    }();
    if (fold_) {
      obs::Tracer::stop_and_write();
      fold_->add_file(trace_path_);
    }
    return result;
  }

  Ledger& ledger() { return ledger_; }

 private:
  Ledger& ledger_;
  SpanFold* fold_;
  std::string trace_path_;
};

// ---- setup -----------------------------------------------------------------

struct Circuit {
  std::string name;
  ScanCircuit sc;
  FaultList faults;                      // collapsed stuck-at faults
  std::vector<TransitionFault> tfaults;  // transition faults
};

bool needs_stuck(const Workload& w) {
  return std::any_of(w.flows.begin(), w.flows.end(),
                     [](Flow f) { return f != Flow::TransitionSat; });
}
bool needs_transition(const Workload& w) {
  return std::any_of(w.flows.begin(), w.flows.end(),
                     [](Flow f) { return f == Flow::TransitionSat || f == Flow::Grade; });
}
bool is_grade_only(const Workload& w) {
  return w.flows.size() == 1 && w.flows[0] == Flow::Grade;
}

std::vector<Circuit> build_circuits(const Workload& w, const CorpusRegistry& reg,
                                    const std::vector<CorpusEntry>& rows, LayerTimer& timed) {
  const bool cap = is_grade_only(w);
  std::vector<Circuit> out;
  // No reallocation below: a moved Netlist drops its compiled kernel
  // (netlist.hpp), so each circuit is compiled at its final address.
  out.reserve(rows.size());
  for (const CorpusEntry& e : rows) {
    // Through the real parser with the manifest pin checked, for every row.
    const Netlist nl = timed(kLoad, [&] {
      return read_bench_string(reg.bench_text(e, /*verify=*/true), e.name, reg.circuit_path(e));
    });
    Circuit& c =
        out.emplace_back(Circuit{e.name, timed(kScan, [&] { return insert_scan(nl); }), {}, {}});
    timed(kCompile, [&] { return c.sc.netlist.compiled_shared(); });
    timed(kFaults, [&] {
      if (needs_stuck(w)) {
        c.faults = FaultList::collapsed(c.sc.netlist);
        if (cap) c.faults = c.faults.prefix(kGradeFaults);
      }
      if (needs_transition(w)) {
        c.tfaults = enumerate_transition_faults(c.sc.netlist);
        if (cap && c.tfaults.size() > kGradeFaults) c.tfaults.resize(kGradeFaults);
      }
      return 0;
    });
  }
  return out;
}

// ---- flows and the output check --------------------------------------------

/// What one circuit's flow produced; compared across passes for determinism.
struct Outcome {
  std::size_t cycles = 0;     // final sequence length (clock cycles)
  std::size_t faults = 0;     // target faults
  std::size_t detected = 0;   // detected by the final sequence (re-simulated)
  std::size_t redundant = 0;  // proved redundant by the flow
  std::string error;          // empty when the output check passed
  double flow_cpu_s = 0;      // CPU time of the flow's layer calls

  bool same_result(const Outcome& o) const {
    return cycles == o.cycles && faults == o.faults && detected == o.detected &&
           redundant == o.redundant && error == o.error;
  }
};

std::size_t count_detected(const std::vector<DetectionRecord>& d) {
  return static_cast<std::size_t>(
      std::count_if(d.begin(), d.end(), [](const DetectionRecord& r) { return r.detected; }));
}

/// Independent re-simulation from power-up: the final sequence must be
/// fully specified, as wide as C_scan's inputs, and detect every fault the
/// source (generated or translated) sequence detects; the flow's own
/// detection claim for the source must replay exactly.
template <class Sim, class F>
void check_final(const Netlist& nl, const TestSequence& source, std::size_t claimed,
                 const TestSequence& final_seq, std::span<const F> faults, Outcome& out) {
  out.cycles = final_seq.length();
  out.faults = faults.size();
  if (final_seq.num_inputs() != nl.num_inputs()) {
    out.error = "final sequence width " + std::to_string(final_seq.num_inputs()) +
                " != C_scan inputs " + std::to_string(nl.num_inputs());
    return;
  }
  for (std::size_t t = 0; t < final_seq.length(); ++t)
    for (const V3 v : final_seq.vector_at(t))
      if (v == V3::X) {
        out.error = "final sequence has an X at vector " + std::to_string(t);
        return;
      }
  const Sim sim(nl);
  const auto before = sim.run(source, faults);
  const auto after = sim.run(final_seq, faults);
  out.detected = count_detected(after);
  if (count_detected(before) != claimed) {
    out.error = "flow claims " + std::to_string(claimed) + " detections, replay gives " +
                std::to_string(count_detected(before));
    return;
  }
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (before[i].detected && !after[i].detected) {
      out.error = "fault " + std::to_string(i) + " lost by the final sequence";
      return;
    }
}

void drop_last_vector(TestSequence& s) {
  if (!s.empty()) s.truncate(s.length() - 1);
}

struct FlowContext {
  std::uint64_t seed;
  bool corrupt;
  bool cross_check;  // run the grading session cross-check (first pass only)
};

/// Restoration then omission of `source` (the generated or translated
/// sequence), then the output check on the final sequence. `verify` adds the
/// pipeline's own re-simulation of the final sequence (Table 6 `ext det`).
template <class Sim, class F>
Outcome compact_and_check(const Circuit& c, const TestSequence& source, std::size_t claimed,
                          std::span<const F> faults, const FlowContext& ctx, LayerTimer& timed,
                          bool verify) {
  const CompactionResult rest = timed(kRestoration, [&] {
    return restoration_compact(c.sc.netlist, source, faults, RestorationOptions{});
  });
  const CompactionResult omit = timed(kOmission, [&] {
    return omission_compact(c.sc.netlist, rest.sequence, faults, OmissionOptions{});
  });
  if (verify) timed(kVerify, [&] { return Sim(c.sc.netlist).run(omit.sequence, faults); });
  timed.ledger().omission_removed += omit.vectors_removed;

  Outcome out;
  TestSequence final_seq = omit.sequence;
  if (ctx.corrupt) drop_last_vector(final_seq);
  check_final<Sim>(c.sc.netlist, source, claimed, final_seq, faults, out);
  return out;
}

template <class R>
void record_atpg(Ledger& led, const R& atpg) {
  led.podem_calls += atpg.stats.podem_calls;
  led.podem_successes += atpg.stats.podem_successes;
  led.sat.add(atpg.sat);
}

AtpgOptions atpg_options(const FlowContext& ctx) {
  AtpgOptions opt;
  opt.seed = ctx.seed;
  opt.sat_mode = SatMode::SecondChance;
  return opt;
}

Outcome run_stuck_gen(const Circuit& c, const FlowContext& ctx, LayerTimer& timed) {
  const AtpgResult atpg =
      timed(kAtpg, [&] { return generate_tests(c.sc, c.faults, atpg_options(ctx)); });
  record_atpg(timed.ledger(), atpg);
  Outcome out = compact_and_check<FaultSimulator>(
      c, atpg.sequence, atpg.detected, std::span<const Fault>(c.faults.faults()), ctx, timed,
      /*verify=*/true);
  out.redundant = atpg.proved_redundant;
  return out;
}

Outcome run_translate_compact(const Circuit& c, const FlowContext& ctx, LayerTimer& timed) {
  BaselineOptions opt;
  opt.seed = ctx.seed;
  const BaselineResult base =
      timed(kBaseline, [&] { return generate_baseline_tests(c.sc, c.faults, opt); });
  timed.ledger().baseline_cycles += base.application_cycles();
  return compact_and_check<FaultSimulator>(c, base.translated, base.detected,
                                           std::span<const Fault>(c.faults.faults()), ctx, timed,
                                           /*verify=*/false);
}

Outcome run_transition_sat(const Circuit& c, const FlowContext& ctx, LayerTimer& timed) {
  const TransitionAtpgResult atpg = timed(
      kAtpg, [&] { return generate_transition_tests(c.sc, c.tfaults, atpg_options(ctx)); });
  record_atpg(timed.ledger(), atpg);
  Outcome out = compact_and_check<TransitionFaultSimulator>(
      c, atpg.sequence, atpg.detected, std::span<const TransitionFault>(c.tfaults), ctx, timed,
      /*verify=*/false);
  out.redundant = atpg.proved_redundant;
  return out;
}

/// Seeded unified sequence: random primary and scan inputs, scan_sel = 1
/// with probability 1/4.
TestSequence grading_sequence(const ScanCircuit& sc, std::uint64_t seed, std::size_t index) {
  Rng rng(SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1))).next());
  TestSequence seq(sc.netlist.num_inputs());
  for (std::size_t t = 0; t < kGradeVectors; ++t) {
    std::vector<V3> v(sc.netlist.num_inputs());
    for (std::size_t i = 0; i < v.size(); ++i) {
      const bool one = i == sc.scan_sel_index() ? rng.next_below(4) == 0 : rng.next_bool();
      v[i] = one ? V3::One : V3::Zero;
    }
    seq.append(std::move(v));
  }
  return seq;
}

Outcome run_grade(const Circuit& c, std::size_t index, const FlowContext& ctx,
                  LayerTimer& timed) {
  const auto faults = std::span<const Fault>(c.faults.faults());
  const auto tfaults = std::span<const TransitionFault>(c.tfaults);
  const TestSequence seq = grading_sequence(c.sc, ctx.seed, index);
  const auto stuck =
      timed(kGradeStuck, [&] { return FaultSimulator(c.sc.netlist).run(seq, faults); });
  const auto trans = timed(kGradeTransition, [&] {
    return TransitionFaultSimulator(c.sc.netlist).run(seq, tfaults);
  });

  Outcome out;
  out.cycles = seq.length();
  out.faults = faults.size() + tfaults.size();
  out.detected = count_detected(stuck) + count_detected(trans);
  if (!ctx.cross_check) return out;
  // Cross-check the one-shot grading against a streaming session fed the
  // same sequence in chunks: same detections at the same frames.
  TestSequence fed = seq;
  if (ctx.corrupt) drop_last_vector(fed);
  FaultSimSession session(c.sc.netlist, faults);
  for (std::size_t t = 0; t < fed.length(); t += kGradeChunk) {
    std::vector<std::size_t> keep;
    for (std::size_t k = t; k < std::min(fed.length(), t + kGradeChunk); ++k) keep.push_back(k);
    session.advance(fed.select(keep));
  }
  const auto& streamed = session.detections();
  if (session.now() != seq.length())
    out.error = "session advanced " + std::to_string(session.now()) + " of " +
                std::to_string(seq.length()) + " vectors";
  for (std::size_t i = 0; out.error.empty() && i < faults.size(); ++i)
    if (streamed[i].detected != stuck[i].detected ||
        (stuck[i].detected && streamed[i].time != stuck[i].time))
      out.error = "fault " + std::to_string(i) + ": session and one-shot grading disagree";
  return out;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral = false;
};

std::string format_value(const Metric& m) {
  char buf[64];
  if (m.integral)
    std::snprintf(buf, sizeof buf, "%.0f", m.value);
  else
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
  return buf;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
  std::string corpus_dir = "corpus";
  std::string scratch_dir = ".";
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "uniscan_perfbench: %s\nusage: uniscan_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--corpus-dir DIR] [--scratch-dir DIR] "
               "[--corrupt]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = value();
      else if (k == "--seed") a.seed = std::stoull(value());
      else if (k == "--seconds") a.seconds = std::stod(value());
      else if (k == "--trace") a.trace = std::stoi(value()) != 0;
      else if (k == "--corpus-dir") a.corpus_dir = value();
      else if (k == "--scratch-dir") a.scratch_dir = value();
      else if (k == "--corrupt") a.corrupt = true;
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

/// One pass: every flow on every circuit. Returns the outcomes in order.
std::vector<Outcome> run_pass(const Workload& w, const std::vector<Circuit>& circuits,
                              const FlowContext& ctx, LayerTimer& timed) {
  std::vector<Outcome> outs;
  for (std::size_t i = 0; i < circuits.size(); ++i)
    for (const Flow f : w.flows) {
      Outcome o;
      const double before = timed.ledger().flow_cpu();
      try {
        switch (f) {
          case Flow::StuckGen: o = run_stuck_gen(circuits[i], ctx, timed); break;
          case Flow::TranslateCompact: o = run_translate_compact(circuits[i], ctx, timed); break;
          case Flow::TransitionSat: o = run_transition_sat(circuits[i], ctx, timed); break;
          case Flow::Grade: o = run_grade(circuits[i], i, ctx, timed); break;
        }
      } catch (const std::exception& e) {
        o.error = std::string("exception: ") + e.what();
      }
      o.flow_cpu_s = timed.ledger().flow_cpu() - before;
      if (!o.error.empty())
        std::fprintf(stderr, "check failed: %s: %s\n", circuits[i].name.c_str(), o.error.c_str());
      outs.push_back(std::move(o));
    }
  return outs;
}

std::vector<Metric> per_layer_metrics(const Ledger& setup, int setup_reps, const Ledger& led,
                                      const SpanFold& fold, double untraced_flow_cpu,
                                      std::size_t fault_count) {
  const double reps = setup_reps;
  const auto c = [&](Counter k) {
    return static_cast<double>(led.counter(k, kFirstFlowLayer, kGradeTransition));
  };
  const auto at = [&](Counter k, Layer l) {
    return static_cast<double>(led.layers[l].counters[static_cast<std::size_t>(k)]);
  };
  const double kernel_cpu = led.layers[kRestoration].cpu_s + led.layers[kOmission].cpu_s +
                            led.layers[kVerify].cpu_s + led.layers[kGradeStuck].cpu_s +
                            led.layers[kGradeTransition].cpu_s;
  const double kernel_evals =
      static_cast<double>(led.counter(Counter::GateEvals, kRestoration, kGradeTransition));
  double self_total = 0;
  for (const auto& [name, s] : fold.spans) self_total += s.self_s;
  const double traced_flow = led.flow_cpu();
  return {
      {"corpus.load_s", setup.layers[kLoad].cpu_s / reps, "s"},
      {"scan.insert_s", setup.layers[kScan].cpu_s / reps, "s"},
      {"sim.compile_s", setup.layers[kCompile].cpu_s / reps, "s"},
      {"fault.collapse_s", setup.layers[kFaults].cpu_s / reps, "s"},
      {"fault.count", static_cast<double>(fault_count), "count", true},
      {"atpg.generate_s", led.layers[kAtpg].cpu_s, "s"},
      {"atpg.podem_self_s", fold.self("podem"), "s"},
      {"atpg.session_advance_s", fold.self("session_advance"), "s"},
      {"atpg.podem_calls", static_cast<double>(led.podem_calls), "count", true},
      {"atpg.podem_success_ratio",
       ratio(static_cast<double>(led.podem_successes), static_cast<double>(led.podem_calls)),
       "ratio"},
      {"sat.prove_s", fold.self("sat_prove"), "s"},
      {"sat.attempts", static_cast<double>(led.sat.attempts), "count", true},
      {"sat.settled_ratio",
       ratio(static_cast<double>(led.sat.detected + led.sat.proved_redundant),
             static_cast<double>(led.sat.attempts)),
       "ratio"},
      {"sat.aborted", static_cast<double>(led.sat.aborted), "count", true},
      {"sat.mismatches", static_cast<double>(led.sat.mismatches), "count", true},
      {"sat.conflicts", c(Counter::SatConflicts), "count", true},
      {"sat.propagations", c(Counter::SatPropagations), "count", true},
      {"compact.restoration_s", led.layers[kRestoration].cpu_s, "s"},
      {"compact.restoration_restores", at(Counter::RestorationRestores, kRestoration), "count",
       true},
      {"compact.omission_s", led.layers[kOmission].cpu_s, "s"},
      {"compact.omission_pass_s", fold.self("omission_pass"), "s"},
      {"compact.omission_trials", at(Counter::OmissionTrials, kOmission), "count", true},
      {"compact.omission_accept_ratio",
       ratio(static_cast<double>(led.omission_removed), at(Counter::OmissionTrials, kOmission)),
       "ratio"},
      {"baseline.generate_s", led.layers[kBaseline].cpu_s, "s"},
      {"baseline.cycles", static_cast<double>(led.baseline_cycles), "count", true},
      {"sim.grade_stuck_s", led.layers[kGradeStuck].cpu_s, "s"},
      {"sim.grade_transition_s", led.layers[kGradeTransition].cpu_s, "s"},
      {"sim.gate_evals", c(Counter::GateEvals), "count", true},
      {"sim.ns_per_gate_eval", 1e9 * ratio(kernel_cpu, kernel_evals), "ns"},
      {"sim.batches_run", c(Counter::BatchesRun), "count", true},
      {"sim.cone_prune_hits", c(Counter::ConePruneHits), "count", true},
      {"sim.repack_events", c(Counter::RepackEvents), "count", true},
      {"trace.overhead_pct", 100.0 * (ratio(traced_flow, untraced_flow_cpu) - 1.0), "%"},
      {"trace.accounted_pct", 100.0 * ratio(self_total, traced_flow), "%"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto& all = workloads();
  const auto wit = std::find_if(all.begin(), all.end(),
                                [&](const Workload& w) { return args.workload == w.name; });
  if (wit == all.end()) usage("unknown workload " + args.workload);
  const Workload& w = *wit;

  try {
    const CorpusRegistry reg(args.corpus_dir);
    std::vector<CorpusEntry> rows;
    if (w.circuits.empty()) {
      rows = reg.tier(CorpusTier::Large);
    } else {
      for (const char* name : w.circuits) {
        const CorpusEntry* e = reg.find(name);
        if (!e) throw std::runtime_error(std::string("corpus row missing: ") + name);
        rows.push_back(*e);
      }
    }
    if (rows.empty()) throw std::runtime_error("workload has no circuits");

    // Setup, repeated; the circuits of the last repetition are kept.
    Ledger setup;
    std::vector<double> setup_times;
    std::vector<Circuit> circuits;
    double setup_total = 0;
    while (setup_times.size() < static_cast<std::size_t>(kMinSetupReps) ||
           setup_total < kMinSetupCpuS) {
      circuits.clear();
      LayerTimer timed(setup, nullptr, {});
      const double before = setup.setup_cpu();
      circuits = build_circuits(w, reg, rows, timed);
      setup_times.push_back(setup.setup_cpu() - before);
      setup_total += setup_times.back();
    }
    std::size_t fault_count = 0;
    for (const Circuit& c : circuits) fault_count += c.faults.size() + c.tfaults.size();

    // Flow passes: at least one, then more while another fits in --seconds.
    // flow_cpu_s sums each circuit's median over the passes.
    std::vector<std::vector<double>> unit_times;
    std::vector<Outcome> first;
    std::size_t attempted = 0, failed = 0, passes = 0;
    bool deterministic = true;
    const auto score = [&](const std::vector<Outcome>& outs) {
      for (std::size_t i = 0; i < outs.size(); ++i) {
        ++attempted;
        const bool same = first.empty() || outs[i].same_result(first[i]);
        if (!same) deterministic = false;
        if (!outs[i].error.empty() || !same) ++failed;
      }
      if (first.empty()) first = outs;
    };
    const double t_start = wall_now();
    for (;;) {
      const double t0 = wall_now();
      Ledger led;
      LayerTimer timed(led, nullptr, {});
      const FlowContext ctx{args.seed, args.corrupt, passes == 0};
      const std::vector<Outcome> outs = run_pass(w, circuits, ctx, timed);
      unit_times.resize(outs.size());
      for (std::size_t u = 0; u < outs.size(); ++u) unit_times[u].push_back(outs[u].flow_cpu_s);
      score(outs);
      ++passes;
      const double now = wall_now();
      if (now - t_start + (now - t0) > args.seconds) break;
    }
    double flow_cpu = 0;
    for (const auto& t : unit_times) flow_cpu += median(t);
    if (!deterministic) std::fprintf(stderr, "check failed: passes disagree\n");

    std::vector<Metric> metrics;
    if (args.trace) {
      Ledger led;
      SpanFold fold;
      LayerTimer timed(led, &fold, args.scratch_dir + "/perfbench_trace.json");
      score(run_pass(w, circuits, FlowContext{args.seed, args.corrupt, false}, timed));
      std::remove((args.scratch_dir + "/perfbench_trace.json").c_str());
      if (fold.dropped) {
        std::fprintf(stderr, "check failed: tracer dropped %llu events\n",
                     static_cast<unsigned long long>(fold.dropped));
        ++failed;
      }
      metrics = per_layer_metrics(setup, static_cast<int>(setup_times.size()), led, fold,
                                  flow_cpu, fault_count);
      std::printf("%-24s %8s %12s %12s %7s\n", "span (self time)", "calls", "self_s", "incl_s",
                  "share");
      double self_total = 0;
      for (const auto& [name, s] : fold.spans) self_total += s.self_s;
      for (const auto& [name, s] : fold.spans)
        std::printf("%-24s %8llu %12.4f %12.4f %6.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(s.calls), s.self_s, s.incl_s,
                    100.0 * ratio(s.self_s, self_total));
      std::printf("%-24s %8s %12.4f  (traced flow CPU %.4f s)\n", "total", "", self_total,
                  led.flow_cpu());
    } else {
      std::size_t cycles = 0, faults = 0, detected = 0, redundant = 0;
      for (const Outcome& o : first) {
        cycles += o.cycles;
        faults += o.faults;
        detected += o.detected;
        redundant += o.redundant;
      }
      metrics = {
          {"flow_cpu_s", flow_cpu, "s"},
          {"setup_s", median(setup_times), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"ok_pct", 100.0 * ratio(static_cast<double>(attempted - failed),
                                   static_cast<double>(attempted)),
           "%"},
          {"test_cycles", static_cast<double>(cycles), "count", true},
          {"fault_coverage_pct",
           100.0 * ratio(static_cast<double>(detected), static_cast<double>(faults)), "%"},
          {"efficiency_pct",
           100.0 * ratio(static_cast<double>(detected + redundant), static_cast<double>(faults)),
           "%"},
      };
    }

    std::printf("workload %s seed %llu: %zu setup reps, %zu flow passes, %zu/%zu ok\n",
                w.name, static_cast<unsigned long long>(args.seed), setup_times.size(),
                passes, attempted - failed, attempted);
    for (const Metric& m : metrics)
      std::printf("  %-32s %20s %s\n", m.name.c_str(), format_value(m).c_str(), m.unit.c_str());
    serve::JsonWriter values;
    for (const Metric& m : metrics) {
      serve::JsonWriter v;
      v.raw_field("value", format_value(m));
      v.field("unit", m.unit);
      values.raw_field(m.name, v.str());
    }
    serve::JsonWriter result;
    result.field("correct", failed == 0);
    result.field("attempted", static_cast<std::uint64_t>(attempted));
    result.field("failed", static_cast<std::uint64_t>(failed));
    result.raw_field("metrics", values.str());
    const std::string json = result.str();
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uniscan_perfbench: %s\n", e.what());
    return 1;
  }
}
