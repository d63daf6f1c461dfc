// uniscan command-line tool: the library's flows on .bench files.
//
//   uniscan_cli stats       <circuit.bench>
//   uniscan_cli insert-scan <circuit.bench> [--chains=N] [-o out.bench]
//   uniscan_cli generate    <circuit.bench> [--chains=N] [--seed=N]
//                           [--no-scan-knowledge] [-o seq.useq]
//   uniscan_cli compact     <circuit.bench> <seq.useq> [--chains=N]
//                           [--skip-restoration] [--skip-omission] [-o out.useq]
//   uniscan_cli faultsim    <circuit.bench> <seq.useq> [--chains=N]
//   uniscan_cli baseline    <circuit.bench> [--chains=N] [--seed=N] [-o tests.utst]
//   uniscan_cli translate   <circuit.bench> <tests.utst> [--x-fill=random|zero|repeat]
//                           [-o seq.useq]
//   uniscan_cli classify    <circuit.bench> [--window=K]
//   uniscan_cli export      <circuit.bench> <seq.useq> [--chains=N]
//   uniscan_cli metrics     <circuit.bench> <seq.useq> [--chains=N]
//
// The circuit argument is always the NON-scan netlist; scan insertion
// happens internally (--chains, default 1). Sequences are over the scan
// circuit's inputs (original PIs, then scan_sel, then scan_inp per chain).
//
// Global flags: --time-budget=SECS caps the wall clock of the long-running
// commands (generate/compact/baseline/classify) with graceful degradation;
// --json reports errors as a one-line {"error": ...} object on stdout;
// --metrics appends one {"schema_version": 2, "counters": {...},
// "slot_width": N} line on stdout with the run's telemetry counter totals
// (same keys as the bench JSON's `counters` object) and the widest
// simulation slot width the CPU runs; --trace=FILE
// writes a Chrome trace_event JSON of the run (load in chrome://tracing or
// Perfetto); --threads=N sizes the worker pool (default 1; results are
// bit-identical at any count).
// Numeric flags take plain non-negative decimal values (--threads at most
// ThreadPool::kMaxThreads); anything else is a usage error.
// Exit codes (core/exit_codes.hpp, shared with the table binaries): 0
// success, 1 error (std::exception), 2 usage (unknown flag or command), 3
// unexpected non-standard exception. Code 4 (isolated suite failures) comes
// only from the table binaries.
#include <cstdio>
#include <fstream>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "atpg/redundancy.hpp"
#include "core/exit_codes.hpp"
#include "core/uniscan.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"
#include "obs/trace.hpp"
#include "sim/sequence_io.hpp"
#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace uniscan;

struct CliArgs {
  std::string command;
  std::vector<std::string> positional;
  std::string output;
  std::size_t chains = 1;
  std::uint64_t seed = 1;
  std::size_t window = 1;
  bool scan_knowledge = true;
  bool skip_restoration = false;
  bool skip_omission = false;
  bool json = false;
  bool metrics = false;   // --metrics: counter-totals JSON line on stdout
  std::string trace;      // --trace=FILE: Chrome trace_event output
  double time_budget_secs = 0;
  XFillPolicy fill = XFillPolicy::RandomFill;
  std::size_t threads = 0;  // --threads=N: global pool size (0 = keep the default)
};

int usage() {
  std::fprintf(stderr,
               "usage: uniscan_cli <stats|insert-scan|generate|compact|faultsim|baseline|"
               "translate|classify|export|metrics> <circuit.bench> [args] [flags]\n"
               "run with a command and no arguments for per-command flags\n");
  return kExitUsage;
}

/// Store a strictly parsed numeric flag value (flag_uint / flag_number);
/// false when the parser rejected it.
template <class T, class V>
bool take(T& dst, std::optional<V> v) {
  if (v) dst = static_cast<T>(*v);
  return v.has_value();
}

std::optional<CliArgs> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  CliArgs a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o") {
      if (++i >= argc) return std::nullopt;
      a.output = argv[i];
    } else if (arg.rfind("--chains=", 0) == 0) {
      if (!take(a.chains, flag_uint(arg))) return std::nullopt;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!take(a.seed, flag_uint(arg))) return std::nullopt;
    } else if (arg.rfind("--window=", 0) == 0) {
      if (!take(a.window, flag_uint(arg))) return std::nullopt;
    } else if (arg == "--no-scan-knowledge") {
      a.scan_knowledge = false;
    } else if (arg == "--json") {
      a.json = true;
    } else if (arg == "--metrics") {
      a.metrics = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      a.trace = arg.substr(8);
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      if (!take(a.time_budget_secs, flag_number(arg))) return std::nullopt;
    } else if (arg == "--skip-restoration") {
      a.skip_restoration = true;
    } else if (arg == "--skip-omission") {
      a.skip_omission = true;
    } else if (arg == "--x-fill=random") {
      a.fill = XFillPolicy::RandomFill;
    } else if (arg == "--x-fill=zero") {
      a.fill = XFillPolicy::ZeroFill;
    } else if (arg == "--x-fill=repeat") {
      a.fill = XFillPolicy::RepeatFill;
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!take(a.threads, flag_uint(arg, ThreadPool::kMaxThreads))) return std::nullopt;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return std::nullopt;
    } else {
      a.positional.push_back(arg);
    }
  }
  return a;
}

void emit_sequence(const CliArgs& a, const TestSequence& seq) {
  if (a.output.empty()) write_sequence(std::cout, seq);
  else write_sequence_file(a.output, seq);
}

/// The command's deadline token: inert unless --time-budget was given.
CancelToken cli_token(const CliArgs& a) {
  if (a.time_budget_secs > 0) return CancelToken(Deadline::after(a.time_budget_secs));
  return {};
}

int cmd_stats(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  std::cout << c.stats_string() << "\n";
  const ScanCircuit sc = insert_scan(c, a.chains);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  std::cout << "scan version (" << a.chains << " chain(s)): " << sc.netlist.stats_string()
            << "\n";
  std::cout << "collapsed faults: " << fl.size() << " (of " << fl.uncollapsed_count()
            << " uncollapsed)\n";
  return 0;
}

int cmd_insert_scan(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  if (a.output.empty()) write_bench(std::cout, sc.netlist);
  else {
    std::ofstream f(a.output);
    if (!f) throw std::runtime_error("cannot write " + a.output);
    write_bench(f, sc.netlist);
  }
  return 0;
}

int cmd_generate(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  AtpgOptions opt;
  opt.seed = a.seed;
  opt.use_scan_knowledge = a.scan_knowledge;
  opt.cancel = cli_token(a);
  const AtpgResult r = generate_tests(sc, opt);
  std::fprintf(stderr, "coverage %.2f%% (%zu/%zu), %zu via scan knowledge, %zu vectors%s\n",
               r.fault_coverage(), r.detected, r.num_faults, r.detected_by_scan_knowledge,
               r.sequence.length(), r.timed_out ? " [TIMED OUT: best-so-far]" : "");
  emit_sequence(a, r.sequence);
  return 0;
}

int cmd_compact(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  TestSequence seq = read_sequence_file(a.positional.at(1));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  if (seq.num_inputs() != sc.netlist.num_inputs())
    throw std::runtime_error("sequence width does not match the scan circuit");

  const CancelToken cancel = cli_token(a);
  if (!a.skip_restoration) {
    RestorationOptions opt;
    opt.cancel = cancel;
    const CompactionResult r = restoration_compact(sc.netlist, seq, fl.faults(), opt);
    std::fprintf(stderr, "restoration: %zu -> %zu vectors%s\n", r.original_length,
                 r.sequence.length(), r.timed_out ? " [TIMED OUT]" : "");
    seq = r.sequence;
  }
  if (!a.skip_omission) {
    OmissionOptions opt;
    opt.cancel = cancel;
    const CompactionResult r = omission_compact(sc.netlist, seq, fl.faults(), opt);
    std::fprintf(stderr, "omission: %zu -> %zu vectors (+%zu faults)%s\n", r.original_length,
                 r.sequence.length(), r.extra_detected, r.timed_out ? " [TIMED OUT]" : "");
    seq = r.sequence;
  }
  emit_sequence(a, seq);
  return 0;
}

int cmd_faultsim(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  const TestSequence seq = read_sequence_file(a.positional.at(1));
  if (seq.num_inputs() != sc.netlist.num_inputs())
    throw std::runtime_error("sequence width does not match the scan circuit");
  const FaultList fl = FaultList::collapsed(sc.netlist);
  FaultSimulator sim(sc.netlist);
  const auto det = sim.detected_indices(seq, fl.faults());
  std::cout << "detected " << det.size() << "/" << fl.size() << " collapsed faults ("
            << format_pct(100.0 * static_cast<double>(det.size()) /
                          static_cast<double>(fl.size()))
            << "%) with " << seq.length() << " vectors\n";
  return 0;
}

int cmd_baseline(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  BaselineOptions opt;
  opt.seed = a.seed;
  opt.cancel = cli_token(a);
  const BaselineResult r = generate_baseline_tests(sc, opt);
  std::fprintf(stderr, "coverage %.2f%% (%zu/%zu), %zu tests, %zu cycles%s\n",
               r.fault_coverage(), r.detected, r.num_faults, r.test_set.tests.size(),
               r.application_cycles(), r.timed_out ? " [TIMED OUT: best-so-far]" : "");
  if (a.output.empty()) write_test_set(std::cout, r.test_set);
  else write_test_set_file(a.output, r.test_set);
  return 0;
}

int cmd_translate(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  const ScanTestSet set = read_test_set_file(a.positional.at(1));
  TranslationOptions opt;
  opt.fill = a.fill;
  opt.seed = a.seed;
  const TestSequence seq = translate_test_set(sc, set, opt);
  std::fprintf(stderr, "translated %zu tests into %zu vectors\n", set.tests.size(),
               seq.length());
  emit_sequence(a, seq);
  return 0;
}

int cmd_export(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  const TestSequence seq = read_sequence_file(a.positional.at(1));
  if (seq.num_inputs() != sc.netlist.num_inputs())
    throw std::runtime_error("sequence width does not match the scan circuit");
  const std::string program = format_tester_program(sc, seq);
  if (a.output.empty()) std::cout << program;
  else {
    std::ofstream f(a.output);
    if (!f) throw std::runtime_error("cannot write " + a.output);
    f << program;
  }
  return 0;
}

int cmd_metrics(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  const TestSequence seq = read_sequence_file(a.positional.at(1));
  if (seq.num_inputs() != sc.netlist.num_inputs())
    throw std::runtime_error("sequence width does not match the scan circuit");
  std::cout << format_metrics(compute_metrics(sc, seq));
  return 0;
}

int cmd_classify(const CliArgs& a) {
  const Netlist c = read_bench_file(a.positional.at(0));
  const ScanCircuit sc = insert_scan(c, a.chains);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  RedundancyOptions opt;
  opt.window = a.window;
  opt.cancel = cli_token(a);
  const RedundancyReport r = classify_faults(sc, fl.faults(), opt);
  std::cout << "faults: " << fl.size() << "\n"
            << "  testable : " << r.testable << "\n"
            << "  redundant: " << r.redundant << " (no (SI,T) test with |T| <= " << a.window
            << ")\n"
            << "  aborted  : " << r.aborted << "\n";
  for (std::size_t i = 0; i < fl.size(); ++i)
    if (r.classes[i] == FaultClass::Redundant)
      std::cout << "  redundant fault: " << fault_to_string(sc.netlist, fl[i]) << "\n";
  return 0;
}

/// Report one error as a single structured line: a JSON object on stdout
/// with --json (for machine consumers), plain text on stderr otherwise.
void report_error(bool as_json, const char* what) {
  if (as_json) std::printf("{\"error\": \"%s\"}\n", json_escape(what).c_str());
  std::fprintf(stderr, "error: %s\n", what);
}

/// One {"schema_version": 2, "counters": {...}, "slot_width": N} line: the
/// process-wide telemetry totals, keyed like the bench JSON's `counters`
/// object, plus the widest slot width the simulators use.
void print_metrics_line() {
  std::string out = "{\"schema_version\": 2, \"counters\": {";
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    if (i) out += ", ";
    out += "\"";
    out += obs::counter_name(static_cast<obs::Counter>(i));
    out += "\": ";
    out += std::to_string(obs::total(static_cast<obs::Counter>(i)));
  }
  out += "}, \"slot_width\": ";
  out += std::to_string(slot_width_bits(widest_slot_width()));
  out += "}";
  std::printf("%s\n", out.c_str());
}

int run_command(const CliArgs& args) {
  const auto need = [&](std::size_t n) {
    if (args.positional.size() < n)
      throw std::runtime_error("missing arguments; see header comment for usage");
  };
  if (args.command == "stats") return need(1), cmd_stats(args);
  if (args.command == "insert-scan") return need(1), cmd_insert_scan(args);
  if (args.command == "generate") return need(1), cmd_generate(args);
  if (args.command == "compact") return need(2), cmd_compact(args);
  if (args.command == "faultsim") return need(2), cmd_faultsim(args);
  if (args.command == "baseline") return need(1), cmd_baseline(args);
  if (args.command == "translate") return need(2), cmd_translate(args);
  if (args.command == "classify") return need(1), cmd_classify(args);
  if (args.command == "export") return need(2), cmd_export(args);
  if (args.command == "metrics") return need(2), cmd_metrics(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return usage();
  if (args->threads > 0) ThreadPool::set_global_threads(args->threads);
  if (!args->trace.empty()) obs::Tracer::start(args->trace);
  int rc;
  try {
    rc = run_command(*args);
  } catch (const std::exception& e) {
    report_error(args->json, e.what());
    rc = kExitError;
  } catch (...) {
    // Previously this escaped main and std::terminate'd; keep the exit
    // orderly and distinguishable from ordinary errors.
    report_error(args->json, "unexpected non-standard exception");
    rc = kExitInternal;
  }
  // Emitted even after an error: partial counter totals are still useful
  // and the line's shape stays machine-parseable either way.
  if (args->metrics) print_metrics_line();
  if (!args->trace.empty()) obs::Tracer::stop_and_write();
  return rc;
}
