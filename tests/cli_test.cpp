// End-to-end tests of the uniscan_cli binary (path injected by CMake).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "netlist/bench_io.hpp"
#include "workloads/suite.hpp"

#ifndef UNISCAN_CLI_PATH
#define UNISCAN_CLI_PATH ""
#endif
#ifndef UNISCAN_CORPUS_TOOL_PATH
#define UNISCAN_CORPUS_TOOL_PATH ""
#endif
#ifndef UNISCAN_TABLE_PATH
#define UNISCAN_TABLE_PATH ""
#endif
#ifndef UNISCAN_SUITE_TABLE_PATH
#define UNISCAN_SUITE_TABLE_PATH ""
#endif

namespace {

struct RunResult {
  int exit_code;
  std::string output;  // stdout + stderr
};

// Scratch paths carry the pid: ctest -j runs each CliFlow test in its own
// process against the shared TempDir, so fixed names race across tests.
std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + "cli_" + std::to_string(::getpid()) + "_" + name;
}

RunResult run_binary(const std::string& binary, const std::string& args) {
  const std::string out_path = scratch_path("out.txt");
  const std::string cmd = binary + " " + args + " > " + out_path + " 2>&1";
  const int status = std::system(cmd.c_str());
  std::ifstream f(out_path);
  std::stringstream ss;
  ss << f.rdbuf();
  std::remove(out_path.c_str());
  return {WEXITSTATUS(status), ss.str()};
}

RunResult run_cli(const std::string& args) { return run_binary(UNISCAN_CLI_PATH, args); }

/// Every numeric flag is parsed strictly: `binary <head> <flag> <tail>`
/// with each bad value in `flags` must be a usage error (exit 2) whose
/// message names the flag — never an abort and never a silently misread
/// value.
void expect_usage_errors(const std::string& binary, const std::string& head,
                         const std::string& tail, std::initializer_list<const char*> flags) {
  for (const std::string flag : flags) {
    const RunResult r = run_binary(binary, head + " " + flag + " " + tail);
    EXPECT_EQ(r.exit_code, 2) << flag << ": " << r.output;
    EXPECT_NE(r.output.find(flag.substr(0, flag.find('='))), std::string::npos)
        << flag << ": " << r.output;
  }
}

std::string write_demo_bench() {
  const std::string path = scratch_path("demo.bench");
  std::ofstream f(path);
  f << "INPUT(a)\nINPUT(b)\nOUTPUT(o)\n"
    << "f0 = DFF(n0)\nf1 = DFF(f0)\n"
    << "n0 = XOR(a, f1)\no = AND(b, f0)\n";
  return path;
}

class CliFlow : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(UNISCAN_CLI_PATH).empty()) GTEST_SKIP() << "CLI path not configured";
    bench_ = write_demo_bench();
  }
  void TearDown() override { std::remove(bench_.c_str()); }
  std::string bench_;
};

TEST_F(CliFlow, NoArgsShowsUsage) {
  const RunResult r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliFlow, Stats) {
  const RunResult r = run_cli("stats " + bench_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("2 PIs"), std::string::npos);
  EXPECT_NE(r.output.find("collapsed faults"), std::string::npos);
}

TEST_F(CliFlow, InsertScanEmitsParsableBench) {
  const RunResult r = run_cli("insert-scan " + bench_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("INPUT(scan_sel)"), std::string::npos);
  EXPECT_NE(r.output.find("MUX"), std::string::npos);
}

TEST_F(CliFlow, GenerateCompactFaultsimPipeline) {
  const std::string seq = ::testing::TempDir() + "cli_seq.useq";
  const std::string cseq = ::testing::TempDir() + "cli_cseq.useq";

  RunResult r = run_cli("generate " + bench_ + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("coverage"), std::string::npos);

  // --threads sizes the pool for every command; the generated sequence
  // never depends on it.
  const auto generated = [&](const char* threads) {
    const std::string path = scratch_path(std::string("threads") + threads + ".useq");
    const RunResult g =
        run_cli("generate " + bench_ + " --threads=" + threads + " -o " + path);
    EXPECT_EQ(g.exit_code, 0) << g.output;
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    std::remove(path.c_str());
    return ss.str();
  };
  const std::string one_thread = generated("1");
  EXPECT_FALSE(one_thread.empty());
  EXPECT_EQ(one_thread, generated("4"));

  r = run_cli("compact " + bench_ + " " + seq + " -o " + cseq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("omission:"), std::string::npos);

  r = run_cli("faultsim " + bench_ + " " + cseq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("detected"), std::string::npos);

  std::remove(seq.c_str());
  std::remove(cseq.c_str());
}

TEST_F(CliFlow, BaselineAndTranslate) {
  const std::string tst = ::testing::TempDir() + "cli_tests.utst";
  RunResult r = run_cli("baseline " + bench_ + " -o " + tst);
  ASSERT_EQ(r.exit_code, 0) << r.output;

  r = run_cli("translate " + bench_ + " " + tst + " --x-fill=repeat");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("useq v1"), std::string::npos);
  std::remove(tst.c_str());
}

TEST_F(CliFlow, Classify) {
  const RunResult r = run_cli("classify " + bench_);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("testable"), std::string::npos);
}

TEST_F(CliFlow, ExportEmitsTesterProgram) {
  const std::string seq = ::testing::TempDir() + "cli_exp.useq";
  RunResult r = run_cli("generate " + bench_ + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = run_cli("export " + bench_ + " " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("tester program"), std::string::npos);
  EXPECT_NE(r.output.find("scan operation"), std::string::npos);
  EXPECT_NE(r.output.find("expected outputs"), std::string::npos);
  std::remove(seq.c_str());
}

TEST_F(CliFlow, MetricsCommand) {
  const std::string seq = ::testing::TempDir() + "cli_met.useq";
  RunResult r = run_cli("generate " + bench_ + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  r = run_cli("metrics " + bench_ + " " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("scan operations"), std::string::npos);
  EXPECT_NE(r.output.find("input transitions"), std::string::npos);
  std::remove(seq.c_str());
}

TEST_F(CliFlow, MultiChainFlow) {
  const RunResult r = run_cli("baseline " + bench_ + " --chains=2");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("coverage"), std::string::npos);
}

TEST_F(CliFlow, BadFileFailsCleanly) {
  const RunResult r = run_cli("stats /nonexistent/file.bench");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST_F(CliFlow, UnknownFlagRejected) {
  const RunResult r = run_cli("stats " + bench_ + " --frobnicate");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliFlow, JsonFlagEmitsStructuredError) {
  const RunResult r = run_cli("stats /nonexistent/file.bench --json");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("{\"error\":"), std::string::npos) << r.output;
  // The plain-text channel still carries the message for humans/logs.
  EXPECT_NE(r.output.find("error:"), std::string::npos) << r.output;
}

TEST_F(CliFlow, MetricsFlagEmitsSchemaAndCounterTotals) {
  const std::string seq = ::testing::TempDir() + "cli_obs.useq";
  const RunResult r = run_cli("generate " + bench_ + " --metrics -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("{\"schema_version\": 2, \"counters\": {"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"gate_evals\": "), std::string::npos) << r.output;
  // Generation simulates: its run must have counted SOME gate evaluations.
  EXPECT_EQ(r.output.find("\"gate_evals\": 0,"), std::string::npos) << r.output;
  std::remove(seq.c_str());
}

TEST_F(CliFlow, MetricsFlagStaysStructuredOnError) {
  const RunResult r = run_cli("stats /nonexistent/file.bench --json --metrics");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("{\"error\":"), std::string::npos) << r.output;
  // The totals line is still emitted (all-zero: nothing ran), so machine
  // consumers can parse the same shape on both paths.
  EXPECT_NE(r.output.find("{\"schema_version\": 2, \"counters\": {"), std::string::npos)
      << r.output;
}

TEST_F(CliFlow, TraceFlagWritesChromeTraceJson) {
  const std::string seq = ::testing::TempDir() + "cli_tr.useq";
  const std::string trace = ::testing::TempDir() + "cli_tr.json";
  const RunResult r =
      run_cli("generate " + bench_ + " --trace=" + trace + " -o " + seq);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream f(trace);
  ASSERT_TRUE(f.is_open()) << trace;
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"name\": \"podem\""), std::string::npos)
      << "generation should have recorded PODEM spans";
  std::remove(seq.c_str());
  std::remove(trace.c_str());
}

TEST_F(CliFlow, GenerateUnderExpiredBudgetDegradesGracefully) {
  // A zero time budget must not crash or hang: the CLI reports the verified
  // best-so-far result, flags the timeout, and still exits 0 (a timeout is a
  // degraded success, not an error).
  const RunResult r = run_cli("generate " + bench_ + " --time-budget=0.000001");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("TIMED OUT"), std::string::npos) << r.output;
}

// Exit-code taxonomy (core/exit_codes.hpp), shared with the table binaries:
// 0 success, 1 runtime error, 2 usage (unknown flag or command), 4 isolated
// suite failures (table binaries only).
// Scripts branch on WHAT went wrong.
TEST_F(CliFlow, ExitCodeTaxonomy) {
  EXPECT_EQ(run_cli("stats " + bench_).exit_code, 0);
  EXPECT_EQ(run_cli("stats /nonexistent.bench").exit_code, 1);
  EXPECT_EQ(run_cli("").exit_code, 2);
  EXPECT_EQ(run_cli("stats " + bench_ + " --no-such-flag").exit_code, 2);
  EXPECT_EQ(run_cli("no-such-command").exit_code, 2);
  EXPECT_EQ(run_cli("serve").exit_code, 2);
  EXPECT_EQ(run_cli("--serve").exit_code, 2);
}

// `--threads=N` sizes the pool for every command, and a thread count changes
// scheduling only: each command's messages and output file are byte-identical
// at --threads=1 and --threads=4. The circuit is s208's synthetic stand-in,
// whose collapsed faults fill several simulation batches, so the pool has
// work to split.
struct ThreadedCommand {
  const char* name;
  const char* args;  // `{bench}`, `{seq}` and `{tests}` name prepared inputs
  bool writes_file;  // the command takes `-o <file>`
};

// Names the case in test listings (ctest shows the printed parameter).
void PrintTo(const ThreadedCommand& c, std::ostream* os) { *os << c.name; }

std::string expand(std::string text, const std::string& key, const std::string& value) {
  for (std::size_t at = text.find(key); at != std::string::npos; at = text.find(key, at))
    text.replace(at, key.size(), value);
  return text;
}

class CliThreads : public ::testing::TestWithParam<ThreadedCommand> {
 protected:
  void SetUp() override {
    if (std::string(UNISCAN_CLI_PATH).empty()) GTEST_SKIP() << "CLI path not configured";
    bench_ = scratch_path("s208.bench");
    seq_ = scratch_path("s208.useq");
    tests_ = scratch_path("s208.utst");
    std::ofstream(bench_) << uniscan::write_bench_string(
        uniscan::load_circuit(*uniscan::find_suite_entry("s208")));
    const std::string args = GetParam().args;
    if (args.find("{seq}") != std::string::npos) {
      const RunResult g = run_cli("generate " + bench_ + " -o " + seq_);
      ASSERT_EQ(g.exit_code, 0) << g.output;
    }
    if (args.find("{tests}") != std::string::npos) {
      const RunResult b = run_cli("baseline " + bench_ + " -o " + tests_);
      ASSERT_EQ(b.exit_code, 0) << b.output;
    }
  }
  void TearDown() override {
    for (const std::string& path : {bench_, seq_, tests_}) std::remove(path.c_str());
  }

  /// Messages of one run, followed by the file it wrote (if any).
  std::string run_at(const std::string& threads) {
    const ThreadedCommand& c = GetParam();
    const std::string out = scratch_path("threads" + threads + ".out");
    std::string args = expand(expand(expand(c.args, "{bench}", bench_), "{seq}", seq_),
                              "{tests}", tests_);
    args += " --threads=" + threads;
    if (c.writes_file) args += " -o " + out;
    const RunResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 0) << args << ": " << r.output;
    std::ifstream f(out);
    std::stringstream ss;
    ss << f.rdbuf();
    std::remove(out.c_str());
    if (c.writes_file) {
      EXPECT_FALSE(ss.str().empty()) << args;
    }
    return r.output + "--- file ---\n" + ss.str();
  }

  std::string bench_, seq_, tests_;
};

TEST_P(CliThreads, OutputIndependentOfThreadCount) {
  const std::string one = run_at("1");
  EXPECT_EQ(one, run_at("4"));
}

INSTANTIATE_TEST_SUITE_P(
    Commands, CliThreads,
    ::testing::Values(ThreadedCommand{"Stats", "stats {bench}", false},
                      ThreadedCommand{"InsertScan", "insert-scan {bench}", false},
                      ThreadedCommand{"Generate", "generate {bench}", true},
                      ThreadedCommand{"Compact", "compact {bench} {seq}", true},
                      ThreadedCommand{"Faultsim", "faultsim {bench} {seq}", false},
                      ThreadedCommand{"Baseline", "baseline {bench}", true},
                      ThreadedCommand{"Translate", "translate {bench} {tests}", true},
                      ThreadedCommand{"Classify", "classify {bench}", false},
                      ThreadedCommand{"Export", "export {bench} {seq}", false},
                      ThreadedCommand{"Metrics", "metrics {bench} {seq}", false}),
    [](const ::testing::TestParamInfo<ThreadedCommand>& info) { return info.param.name; });

}  // namespace

TEST_F(CliFlow, NumericFlagsRejectedWithUsageCode) {
  expect_usage_errors(UNISCAN_CLI_PATH, "generate " + bench_, "",
                      {"--threads=-3", "--seed=banana", "--time-budget=soon", "--chains=2x",
                       "--threads=99999999999"});
}

TEST(NumericFlags, TableBinaryRejectsBadValues) {
  if (std::string(UNISCAN_TABLE_PATH).empty()) GTEST_SKIP() << "bench tree not built";
  expect_usage_errors(UNISCAN_TABLE_PATH, "", "",
                      {"--threads=-3", "--threads=99999999999", "--seed=banana",
                       "--seed=-1", "--time-budget=soon", "--time-budget=-2",
                       "--per-circuit-budget=nan"});
  // Well-formed values still run.
  const RunResult ok = run_binary(UNISCAN_TABLE_PATH, "--threads=2 --seed=7 --time-budget=600");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST(NumericFlags, CorpusToolRejectsBadValues) {
  if (std::string(UNISCAN_CORPUS_TOOL_PATH).empty()) GTEST_SKIP() << "corpus_tool not built";
  // corpus_tool takes no --seed or --time-budget: those are unknown flags,
  // still a usage error naming the flag.
  expect_usage_errors(UNISCAN_CORPUS_TOOL_PATH, "", "list",
                      {"--threads=-3", "--threads=banana", "--threads=99999999999",
                       "--seed=banana", "--time-budget=soon"});
  EXPECT_EQ(run_binary(UNISCAN_CORPUS_TOOL_PATH, "--threads=2 list fast").exit_code, 0);
}

TEST(SuiteSelection, RepeatedCircuitNameRejected) {
  if (std::string(UNISCAN_SUITE_TABLE_PATH).empty()) GTEST_SKIP() << "bench tree not built";
  // With and without --corpus: a repeated name is a usage error that names
  // the circuit, never a silent exit or a double-counted row.
  for (const std::string flags : {"--corpus=fast --circuits=s27,s27", "--circuits=s27,s27",
                                  "--circuits=s27,b01,s27"}) {
    const RunResult r = run_binary(UNISCAN_SUITE_TABLE_PATH, flags);
    EXPECT_EQ(r.exit_code, 2) << flags << ": " << r.output;
    EXPECT_NE(r.output.find("'s27' is repeated"), std::string::npos) << flags << ": " << r.output;
  }
  const RunResult ok = run_binary(UNISCAN_SUITE_TABLE_PATH, "--corpus=fast --circuits=s27");
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
}

TEST_F(CliFlow, MalformedEnvOverridesRejected) {
  // `VAR=value binary args`: each front end must refuse a malformed
  // UNISCAN_SLOT_WIDTH / UNISCAN_REPACK with exit 2 and a message naming
  // the variable and its value, instead of silently running with a default.
  std::vector<std::pair<std::string, std::string>> runs = {
      {UNISCAN_CLI_PATH, "stats " + bench_}, {UNISCAN_CORPUS_TOOL_PATH, "list fast"}};
  if (!std::string(UNISCAN_TABLE_PATH).empty()) runs.emplace_back(UNISCAN_TABLE_PATH, "");
  for (const auto& [binary, args] : runs) {
    for (const std::string env : {"UNISCAN_SLOT_WIDTH=128", "UNISCAN_REPACK=maybe"}) {
      const RunResult r = run_binary(env + " " + binary, args);
      EXPECT_EQ(r.exit_code, 2) << env << " " << binary << ": " << r.output;
      EXPECT_NE(r.output.find(env), std::string::npos) << env << " " << binary << ": "
                                                      << r.output;
    }
    const RunResult ok = run_binary("UNISCAN_SLOT_WIDTH=64 UNISCAN_REPACK=off " + binary, args);
    EXPECT_EQ(ok.exit_code, 0) << binary << ": " << ok.output;
  }
}
