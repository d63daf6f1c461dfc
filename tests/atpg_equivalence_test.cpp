// Thread-count invariance of the test GENERATORS. The sessions inside
// generate_tests / generate_transition_tests fan 63-fault batches across
// ThreadPool::global(); the determinism contract (DESIGN.md §5d) says the
// thread count may only change wall-clock time, never a single bit of the
// result. These tests pin the full AtpgResult — the generated sequence, the
// per-fault detection records, every counter, and even the gate-evaluation
// work metric — bit-identical at 1, 2, 4 and 8 threads for both fault
// models, on the real s27 and on a synthetic suite circuit.
#include <gtest/gtest.h>

#include <cstddef>

#include "atpg/seq_atpg.hpp"
#include "atpg/transition_atpg.hpp"
#include "fault/fault_list.hpp"
#include "fault/transition_fault.hpp"
#include "scan/scan_insertion.hpp"
#include "util/thread_pool.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

struct PoolGuard {
  explicit PoolGuard(std::size_t n) { ThreadPool::set_global_threads(n); }
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

void expect_same_stats(const AtpgStats& got, const AtpgStats& want) {
  EXPECT_EQ(got.podem_calls, want.podem_calls);
  EXPECT_EQ(got.podem_successes, want.podem_successes);
  EXPECT_EQ(got.scan_load_assisted, want.scan_load_assisted);
  EXPECT_EQ(got.fallback_attempts, want.fallback_attempts);
  EXPECT_EQ(got.random_chunks_accepted, want.random_chunks_accepted);
}

void expect_same_detection(const AtpgResult& got, const AtpgResult& want) {
  ASSERT_EQ(got.detection.size(), want.detection.size());
  for (std::size_t i = 0; i < got.detection.size(); ++i) {
    EXPECT_EQ(got.detection[i].detected, want.detection[i].detected) << "fault " << i;
    EXPECT_EQ(got.detection[i].time, want.detection[i].time) << "fault " << i;
  }
}

void expect_same(const AtpgResult& got, const AtpgResult& want) {
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.num_faults, want.num_faults);
  EXPECT_EQ(got.detected, want.detected);
  EXPECT_EQ(got.detected_by_scan_knowledge, want.detected_by_scan_knowledge);
  EXPECT_EQ(got.proved_redundant, want.proved_redundant);
  EXPECT_EQ(got.gate_evals, want.gate_evals);
  expect_same_detection(got, want);
  expect_same_stats(got.stats, want.stats);
}

TEST(AtpgEquivalence, StuckAtBitIdenticalAcrossThreads) {
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);

  PoolGuard one(1);
  const AtpgResult want = generate_tests(sc, fl, {});
  ASSERT_EQ(want.detected, want.num_faults);  // s27: full coverage expected

  for (const std::size_t threads : kThreadCounts) {
    PoolGuard guard(threads);
    const AtpgResult got = generate_tests(sc, fl, {});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

TEST(AtpgEquivalence, StuckAtSyntheticCircuitAcrossThreads) {
  // A suite stand-in large enough to fill several 63-fault batches, so the
  // batch fan-out actually spans workers.
  const Netlist c = load_circuit(*find_suite_entry("b02"));
  const ScanCircuit sc = insert_scan(c);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 63u);

  PoolGuard one(1);
  const AtpgResult want = generate_tests(sc, fl, {});
  for (const std::size_t threads : kThreadCounts) {
    PoolGuard guard(threads);
    const AtpgResult got = generate_tests(sc, fl, {});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

TEST(AtpgEquivalence, StuckAtNoScanKnowledgeAcrossThreads) {
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  AtpgOptions opt;
  opt.use_scan_knowledge = false;

  PoolGuard one(1);
  const AtpgResult want = generate_tests(sc, fl, opt);
  for (const std::size_t threads : kThreadCounts) {
    PoolGuard guard(threads);
    const AtpgResult got = generate_tests(sc, fl, opt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

TEST(AtpgEquivalence, TransitionBitIdenticalAcrossThreads) {
  const ScanCircuit sc = insert_scan(make_s27());
  const auto faults = enumerate_transition_faults(sc.netlist);

  PoolGuard one(1);
  const TransitionAtpgResult want = generate_transition_tests(sc, faults, {});
  ASSERT_GT(want.detected, 0u);

  for (const std::size_t threads : kThreadCounts) {
    PoolGuard guard(threads);
    const TransitionAtpgResult got = generate_transition_tests(sc, faults, {});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

TEST(AtpgEquivalence, RepeatedRunsIdenticalAtSameThreadCount) {
  // Re-running at a FIXED thread count must also be bit-identical: the
  // generator may not depend on scheduling order even indirectly.
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  PoolGuard guard(4);
  const AtpgResult first = generate_tests(sc, fl, {});
  const AtpgResult second = generate_tests(sc, fl, {});
  expect_same(second, first);
}

}  // namespace
}  // namespace uniscan
