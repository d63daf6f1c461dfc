// Live-fault batch repacking (DESIGN.md §5j) is a pure work knob: at wave
// boundaries the sessions repack surviving faults into dense batches and
// auto-narrow the slot word, but a fault's detection is a function of its
// own slot alone, so detections, detection times, committed sequences and
// corpus digests must be bit-identical with repacking on or off, at every
// slot width and every thread count. These tests pin that down for both
// streaming sessions (chunked advance + snapshot/restore across a repack),
// assert the layer actually fires and reclaims lanes, and check the fast
// corpus tier's golden digests against the repack-off path.
//
// Under the forced CI jobs (UNISCAN_REPACK=0 / UNISCAN_SLOT_WIDTH=64) the
// environment override outranks set_global_repack, degenerating parts of
// the matrix to off-vs-off — which is the point there; the firing test
// skips itself when it cannot turn repacking on.
//
// The same file builds twice: the default (tier1) matrix in uniscan_tests,
// and a seed-reproducible fuzz sweep in uniscan_slow_tests
// (-DUNISCAN_SLOW_FUZZ, ctest label `slow`).
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "corpus/golden.hpp"
#include "fault/fault_list.hpp"
#include "fault/transition_fault.hpp"
#include "obs/counters.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/engine.hpp"
#include "sim/fault_sim.hpp"
#include "sim/fault_sim_session.hpp"
#include "sim/transition_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/circuits.hpp"
#include "workloads/synth_gen.hpp"

namespace uniscan {
namespace {

constexpr std::array<SlotWidth, 4> kWidths = {SlotWidth::W64, SlotWidth::W256, SlotWidth::W512,
                                              SlotWidth::Auto};
constexpr std::array<std::size_t, 4> kThreads = {1, 2, 4, 8};

struct RepackGuard {
  explicit RepackGuard(bool on) { set_global_repack(on); }
  ~RepackGuard() { set_global_repack(true); }
};

struct WidthGuard {
  explicit WidthGuard(SlotWidth w) { set_global_slot_width(w); }
  ~WidthGuard() { set_global_slot_width(SlotWidth::Auto); }
};

struct PoolGuard {
  explicit PoolGuard(std::size_t n) { ThreadPool::set_global_threads(n); }
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

void expect_same_detections(const std::vector<DetectionRecord>& got,
                            const std::vector<DetectionRecord>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].detected, want[i].detected) << what << " fault " << i;
    EXPECT_EQ(got[i].time, want[i].time) << what << " fault " << i;
  }
}

TestSequence make_random_sequence(const Netlist& nl, std::size_t length, std::uint64_t seed) {
  Rng rng(seed);
  TestSequence seq(nl.num_inputs());
  for (std::size_t t = 0; t < length; ++t) {
    std::vector<V3> vec(nl.num_inputs());
    for (auto& v : vec) v = rng.next_bool() ? V3::One : V3::Zero;
    seq.append(std::move(vec));
  }
  return seq;
}

/// Reference trajectory of a chunked session run: per-chunk gains plus the
/// final detection records.
struct Trajectory {
  std::vector<std::size_t> gains;
  std::vector<DetectionRecord> detections;
};

template <class Session, class FaultSpan>
Trajectory run_session(const Netlist& nl, const FaultSpan& faults,
                       const std::vector<TestSequence>& chunks) {
  Session session(nl, faults);
  Trajectory t;
  for (const TestSequence& c : chunks) t.gains.push_back(session.advance(c));
  t.detections = session.detections();
  return t;
}

#ifndef UNISCAN_SLOW_FUZZ

/// Big enough to span several 256-bit batches, so repacking has batches to
/// merge and widths to narrow through.
Netlist make_wide_circuit(std::uint64_t seed) {
  SynthSpec spec;
  spec.name = "repack" + std::to_string(seed);
  spec.num_inputs = 6;
  spec.num_dffs = 8;
  spec.num_gates = 140;
  spec.seed = seed;
  return generate_synthetic(spec);
}

// ---------------------------------------------------------------------------
// Tier-1: repack on/off × width × threads against the repack-off 64-bit
// single-threaded reference, both fault models.
// ---------------------------------------------------------------------------

TEST(RepackEquivalence, SessionMatrixStuckAt) {
  const ScanCircuit sc = insert_scan(make_wide_circuit(3));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u) << "circuit too small to span 256-bit batches";
  std::vector<TestSequence> chunks;
  for (std::uint64_t k = 0; k < 6; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 16, 101 + k));

  Trajectory want;
  {
    const RepackGuard rg(false);
    const WidthGuard wg(SlotWidth::W64);
    want = run_session<FaultSimSession>(sc.netlist, fl.faults(), chunks);
  }

  for (const bool repack : {false, true}) {
    for (const SlotWidth w : kWidths) {
      for (const std::size_t n : kThreads) {
        SCOPED_TRACE(std::string("repack=") + (repack ? "on" : "off") +
                     " width=" + std::to_string(slot_width_bits(w)) +
                     " threads=" + std::to_string(n));
        const RepackGuard rg(repack);
        const WidthGuard wg(w);
        const PoolGuard pg(n);
        const Trajectory got = run_session<FaultSimSession>(sc.netlist, fl.faults(), chunks);
        EXPECT_EQ(got.gains, want.gains);
        expect_same_detections(got.detections, want.detections, "stuck-at session");
      }
    }
  }
}

TEST(RepackEquivalence, SessionMatrixTransition) {
  const ScanCircuit sc = insert_scan(make_wide_circuit(5));
  const auto faults = enumerate_transition_faults(sc.netlist);
  ASSERT_GT(faults.size(), 255u);
  std::vector<TestSequence> chunks;
  for (std::uint64_t k = 0; k < 6; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 16, 211 + k));

  Trajectory want;
  {
    const RepackGuard rg(false);
    const WidthGuard wg(SlotWidth::W64);
    want = run_session<TransitionSimSession>(sc.netlist, std::span<const TransitionFault>(faults),
                                             chunks);
  }

  for (const bool repack : {false, true}) {
    for (const SlotWidth w : kWidths) {
      for (const std::size_t n : kThreads) {
        SCOPED_TRACE(std::string("repack=") + (repack ? "on" : "off") +
                     " width=" + std::to_string(slot_width_bits(w)) +
                     " threads=" + std::to_string(n));
        const RepackGuard rg(repack);
        const WidthGuard wg(w);
        const PoolGuard pg(n);
        const Trajectory got = run_session<TransitionSimSession>(
            sc.netlist, std::span<const TransitionFault>(faults), chunks);
        EXPECT_EQ(got.gains, want.gains);
        expect_same_detections(got.detections, want.detections, "transition session");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The layer must actually fire — an equivalence suite that silently tests
// off-vs-off proves nothing — and must only shed work, never add it.
// ---------------------------------------------------------------------------

TEST(RepackEquivalence, RepackFiresAndShedsWork) {
  {
    const RepackGuard probe(true);
    if (!global_repack()) GTEST_SKIP() << "repacking forced off by environment";
  }
  const ScanCircuit sc = insert_scan(make_wide_circuit(7));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u);
  std::vector<TestSequence> chunks;
  for (std::uint64_t k = 0; k < 10; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 24, 301 + k));

  std::uint64_t evals_off = 0;
  {
    const RepackGuard rg(false);
    const obs::CounterScope scope;
    run_session<FaultSimSession>(sc.netlist, fl.faults(), chunks);
    evals_off = scope.delta(obs::Counter::GateEvals);
  }

  const RepackGuard rg(true);
  const obs::CounterScope scope;
  run_session<FaultSimSession>(sc.netlist, fl.faults(), chunks);
  EXPECT_GE(scope.delta(obs::Counter::RepackEvents), 1u)
      << "random chunks detected enough faults that at least one repack must fire";
  EXPECT_GE(scope.delta(obs::Counter::LanesReclaimed), 1u);
  EXPECT_LE(scope.delta(obs::Counter::GateEvals), evals_off)
      << "repacking may only shed simulation work";
}

// ---------------------------------------------------------------------------
// Snapshot/restore across an intervening repack: the snapshot pins its pack.
// ---------------------------------------------------------------------------

TEST(RepackEquivalence, SnapshotRestoresAcrossRepack) {
  const ScanCircuit sc = insert_scan(make_wide_circuit(9));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u);
  const TestSequence head = make_random_sequence(sc.netlist, 16, 401);
  std::vector<TestSequence> tail;
  for (std::uint64_t k = 0; k < 8; ++k)
    tail.push_back(make_random_sequence(sc.netlist, 24, 411 + k));

  // Straight-through reference: head then tail, no snapshot detour.
  Trajectory want;
  {
    FaultSimSession ref(sc.netlist, fl.faults());
    ref.advance(head);
    for (const TestSequence& c : tail) want.gains.push_back(ref.advance(c));
    want.detections = ref.detections();
  }

  // Detour: capture after head, run the whole tail (repacks happen when the
  // layer is on), restore, replay the tail. The replay must be identical.
  FaultSimSession session(sc.netlist, fl.faults());
  session.advance(head);
  const auto snap = session.snapshot();
  for (const TestSequence& c : tail) session.advance(c);
  session.restore(snap);
  Trajectory got;
  for (const TestSequence& c : tail) got.gains.push_back(session.advance(c));
  got.detections = session.detections();
  EXPECT_EQ(got.gains, want.gains);
  expect_same_detections(got.detections, want.detections, "restored replay");

  // Cross-session restores still throw, including across a repack.
  FaultSimSession other(sc.netlist, fl.faults());
  EXPECT_THROW(other.restore(snap), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fast-tier golden digests: the repack-off path must reproduce the same
// checked-in digests the default (repack-on) path is pinned to by
// CorpusDigest.FastTierMatchesGolden. Three circuits keep the tier-1 cost
// bounded; the slow corpus sweep covers the rest via the default path.
// ---------------------------------------------------------------------------

TEST(RepackEquivalence, FastTierDigestsUnchangedWithRepackOff) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  const auto fast = reg.tier(CorpusTier::Fast);
  ASSERT_FALSE(fast.empty());
  const RepackGuard rg(false);
  std::size_t checked = 0;
  for (const CorpusEntry& e : fast) {
    if (checked == 3) break;
    SCOPED_TRACE(e.name);
    const std::string want = read_golden_sha(reg.golden_path(e));
    ASSERT_FALSE(want.empty()) << "no golden digest for " << e.name;
    EXPECT_EQ(compute_corpus_digest(reg, e).sha_hex, want)
        << e.name << ": --repack=off changed pipeline behavior";
    ++checked;
  }
}

#else  // UNISCAN_SLOW_FUZZ

// ---------------------------------------------------------------------------
// Slow tier: seed-reproducible fuzz — random circuits, random chunk
// schedules, both sessions, repack on/off × widths against the repack-off
// 64-bit reference. Every case is a pure function of the seed.
// ---------------------------------------------------------------------------

class RepackFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepackFuzz, SessionsMatchWithRepackOnAndOff) {
  const std::uint64_t seed = GetParam();
  SynthSpec spec;
  spec.name = "repackfuzz" + std::to_string(seed);
  spec.num_inputs = 4 + seed % 5;
  spec.num_dffs = 4 + seed % 7;
  spec.num_gates = 90 + static_cast<std::size_t>(seed % 4) * 45;
  spec.seed = seed * 2654435761u;
  const ScanCircuit sc = insert_scan(generate_synthetic(spec));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const auto tfaults = enumerate_transition_faults(sc.netlist);

  Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<TestSequence> chunks;
  const std::size_t num_chunks = 4 + rng.next() % 5;
  for (std::size_t k = 0; k < num_chunks; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 8 + rng.next() % 25, rng.next()));

  Trajectory want_sa, want_tr;
  {
    const RepackGuard rg(false);
    const WidthGuard wg(SlotWidth::W64);
    want_sa = run_session<FaultSimSession>(sc.netlist, fl.faults(), chunks);
    want_tr = run_session<TransitionSimSession>(sc.netlist,
                                                std::span<const TransitionFault>(tfaults), chunks);
  }

  for (const bool repack : {false, true}) {
    for (const SlotWidth w : kWidths) {
      SCOPED_TRACE(std::string("repack=") + (repack ? "on" : "off") +
                   " width=" + std::to_string(slot_width_bits(w)));
      const RepackGuard rg(repack);
      const WidthGuard wg(w);
      const PoolGuard pg(4);
      const Trajectory sa = run_session<FaultSimSession>(sc.netlist, fl.faults(), chunks);
      EXPECT_EQ(sa.gains, want_sa.gains);
      expect_same_detections(sa.detections, want_sa.detections, "stuck-at fuzz");
      const Trajectory tr = run_session<TransitionSimSession>(
          sc.netlist, std::span<const TransitionFault>(tfaults), chunks);
      EXPECT_EQ(tr.gains, want_tr.gains);
      expect_same_detections(tr.detections, want_tr.detections, "transition fuzz");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepackFuzz, ::testing::Range<std::uint64_t>(1, 13));

#endif  // UNISCAN_SLOW_FUZZ

}  // namespace
}  // namespace uniscan
