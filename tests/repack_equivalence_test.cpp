// Live-fault batch repacking (DESIGN.md §5j) moves the surviving faults of
// a streaming session into dense batches and narrower slot words between
// advances. A fault's detection is a function of its own machine alone, so
// a chunked session must report exactly what the scalar reference simulator
// (tests/reference_sim.hpp, which shares no code with the kernel) computes
// over the whole sequence: the gain of every chunk, every detection time,
// and for every undetected fault the (good, faulty) state pair and the
// launch history. These tests check that for both streaming sessions under
// width caps 64/256/512 and 1/4 threads, assert the layer actually fires
// and reclaims lanes, and replay a snapshot restored across a repack.
//
// The same file builds twice: the default (tier1) matrix in uniscan_tests,
// and a seed-reproducible fuzz sweep in uniscan_slow_tests
// (-DUNISCAN_SLOW_FUZZ, ctest label `slow`).
#include <gtest/gtest.h>

#include <array>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/transition_fault.hpp"
#include "obs/counters.hpp"
#include "reference_sim.hpp"
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

constexpr std::array<SlotWidth, 3> kWidths = {SlotWidth::W64, SlotWidth::W256, SlotWidth::W512};

struct PoolGuard {
  explicit PoolGuard(std::size_t n) { ThreadPool::set_global_threads(n); }
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

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

/// The reference simulator's view of a chunked run: every fault simulated
/// alone over the concatenated chunks, and each detection credited to the
/// chunk holding its first detection frame.
struct Reference {
  std::vector<std::size_t> gains;
  std::vector<ref::Result> results;
};

template <class FaultT>
Reference reference_run(const Netlist& nl, std::span<const FaultT> faults,
                        const std::vector<TestSequence>& chunks) {
  TestSequence whole(nl.num_inputs());
  std::vector<std::size_t> chunk_end;
  for (const TestSequence& c : chunks) {
    whole.append_sequence(c);
    chunk_end.push_back(whole.length());
  }
  Reference r;
  r.gains.assign(chunks.size(), 0);
  for (const FaultT& f : faults) {
    const ref::Result& res = r.results.emplace_back(ref::simulate(nl, f, whole));
    if (!res.detected) continue;
    std::size_t k = 0;
    while (chunk_end[k] <= res.time) ++k;
    ++r.gains[k];
  }
  return r;
}

/// Advance a fresh `Session` chunk by chunk and compare it with the
/// reference: every chunk's gain, every detection time, and every
/// undetected fault's final state pair (and, for transition faults, its
/// launch history).
template <class Session, class FaultT>
void expect_session_matches_reference(const Netlist& nl, std::span<const FaultT> faults,
                                      const std::vector<TestSequence>& chunks,
                                      const Reference& want) {
  constexpr bool kTransition = std::is_same_v<FaultT, TransitionFault>;
  Session session(nl, faults);
  for (std::size_t k = 0; k < chunks.size(); ++k)
    ASSERT_EQ(session.advance(chunks[k]), want.gains[k]) << "chunk " << k;
  State good, faulty;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const ref::Result& r = want.results[i];
    ASSERT_EQ(session.is_detected(i), r.detected) << "fault " << i;
    if (r.detected) {
      ASSERT_EQ(session.detections()[i].time, r.time) << "fault " << i;
      continue;
    }
    V3 prev = V3::X;
    session.pair_state(i, good, faulty, &prev);
    ASSERT_EQ(good, r.good_state) << "fault " << i;
    ASSERT_EQ(faulty, r.faulty_state) << "fault " << i;
    if (kTransition) {
      ASSERT_EQ(prev, r.prev_driven) << "fault " << i;
    }
  }
}

#ifndef UNISCAN_SLOW_FUZZ

void expect_same_detections(const std::vector<DetectionRecord>& got,
                            const std::vector<DetectionRecord>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].detected, want[i].detected) << what << " fault " << i;
    EXPECT_EQ(got[i].time, want[i].time) << what << " fault " << i;
  }
}

/// Trajectory of a chunked session run: per-chunk gains plus the final
/// detection records.
struct Trajectory {
  std::vector<std::size_t> gains;
  std::vector<DetectionRecord> detections;
};

/// Advance a fresh `Session` chunk by chunk.
template <class Session, class FaultSpan>
Trajectory run_session(const Netlist& nl, const FaultSpan& faults,
                       const std::vector<TestSequence>& chunks) {
  Session session(nl, faults);
  Trajectory t;
  for (const TestSequence& c : chunks) t.gains.push_back(session.advance(c));
  t.detections = session.detections();
  return t;
}

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
// Tier-1: width cap × threads against the reference, both fault models.
// ---------------------------------------------------------------------------

TEST(RepackEquivalence, SessionMatrixStuckAt) {
  const ScanCircuit sc = insert_scan(make_wide_circuit(3));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u) << "circuit too small to span 256-bit batches";
  const std::span<const Fault> faults(fl.faults());
  std::vector<TestSequence> chunks;
  for (std::uint64_t k = 0; k < 6; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 16, 101 + k));
  const Reference want = reference_run(sc.netlist, faults, chunks);

  for (const SlotWidth w : kWidths) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("width cap=" + std::to_string(slot_width_bits(w)) +
                   " threads=" + std::to_string(n));
      const detail::SlotWidthCap cap(w);
      const PoolGuard pg(n);
      expect_session_matches_reference<FaultSimSession>(sc.netlist, faults, chunks, want);
    }
  }
}

TEST(RepackEquivalence, SessionMatrixTransition) {
  const ScanCircuit sc = insert_scan(make_wide_circuit(5));
  const auto faults = enumerate_transition_faults(sc.netlist);
  ASSERT_GT(faults.size(), 255u);
  const std::span<const TransitionFault> tf(faults);
  std::vector<TestSequence> chunks;
  for (std::uint64_t k = 0; k < 6; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 16, 211 + k));
  const Reference want = reference_run(sc.netlist, tf, chunks);

  for (const SlotWidth w : kWidths) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("width cap=" + std::to_string(slot_width_bits(w)) +
                   " threads=" + std::to_string(n));
      const detail::SlotWidthCap cap(w);
      const PoolGuard pg(n);
      expect_session_matches_reference<TransitionSimSession>(sc.netlist, tf, chunks, want);
    }
  }
}

// ---------------------------------------------------------------------------
// The layer must actually fire: a reference check of sessions that never
// repack proves nothing about repacking.
// ---------------------------------------------------------------------------

TEST(RepackEquivalence, RepackFiresAndReclaimsLanes) {
  if (!obs::enabled()) GTEST_SKIP() << "counters disabled";
  const ScanCircuit sc = insert_scan(make_wide_circuit(7));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u);
  std::vector<TestSequence> chunks;
  for (std::uint64_t k = 0; k < 10; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 24, 301 + k));

  const obs::CounterScope scope;
  run_session<FaultSimSession>(sc.netlist, fl.faults(), chunks);
  EXPECT_GE(scope.delta(obs::Counter::RepackEvents), 1u)
      << "random chunks detected enough faults that at least one repack must fire";
  EXPECT_GE(scope.delta(obs::Counter::LanesReclaimed), 1u);
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

  // Detour: capture after head, run the whole tail (repacks happen along
  // the way), restore, replay the tail. The replay must be identical.
  FaultSimSession session(sc.netlist, fl.faults());
  session.advance(head);
  const auto snap = session.snapshot();
  {
    const obs::CounterScope scope;
    for (const TestSequence& c : tail) session.advance(c);
    if (obs::enabled()) {
      EXPECT_GE(scope.delta(obs::Counter::RepackEvents), 1u) << "no repack to restore across";
    }
  }
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

#else  // UNISCAN_SLOW_FUZZ

// ---------------------------------------------------------------------------
// Slow tier: seed-reproducible fuzz — random circuits, random chunk
// schedules, both sessions under every width cap against the reference.
// Every case is a pure function of the seed.
// ---------------------------------------------------------------------------

class RepackFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepackFuzz, SessionsMatchReference) {
  const std::uint64_t seed = GetParam();
  SynthSpec spec;
  spec.name = "repackfuzz" + std::to_string(seed);
  spec.num_inputs = 4 + seed % 5;
  spec.num_dffs = 4 + seed % 7;
  spec.num_gates = 90 + static_cast<std::size_t>(seed % 4) * 45;
  spec.seed = seed * 2654435761u;
  const ScanCircuit sc = insert_scan(generate_synthetic(spec));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const std::span<const Fault> faults(fl.faults());
  const auto tfaults = enumerate_transition_faults(sc.netlist);
  const std::span<const TransitionFault> tf(tfaults);

  Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<TestSequence> chunks;
  const std::size_t num_chunks = 4 + rng.next() % 5;
  for (std::size_t k = 0; k < num_chunks; ++k)
    chunks.push_back(make_random_sequence(sc.netlist, 8 + rng.next() % 25, rng.next()));
  const Reference want_sa = reference_run(sc.netlist, faults, chunks);
  const Reference want_tr = reference_run(sc.netlist, tf, chunks);

  const PoolGuard pg(4);
  for (const SlotWidth w : kWidths) {
    SCOPED_TRACE("width cap=" + std::to_string(slot_width_bits(w)));
    const detail::SlotWidthCap cap(w);
    expect_session_matches_reference<FaultSimSession>(sc.netlist, faults, chunks, want_sa);
    expect_session_matches_reference<TransitionSimSession>(sc.netlist, tf, chunks, want_tr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepackFuzz, ::testing::Range<std::uint64_t>(1, 13));

#endif  // UNISCAN_SLOW_FUZZ

}  // namespace
}  // namespace uniscan
