// The simulation slot width (64/256/512-bit words — see sim/slot_word.hpp)
// only changes how much work a run does: batches never interact, and every
// per-fault result is a function of that fault's slot alone, so detection
// records, latch records, compaction output and session state must be
// bit-identical at every width and every thread count. These tests pin that
// down by running the uncapped single-threaded configuration as the
// reference and sweeping the width-cap × thread matrix against it (the
// detail::SlotWidthCap seam; the engine still narrows below a cap), for
// both fault models, the one-shot simulators, compaction, and the
// streaming sessions (including the snapshot ownership contract), and by
// running the kernel's AVX2 / AVX-512 entries against its baseline body.
//
// The same file builds twice: the default (tier1) matrix in uniscan_tests,
// and a wider fuzz-circuit matrix in uniscan_slow_tests
// (-DUNISCAN_SLOW_FUZZ, ctest label `slow`).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "atpg/seq_atpg.hpp"
#include "compact/omission.hpp"
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

constexpr std::array<SlotWidth, 3> kWidths = {SlotWidth::W64, SlotWidth::W256, SlotWidth::W512};
constexpr std::array<std::size_t, 4> kThreads = {1, 2, 4, 8};

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

void expect_same_latches(const std::vector<LatchRecord>& got, const std::vector<LatchRecord>& want,
                         const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].latched, want[i].latched) << what << " fault " << i;
    EXPECT_EQ(got[i].ff_index, want[i].ff_index) << what << " fault " << i;
    EXPECT_EQ(got[i].time, want[i].time) << what << " fault " << i;
  }
}

/// A circuit whose collapsed fault list spans several 256-bit batches, so
/// the wider widths exercise real multi-batch packing, not just batch 0.
Netlist make_wide_circuit(std::uint64_t seed = 3) {
  SynthSpec spec;
  spec.name = "width" + std::to_string(seed);
  spec.num_inputs = 6;
  spec.num_dffs = 8;
  spec.num_gates = 140;
  spec.seed = seed;
  return generate_synthetic(spec);
}

/// A fully specified random sequence over the circuit's inputs.
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

#ifdef UNISCAN_SLOW_FUZZ
constexpr std::uint64_t kFuzzSeedEnd = 17;
#else
constexpr std::uint64_t kFuzzSeedEnd = 4;
#endif

// ---------------------------------------------------------------------------
// One-shot simulators: width × threads, stuck-at and transition.
// ---------------------------------------------------------------------------

TEST(WidthEquivalence, StuckAtRunMatrix) {
  const ScanCircuit sc = insert_scan(make_wide_circuit());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u) << "circuit too small to span 256-bit batches";
  const TestSequence seq = make_random_sequence(sc.netlist, 48, 11);

  FaultSimulator sim(sc.netlist);
  std::vector<LatchRecord> want_latched;
  const auto want = sim.run(seq, fl.faults(), &want_latched);
  const bool want_all = sim.detects_all(seq, fl.faults());

  for (const SlotWidth w : kWidths) {
    for (const std::size_t n : kThreads) {
      SCOPED_TRACE("width=" + std::to_string(slot_width_bits(w)) + " threads=" +
                   std::to_string(n));
      const detail::SlotWidthCap cap(w);
      const PoolGuard pg(n);
      std::vector<LatchRecord> latched;
      expect_same_detections(sim.run(seq, fl.faults(), &latched), want, "stuck-at");
      expect_same_latches(latched, want_latched, "stuck-at latch");
      EXPECT_EQ(sim.detects_all(seq, fl.faults()), want_all);
    }
  }
}

TEST(WidthEquivalence, TransitionRunMatrix) {
  const ScanCircuit sc = insert_scan(make_wide_circuit(5));
  const auto faults = enumerate_transition_faults(sc.netlist);
  ASSERT_GT(faults.size(), 255u);
  const TestSequence seq = make_random_sequence(sc.netlist, 48, 17);

  TransitionFaultSimulator sim(sc.netlist);
  const auto want = sim.run(seq, faults);

  for (const SlotWidth w : kWidths) {
    for (const std::size_t n : kThreads) {
      SCOPED_TRACE("width=" + std::to_string(slot_width_bits(w)) + " threads=" +
                   std::to_string(n));
      const detail::SlotWidthCap cap(w);
      const PoolGuard pg(n);
      expect_same_detections(sim.run(seq, faults), want, "transition");
    }
  }
}

// ---------------------------------------------------------------------------
// Compaction: the one-shot gradings around the omission engine follow the
// width cap and its fail-fast waves the thread count; the committed output
// must follow neither.
// ---------------------------------------------------------------------------

void expect_omission_invariant(const Netlist& nl, const TestSequence& seq,
                               std::span<const Fault> faults) {
  const CompactionResult want = omission_compact(nl, seq, faults, {});
  for (const SlotWidth w : kWidths) {
    for (const std::size_t n : kThreads) {
      SCOPED_TRACE("width=" + std::to_string(slot_width_bits(w)) + " threads=" +
                   std::to_string(n));
      const detail::SlotWidthCap cap(w);
      const PoolGuard pg(n);
      const CompactionResult got = omission_compact(nl, seq, faults, {});
      EXPECT_EQ(got.sequence, want.sequence);
      EXPECT_EQ(got.vectors_removed, want.vectors_removed);
      EXPECT_EQ(got.rounds, want.rounds);
      EXPECT_EQ(got.extra_detected, want.extra_detected);
    }
  }
}

TEST(WidthEquivalence, OmissionCompactionMatrix) {
  // s27's ATPG sequence, and a random sequence over a fault list wide
  // enough that the gradings run 256- and 512-bit words under those caps.
  const ScanCircuit sc = insert_scan(make_s27());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult atpg = generate_tests(sc, fl, {});
  expect_omission_invariant(sc.netlist, atpg.sequence, fl.faults());

  const ScanCircuit wide = insert_scan(make_wide_circuit());
  const FaultList wfl = FaultList::collapsed(wide.netlist);
  ASSERT_GT(wfl.size(), 255u);
  expect_omission_invariant(wide.netlist, make_random_sequence(wide.netlist, 48, 11),
                            wfl.faults());
}

/// Batch advances omission_compact spends in its engine: the total minus
/// its two one-shot gradings (before and after), which run at the one-shot
/// simulator's own width under the current cap.
std::uint64_t omission_engine_batches(const Netlist& nl, const TestSequence& seq,
                                      std::span<const Fault> faults) {
  const std::size_t per =
      slot_width_bits(efficient_slot_width(faults.size(), widest_slot_width())) - 1;
  const obs::CounterScope scope;
  omission_compact(nl, seq, faults, {});
  return scope.delta(obs::Counter::BatchesRun) - 2 * ((faults.size() + per - 1) / per);
}

TEST(WidthEquivalence, OmissionEngineRunsSixtyFourBitWordsUnderEveryCap) {
  // The omission engine runs 64-bit batches whatever the cap; only the
  // gradings around it widen. A wider engine word would run fewer batches.
  if (!obs::enabled()) GTEST_SKIP() << "counters disabled";
  const ScanCircuit sc = insert_scan(make_wide_circuit());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u);
  const TestSequence seq = make_random_sequence(sc.netlist, 48, 11);
  std::uint64_t narrow = 0;
  {
    const detail::SlotWidthCap cap(SlotWidth::W64);
    narrow = omission_engine_batches(sc.netlist, seq, fl.faults());
  }
  EXPECT_GT(narrow, 0u);
  for (const SlotWidth w : {SlotWidth::W256, SlotWidth::W512}) {
    SCOPED_TRACE("width cap=" + std::to_string(slot_width_bits(w)));
    const detail::SlotWidthCap cap(w);
    EXPECT_EQ(omission_engine_batches(sc.netlist, seq, fl.faults()), narrow);
  }
  EXPECT_EQ(omission_engine_batches(sc.netlist, seq, fl.faults()), narrow);
}

TEST(WidthEquivalence, SlotWidthCapLowersWidestAndRestores) {
  const SlotWidth native = native_slot_width();
  EXPECT_EQ(widest_slot_width(), native);
  {
    const detail::SlotWidthCap outer(SlotWidth::W256);
    EXPECT_EQ(widest_slot_width(), std::min(native, SlotWidth::W256));
    {
      const detail::SlotWidthCap inner(SlotWidth::W64);
      EXPECT_EQ(widest_slot_width(), SlotWidth::W64);
    }
    EXPECT_EQ(widest_slot_width(), std::min(native, SlotWidth::W256));
    // A cap above the CPU's own width does not raise it.
    const detail::SlotWidthCap high(SlotWidth::W512);
    EXPECT_EQ(widest_slot_width(), native);
  }
  EXPECT_EQ(widest_slot_width(), native);

  // Under a cap the engine still narrows by fault count, and never goes
  // wider than the cap.
  for (const SlotWidth cap : kWidths) {
    for (const std::size_t live : {0u, 1u, 63u, 64u, 255u, 256u, 511u, 512u, 5110u}) {
      EXPECT_LE(slot_width_bits(efficient_slot_width(live, cap)), slot_width_bits(cap))
          << "live=" << live;
    }
    EXPECT_EQ(efficient_slot_width(63, cap), SlotWidth::W64);
  }
  EXPECT_EQ(efficient_slot_width(5110, SlotWidth::W512), SlotWidth::W512);
  EXPECT_EQ(efficient_slot_width(5110, SlotWidth::W256), SlotWidth::W256);
}

// ---------------------------------------------------------------------------
// ISA kernel entries: a wide word's batch run through the baseline kernel
// body and through its AVX2 / AVX-512 entry must agree bit for bit.
// ---------------------------------------------------------------------------

/// Advance the first batch of `faults` over `seq` through the baseline body
/// and through the ISA entry of `Word`, and compare everything the kernel
/// writes.
template <class Word, class Model>
void expect_isa_entry_matches_baseline(const Netlist& nl,
                                       std::span<const typename Model::fault_type> faults,
                                       const TestSequence& seq) {
  using Runner = BatchRunnerT<Word, Model>;
  SCOPED_TRACE("width=" + std::to_string(Runner::kSlots));
  const auto batch = faults.first(std::min<std::size_t>(faults.size(), Runner::kSlots - 1));
  const Runner runner(*nl.compiled_shared(), batch);
  const SequenceView view(seq);
  struct Run {
    SimBatchStateT<Word> s;
    std::vector<LatchRecord> latched;
    std::vector<Word> raw;
    std::uint64_t evals = 0;
  };
  const auto run = [&](bool isa_entry) {
    Run r{runner.initial_state(), std::vector<LatchRecord>(batch.size()),
          std::vector<Word>(seq.length()), 0};
    typename Runner::AdvanceOptions opt;
    opt.early_exit = false;
    opt.latched = r.latched;
    opt.raw_obs = r.raw.data();
    std::vector<W3T<Word>> values;
    r.evals = detail::KernelSeam::advance(runner, isa_entry, r.s, view, values, opt);
    return r;
  };
  const Run base = run(false);
  const Run entry = run(true);
  EXPECT_EQ(entry.evals, base.evals);
  EXPECT_TRUE(entry.raw == base.raw);
  expect_same_latches(entry.latched, base.latched, "latch");
  EXPECT_TRUE(entry.s.detected_slots == base.s.detected_slots);
  EXPECT_TRUE(entry.s.live == base.s.live);
  EXPECT_EQ(entry.s.detect_time, base.s.detect_time);
  EXPECT_TRUE(entry.s.state == base.s.state);
  EXPECT_EQ(entry.s.prev_driven, base.s.prev_driven);
  EXPECT_EQ(entry.s.frame, base.s.frame);
}

TEST(WidthEquivalence, IsaEntriesMatchBaselineBody) {
  const unsigned native = slot_width_bits(native_slot_width());
  if (native == 64) GTEST_SKIP() << "CPU runs neither AVX2 nor AVX-512F";
  const ScanCircuit sc = insert_scan(make_wide_circuit());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const auto tfaults = enumerate_transition_faults(sc.netlist);
  const TestSequence seq = make_random_sequence(sc.netlist, 48, 11);
  expect_isa_entry_matches_baseline<Simd256, StuckAtModel>(sc.netlist, fl.faults(), seq);
  expect_isa_entry_matches_baseline<Simd256, TransitionModel>(sc.netlist, tfaults, seq);
  if (native < 512) return;
  expect_isa_entry_matches_baseline<Simd512, StuckAtModel>(sc.netlist, fl.faults(), seq);
  expect_isa_entry_matches_baseline<Simd512, TransitionModel>(sc.netlist, tfaults, seq);
}

// ---------------------------------------------------------------------------
// Streaming sessions: incremental advance and snapshot/restore.
// ---------------------------------------------------------------------------

TEST(WidthEquivalence, SessionAdvanceMatrix) {
  const ScanCircuit sc = insert_scan(make_wide_circuit(7));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 255u);
  const TestSequence chunk1 = make_random_sequence(sc.netlist, 16, 23);
  const TestSequence chunk2 = make_random_sequence(sc.netlist, 16, 29);

  std::vector<DetectionRecord> want;
  std::size_t want_first = 0, want_second = 0;
  {
    FaultSimSession ref(sc.netlist, fl.faults());
    want_first = ref.advance(chunk1);
    const auto snap = ref.snapshot();
    ref.advance(chunk2);
    ref.restore(snap);  // the restored path must replay identically
    want_second = ref.advance(chunk2);
    want = ref.detections();
  }

  for (const SlotWidth w : kWidths) {
    for (const std::size_t n : kThreads) {
      SCOPED_TRACE("width=" + std::to_string(slot_width_bits(w)) + " threads=" +
                   std::to_string(n));
      const detail::SlotWidthCap cap(w);
      const PoolGuard pg(n);
      FaultSimSession session(sc.netlist, fl.faults());
      EXPECT_EQ(session.advance(chunk1), want_first);
      const auto snap = session.snapshot();
      session.advance(chunk2);
      session.restore(snap);
      EXPECT_EQ(session.advance(chunk2), want_second);
      expect_same_detections(session.detections(), want, "session");
    }
  }
}

TEST(WidthEquivalence, SnapshotRejectsWidthMismatch) {
  // A snapshot is only valid for the session that captured it: restoring
  // it into another session — here one whose fault population runs a wider
  // word on a SIMD CPU — must throw, not silently reinterpret the payload.
  const ScanCircuit sc = insert_scan(make_wide_circuit());
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const TestSequence chunk = make_random_sequence(sc.netlist, 8, 31);

  FaultSimSession::Snapshot snap64;
  {
    const detail::SlotWidthCap cap(SlotWidth::W64);
    FaultSimSession session(sc.netlist, fl.faults());
    session.advance(chunk);
    snap64 = session.snapshot();
  }
  FaultSimSession session(sc.netlist, fl.faults());
  EXPECT_THROW(session.restore(snap64), std::invalid_argument);
  EXPECT_THROW(session.restore(FaultSimSession::Snapshot{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fuzz sweep: random circuits, random sequences, every width against the
// 64-bit result. Threads fixed at 4 (the matrix above covers the sweep).
// ---------------------------------------------------------------------------

class WidthFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WidthFuzz, RandomCircuitsMatchAcrossWidths) {
  const std::uint64_t seed = GetParam();
  SynthSpec spec;
  spec.name = "wfuzz" + std::to_string(seed);
  spec.num_inputs = 3 + seed % 5;
  spec.num_dffs = 2 + seed % 7;
  spec.num_gates = 30 + static_cast<std::size_t>(seed * 13 % 90);
  spec.seed = seed * 31 + 7;
  const ScanCircuit sc = insert_scan(generate_synthetic(spec));
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const TestSequence seq = make_random_sequence(sc.netlist, 32, seed * 101 + 3);

  FaultSimulator sim(sc.netlist);
  const auto want = sim.run(seq, fl.faults());

  const PoolGuard pg(4);
  for (const SlotWidth w : kWidths) {
    SCOPED_TRACE("width=" + std::to_string(slot_width_bits(w)));
    const detail::SlotWidthCap cap(w);
    expect_same_detections(sim.run(seq, fl.faults()), want, spec.name.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WidthFuzz, ::testing::Range<std::uint64_t>(0, kFuzzSeedEnd));

}  // namespace
}  // namespace uniscan
