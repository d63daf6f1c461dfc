// The incremental omission engine (checkpointed restarts, batch skipping,
// hardest-first fault ordering, thread-pool fan-out) must produce a
// CompactionResult bit-identical to the naive procedure it replaces: trial
// erasures evaluated by full from-scratch resimulation of a materialized
// subsequence. These tests pin that down by running a self-contained
// reference implementation of the seed algorithm next to the production
// path, for both fault models, both trial orders and several thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "atpg/seq_atpg.hpp"
#include "baseline/scan_testset_gen.hpp"
#include "compact/compact_impl.hpp"
#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "fault/fault_list.hpp"
#include "fault/transition_fault.hpp"
#include "obs/counters.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/fault_sim.hpp"
#include "sim/transition_sim.hpp"
#include "util/thread_pool.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

/// The seed omission algorithm, verbatim: every trial erasure materializes
/// the candidate subsequence and resimulates it from power-up.
template <typename Simulator, typename FaultT>
CompactionResult reference_omission(const Netlist& nl, const TestSequence& seq,
                                    std::span<const FaultT> faults,
                                    const OmissionOptions& options) {
  Simulator sim(nl);
  CompactionResult result;
  result.original_length = seq.length();

  const auto base = sim.run(seq, faults);
  std::vector<FaultT> must;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i].detected) must.push_back(faults[i]);

  TestSequence cur = seq;
  const auto try_erase = [&](std::size_t t) {
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < cur.length(); ++j)
      if (j != t) keep.push_back(j);
    TestSequence trial = cur.select(keep);
    if (!sim.detects_all(trial, must)) return false;
    cur = std::move(trial);
    return true;
  };

  for (std::size_t pass = 0; pass < options.max_passes; ++pass) {
    ++result.rounds;
    std::size_t removed = 0;
    if (options.back_to_front) {
      for (std::size_t t = cur.length(); t-- > 0;)
        if (try_erase(t)) ++removed;
    } else {
      for (std::size_t t = 0; t < cur.length();) {
        if (try_erase(t)) ++removed;
        else ++t;
      }
    }
    if (removed == 0) break;
  }

  result.sequence = cur;
  result.vectors_removed = seq.length() - cur.length();
  const auto final_det = sim.run(cur, faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (final_det[i].detected && !base[i].detected) ++result.extra_detected;
  return result;
}

void expect_same(const CompactionResult& got, const CompactionResult& want) {
  EXPECT_EQ(got.sequence, want.sequence);
  EXPECT_EQ(got.original_length, want.original_length);
  EXPECT_EQ(got.vectors_removed, want.vectors_removed);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.extra_detected, want.extra_detected);
}

struct PoolGuard {
  explicit PoolGuard(std::size_t n) { ThreadPool::set_global_threads(n); }
  ~PoolGuard() { ThreadPool::set_global_threads(1); }
};

struct StuckAtFixture {
  ScanCircuit sc = insert_scan(make_s27());
  FaultList fl = FaultList::collapsed(sc.netlist);
  AtpgResult atpg = generate_tests(sc, fl, {});
};

TEST(OmissionEquivalence, StuckAtAcrossThreads) {
  StuckAtFixture fx;
  const CompactionResult want = reference_omission<FaultSimulator, Fault>(
      fx.sc.netlist, fx.atpg.sequence, fx.fl.faults(), {});
  ASSERT_LT(want.sequence.length(), fx.atpg.sequence.length());

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PoolGuard guard(threads);
    const CompactionResult got =
        omission_compact(fx.sc.netlist, fx.atpg.sequence, fx.fl.faults(), {});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

TEST(OmissionEquivalence, StuckAtFrontToBack) {
  StuckAtFixture fx;
  OmissionOptions opt;
  opt.back_to_front = false;
  const CompactionResult want = reference_omission<FaultSimulator, Fault>(
      fx.sc.netlist, fx.atpg.sequence, fx.fl.faults(), opt);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PoolGuard guard(threads);
    const CompactionResult got =
        omission_compact(fx.sc.netlist, fx.atpg.sequence, fx.fl.faults(), opt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

TEST(OmissionEquivalence, TransitionFaults) {
  const ScanCircuit sc = insert_scan(make_s27());
  const auto faults = enumerate_transition_faults(sc.netlist);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const AtpgResult atpg = generate_tests(sc, fl, {});
  const std::span<const TransitionFault> tf(faults);

  const CompactionResult want = reference_omission<TransitionFaultSimulator, TransitionFault>(
      sc.netlist, atpg.sequence, tf, {});
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PoolGuard guard(threads);
    const CompactionResult got = omission_compact(sc.netlist, atpg.sequence, tf, {});
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
  }
}

/// The Table 7 path: a complete-scan baseline test set, translated into
/// one sequence and restored, is the omission input. Its long scan shifts
/// make trial machines re-join the accepted run a few frames after the
/// erased vector, so the engine's state-match stop fires often.
struct TranslatedFixture {
  explicit TranslatedFixture(const char* circuit)
      : sc(insert_scan(load_circuit(*find_suite_entry(circuit)))),
        fl(FaultList::collapsed(sc.netlist)),
        tf(enumerate_transition_faults(sc.netlist)),
        seq(restoration_compact(sc.netlist, generate_baseline_tests(sc, fl, {}).translated,
                                fl.faults())
                .sequence) {}

  ScanCircuit sc;
  FaultList fl;
  std::vector<TransitionFault> tf;
  TestSequence seq;
};

template <typename Simulator, typename FaultT>
void expect_translated_equivalence(const TranslatedFixture& fx, std::span<const FaultT> faults,
                                   bool back_to_front) {
  OmissionOptions opt;
  opt.back_to_front = back_to_front;
  const CompactionResult want =
      reference_omission<Simulator, FaultT>(fx.sc.netlist, fx.seq, faults, opt);
  ASSERT_LT(want.sequence.length(), fx.seq.length());
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PoolGuard guard(threads);
    const obs::CounterScope scope;
    const CompactionResult got = omission_compact(fx.sc.netlist, fx.seq, faults, opt);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_same(got, want);
    // The long scan shifts make trials re-join the accepted run.
    EXPECT_GT(scope.delta(obs::Counter::OmissionConverged), 0u);
  }
}

TEST(OmissionEquivalence, TranslatedStuckAtBackToFront) {
  const TranslatedFixture fx("s298");
  expect_translated_equivalence<FaultSimulator, Fault>(fx, fx.fl.faults(), true);
}

TEST(OmissionEquivalence, TranslatedStuckAtFrontToBack) {
  const TranslatedFixture fx("s298");
  expect_translated_equivalence<FaultSimulator, Fault>(fx, fx.fl.faults(), false);
}

TEST(OmissionEquivalence, TranslatedTransitionBackToFront) {
  const TranslatedFixture fx("s298");
  expect_translated_equivalence<TransitionFaultSimulator, TransitionFault>(
      fx, std::span<const TransitionFault>(fx.tf), true);
}

// Front to back, a batch simulated by an accepted trial stays due at the
// next trial position, so the detection times it adopts on the commit
// decide whether that trial simulates it: this fixture rejects a trial the
// engine would accept on stale ones.
TEST(OmissionEquivalence, TranslatedTransitionFrontToBack) {
  const TranslatedFixture fx("s298");
  expect_translated_equivalence<TransitionFaultSimulator, TransitionFault>(
      fx, std::span<const TransitionFault>(fx.tf), false);
}

/// The run of one engine batch over `seq`: the state entering every frame
/// and the slots observed at a PO in every frame.
struct BatchRun {
  std::vector<std::vector<W3>> states;
  std::vector<std::uint64_t> obs;
};

BatchRun run_batch(const FaultSimulator::BatchRunner& r, const TestSequence& seq) {
  BatchRun run;
  run.obs.assign(seq.length(), 0);
  SimBatchStateT<std::uint64_t> s = r.initial_state();
  auto record = [&](const SimBatchStateT<std::uint64_t>& st) {
    run.states.push_back(st.state);
    return false;
  };
  FaultSimulator::BatchRunner::AdvanceOptions opt;
  opt.early_exit = false;
  opt.raw_obs = run.obs.data();
  opt.set_probe(record);
  std::vector<W3> values;
  r.advance(s, SequenceView(seq), values, opt);
  run.states.push_back(s.state);
  return run;
}

/// A trial's verdict after a state match can rest on an observation of the
/// accepted run that is not the slot's first one: the trial misses a fault
/// the accepted run first observes inside the window the erasure changed,
/// and only a later observation of it, past the match, keeps it detected.
/// Replays the reference procedure's trials with the engine's batching and
/// a snapshot at every frame, and requires the fixture to hold such a
/// trial, so the equivalence tests above cover the case. (The engine
/// compares states only at its snapshots, 4 frames apart, so it sees a
/// match a few frames later; counting the case inside trial_passes showed
/// each Translated* test above meeting it in 4 000 to 5 000 trials.)
TEST(OmissionEquivalence, TranslatedFixtureHasMatchResolvedByLaterObservation) {
  const TranslatedFixture fx("s298");
  const Netlist& nl = fx.sc.netlist;
  FaultSimulator sim(nl);
  const auto base = sim.run(fx.seq, fx.fl.faults());
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i].detected) idx.push_back(i);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return base[a].time > base[b].time; });
  std::vector<Fault> must;
  for (std::size_t i : idx) must.push_back(fx.fl.faults()[i]);
  std::vector<FaultSimulator::BatchRunner> runners;
  for (std::size_t lo = 0; lo < must.size(); lo += 63)
    runners.emplace_back(sim.compiled(),
                         std::span<const Fault>(must).subspan(lo, std::min<std::size_t>(
                                                                      63, must.size() - lo)));

  const auto resolved_by_later_observation = [&](const TestSequence& cur, std::size_t t) {
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < cur.length(); ++j)
      if (j != t) keep.push_back(j);
    const TestSequence trial = cur.select(keep);
    for (const auto& r : runners) {
      const BatchRun acc = run_batch(r, cur);
      const BatchRun tri = run_batch(r, trial);
      std::size_t f = t;
      while (f + 1 < cur.length() && tri.states[f] != acc.states[f + 1]) ++f;
      if (f + 1 == cur.length()) continue;  // no match
      std::uint64_t seen_before_f = 0, first_in_window = 0, seen_after_f = 0;
      for (std::size_t g = 0; g < f; ++g) seen_before_f |= tri.obs[g];
      std::uint64_t seen = 0;
      for (std::size_t g = 0; g < cur.length(); ++g) {
        if (g >= t && g <= f) first_in_window |= acc.obs[g] & ~seen;
        if (g > f) seen_after_f |= acc.obs[g];
        seen |= acc.obs[g];
      }
      if (first_in_window & ~seen_before_f & seen_after_f) return true;
    }
    return false;
  };

  // The reference procedure's first pass, back to front.
  TestSequence cur = fx.seq;
  bool found = false;
  for (std::size_t t = cur.length(); t-- > 0 && !found;) {
    found = resolved_by_later_observation(cur, t);
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < cur.length(); ++j)
      if (j != t) keep.push_back(j);
    TestSequence trial = cur.select(keep);
    if (sim.detects_all(trial, must)) cur = std::move(trial);
  }
  EXPECT_TRUE(found);
}

TEST(RestorationEquivalence, ViewPathMatchesAcrossThreads) {
  StuckAtFixture fx;
  PoolGuard one(1);
  const CompactionResult want =
      restoration_compact(fx.sc.netlist, fx.atpg.sequence, fx.fl.faults());
  {
    PoolGuard four(4);
    const CompactionResult got =
        restoration_compact(fx.sc.netlist, fx.atpg.sequence, fx.fl.faults());
    expect_same(got, want);
  }
}

/// Direct unit checks of the engine's trial predicate at the boundary
/// positions: frame 0 (restart has no usable checkpoint), a checkpoint frame
/// itself (the snapshot at t must be used, and stays valid after the
/// accept), the last frame (shortest possible resimulation), and the trials
/// right after a commit, which first catch the traces up with it.
TEST(OmissionEngine, EraseAtBoundaryFramesMatchesReference) {
  StuckAtFixture fx;
  FaultSimulator sim(fx.sc.netlist);
  const auto base = sim.run(fx.atpg.sequence, fx.fl.faults());
  std::vector<Fault> must;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i].detected) must.push_back(fx.fl.faults()[i]);
  ASSERT_FALSE(must.empty());

  using Engine = detail::OmissionEngine<FaultSimulator>;
  Engine engine(sim.compiled(), fx.atpg.sequence, must);

  // Reference predicate against the engine's own current selection.
  TestSequence cur = fx.atpg.sequence;
  const auto reference_would_accept = [&](std::size_t t) {
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < cur.length(); ++j)
      if (j != t) keep.push_back(j);
    return sim.detects_all(cur.select(keep), must);
  };
  const auto check = [&](std::size_t t) {
    SCOPED_TRACE("erase at t=" + std::to_string(t));
    const bool want = reference_would_accept(t);
    ASSERT_EQ(engine.try_erase(t), want);
    if (want) cur.erase(t);
    ASSERT_EQ(engine.materialize(), cur);
  };

  check(0);                 // frame 0: no checkpoint at or below
  check(Engine::kCheckpointInterval);  // exactly on a checkpoint frame
  check(cur.length() - 1);  // last frame
  check(cur.length() - 1);  // last frame again after the state shrank

  // The first accepted erasure from the back, then the trials right
  // after it: below it, and at its position (now the next vector).
  std::size_t t = cur.length();
  while (t-- > 0 && !reference_would_accept(t)) check(t);
  ASSERT_LT(t, cur.length()) << "no accepted erasure";
  check(t);
  if (t > 0) check(t - 1);
  if (t < cur.length()) check(t);

  for (std::size_t u = cur.length(); u-- > 0;) check(u);  // full sweep
  ASSERT_EQ(engine.length(), cur.length());
}

/// A rejected trial remembers the batch that rejected it, and the next trial
/// runs that batch first, alone. On the Table 7 s298 fixture (681 faults,
/// eleven batches, several fail-fast waves) a rejected erasure repeated is
/// rejected again after exactly one batch advance, also where the hardest-
/// first batch of the trial passes and so would have run first.
TEST(OmissionEngine, RepeatedRejectionRunsOnlyTheBatchThatRejected) {
  const TranslatedFixture fx("s298");
  FaultSimulator sim(fx.sc.netlist);
  const auto base = sim.run(fx.seq, fx.fl.faults());
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i].detected) idx.push_back(i);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t a, std::size_t b) { return base[a].time > base[b].time; });
  std::vector<Fault> must;
  for (std::size_t i : idx) must.push_back(fx.fl.faults()[i]);
  using Engine = detail::OmissionEngine<FaultSimulator>;
  ASSERT_GT(must.size(), 7 * Engine::kPer);  // reaches the fourth wave
  Engine engine(sim.compiled(), fx.seq, must);

  // Whether the first batch a trial at t would run, hardest first, passes.
  const auto first_active_batch_passes = [&](const TestSequence& cur, std::size_t t) {
    std::vector<std::size_t> keep;
    for (std::size_t j = 0; j < cur.length(); ++j)
      if (j != t) keep.push_back(j);
    const TestSequence trial = cur.select(keep);
    for (std::size_t lo = 0; lo < must.size(); lo += Engine::kPer) {
      const auto batch =
          std::span<const Fault>(must).subspan(lo, std::min(Engine::kPer, must.size() - lo));
      std::uint32_t last = 0;
      for (const DetectionRecord& d : sim.run(cur, batch)) last = std::max(last, d.time);
      if (last >= t) return sim.detects_all(trial, batch);
    }
    return true;
  };

  TestSequence cur = fx.seq;
  std::size_t repeats = 0, reordered = 0;
  for (std::size_t t = cur.length(); t-- > 0 && reordered < 3;) {
    if (engine.try_erase(t)) {
      cur.erase(t);
      continue;
    }
    const obs::CounterScope scope;
    ASSERT_FALSE(engine.try_erase(t)) << "t=" << t;
    ASSERT_EQ(scope.delta(obs::Counter::BatchesRun), 1u) << "t=" << t;
    ++repeats;
    if (first_active_batch_passes(cur, t)) ++reordered;
  }
  EXPECT_GT(repeats, 0u);
  EXPECT_EQ(reordered, 3u);
  EXPECT_EQ(engine.materialize(), cur);
}

}  // namespace
}  // namespace uniscan
