// Shared implementation of the static compaction procedures, generic over
// the fault model: any (Simulator, Fault) pair with
//   Simulator(const Netlist&)
//   Simulator::fault_type
//   Simulator::compiled() -> const CompiledNetlist&
//   Simulator::BatchRunner (constructed from the CompiledNetlist;
//     initial_state / advance over a SequenceView)
//   run(seq_or_view, span<Fault>) -> vector<DetectionRecord>
//   detects_all(seq_or_view, span<Fault>) -> bool
// works — instantiated for stuck-at and transition faults.
//
// Omission runs on an incremental engine instead of repeated from-scratch
// resimulation; the produced CompactionResult is bit-identical to the naive
// procedure (tests/compaction_equivalence_test.cpp pins that down). The
// engine's layers are described in DESIGN.md §5c:
//
//  * Copy-free trials — the current selection is a keep-list over the base
//    sequence; a trial erasure is a SequenceView with one logical position
//    skipped. No O(L·PI) TestSequence copy per trial.
//  * A trace per batch — lean snapshots of the accepted run every
//    kCheckpointInterval frames and one raw observation word per frame.
//    A trial resumes from the latest snapshot at or below its position and
//    stops as soon as its state equals a snapshot one frame later: from
//    there on it is the accepted run shifted by one frame, so its verdict
//    and detection times are read off the trace. A trace catches up with
//    the erasures committed since it was recorded only when its batch is
//    next simulated, in one pass over all of them.
//  * Fail-fast fault ordering — must-detect faults are batched hardest
//    (latest-detected) first, so a batch whose every fault is detected
//    before the trial position needs no trial at all: erasing vector t
//    cannot disturb detections at frames < t.
//  * Batch parallelism — the per-trial active batches fan out across
//    ThreadPool::global(); every batch writes only its own trace and
//    scratch, so the result does not depend on the thread count.
//
// The engine runs 64-bit words whatever the CPU's widest: a trial stops
// once its batch's state re-joins the accepted run, which a wider batch
// reaches later.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "compact/compaction.hpp"
#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "netlist/netlist.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/fault_sim.hpp"
#include "sim/sequence.hpp"
#include "sim/sequence_view.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace uniscan::detail {

/// Incremental trial-erasure engine for vector omission. Holds the current
/// selection as a keep-list, one 64-bit BatchRunnerT per 63 must-detect
/// faults, and per batch a trace of its run, brought up to date with the
/// committed erasures before the batch is next simulated.
template <typename Simulator>
class OmissionEngine {
 public:
  using Word = std::uint64_t;
  using FaultT = typename Simulator::fault_type;
  using Runner = typename Simulator::template BatchRunnerT<Word>;
  using State = SimBatchStateT<Word>;
  using Store = CheckpointStoreT<Word>;
  static constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
  /// Frames between two snapshots of a batch's trace.
  static constexpr std::size_t kCheckpointInterval = 4;

  OmissionEngine(const CompiledNetlist& cnl, const TestSequence& base, std::vector<FaultT> must)
      : base_(&base), must_(std::move(must)) {
    kept_.resize(base.length());
    std::iota(kept_.begin(), kept_.end(), 0);

    const std::size_t num_batches = (must_.size() + kPer - 1) / kPer;
    runners_.reserve(num_batches);
    traces_.reserve(num_batches);
    states_.reserve(num_batches);
    for (std::size_t b = 0; b < num_batches; ++b) {
      const std::size_t lo = b * kPer;
      const std::size_t count = std::min<std::size_t>(kPer, must_.size() - lo);
      const Runner& r =
          runners_.emplace_back(cnl, std::span<const FaultT>(must_.data() + lo, count));
      std::vector<std::uint32_t> dffs;
      for (std::size_t j = 0; j < cnl.dffs().size(); ++j)
        if (r.samples_dff(j)) dffs.push_back(static_cast<std::uint32_t>(j));
      const State& s = states_.emplace_back(r.initial_state());
      traces_.push_back(Trace{Store(std::move(dffs), s.prev_driven.size()), {}, {}, {}, 0, 0});
    }

    ThreadPool& pool = ThreadPool::global();
    if (work_.size() < pool.num_workers()) work_.resize(pool.num_workers());
    pool.parallel_for(num_batches, [&](std::size_t b, std::size_t w) { build(b, work_[w]); });
  }

  std::size_t length() const noexcept { return kept_.size(); }

  /// Trial-erase the vector at logical position `t` of the current
  /// selection; commit and return true iff every must-detect fault stays
  /// detected. Exactly the predicate detects_all(selection minus t, must).
  bool try_erase(std::size_t t) {
    const SequenceView cur(*base_, kept_);
    const SequenceView trial = cur.without(t);

    obs::count(obs::Counter::OmissionTrials);

    // A batch whose every fault is first detected before t cannot be
    // disturbed by erasing t, and its trace is left as it is: an erasure it
    // misses lies past all of its first detections, so `first` stays exact,
    // and sync() catches the rest of the trace up once the batch is needed.
    active_.clear();
    for (std::size_t b = 0; b < runners_.size(); ++b)
      if (traces_[b].max_first >= t) active_.push_back(b);
    obs::count(obs::Counter::BatchSkips, runners_.size() - active_.size());

    ThreadPool& pool = ThreadPool::global();
    if (work_.size() < pool.num_workers()) work_.resize(pool.num_workers());
    // Wave-scheduled deterministic fail-fast (see FaultSimulator::
    // detects_all): every batch of a scheduled wave runs to its stop, so the
    // set of executed batch advances and every counter is a pure function of
    // the input.
    for (std::size_t wave = 0; wave < active_.size(); wave += kFailFastWave) {
      const std::size_t n = std::min(kFailFastWave, active_.size() - wave);
      std::atomic<bool> wave_pass{true};
      pool.parallel_for(n, [&](std::size_t k, std::size_t w) {
        const std::size_t b = active_[wave + k];
        sync(b, cur, work_[w]);
        if (!trial_passes(b, trial, t, work_[w]))
          wave_pass.store(false, std::memory_order_relaxed);
      });
      if (!wave_pass.load(std::memory_order_relaxed)) return false;
    }

    // Commit: the trial sequence becomes the accepted sequence. The traces
    // follow lazily (sync()); the simulated batches adopt their trial
    // detection times now, which keeps every batch's `first` exact.
    for (const std::size_t b : active_) {
      traces_[b].first = traces_[b].trial_first;
      update_max_first(b);
    }
    erased_.push_back(kept_[t]);
    kept_.erase(kept_.begin() + static_cast<std::ptrdiff_t>(t));
    return true;
  }

  TestSequence materialize() const { return SequenceView(*base_, kept_).materialize(); }

 private:
  // A batch's run over the selection as it stood after the first `synced`
  // committed erasures.
  struct Trace {
    Store snaps;            // lean snapshots, kCheckpointInterval apart when built
    std::vector<Word> obs;  // per frame: slots observed at a PO, unmasked
    // Per slot: the first and the last frame observing it, and the latest
    // first observation. Every slot is observed: all must-detect faults
    // stay detected by every accepted selection.
    std::array<std::uint32_t, WordTraits<Word>::kBits> first{};
    std::array<std::uint32_t, WordTraits<Word>::kBits> last{};
    std::size_t max_first = 0;
    std::size_t synced = 0;
    // First observations under the latest passing trial, in its frames.
    std::array<std::uint32_t, WordTraits<Word>::kBits> trial_first{};
  };
  // Per pool worker: scratch, and the trace sync() is assembling.
  struct Work {
    std::vector<W3T<Word>> values;  // net values
    std::vector<std::size_t> gaps;  // pending erasures, as trace frames
    std::vector<Word> obs;
    Store snaps{{}, 0};
  };

  /// Simulate batch `b` over the whole base sequence, recording its trace.
  void build(std::size_t b, Work& work) {
    Trace& tr = traces_[b];
    State& s = states_[b];
    tr.obs.assign(length(), Word{});
    auto capture = [&](const State& st) {
      if (st.frame != 0 && st.frame % kCheckpointInterval == 0) tr.snaps.push_back(st);
      return false;
    };
    typename Runner::AdvanceOptions opt;
    opt.early_exit = false;
    opt.raw_obs = tr.obs.data();
    opt.set_probe(capture);
    runners_[b].advance(s, SequenceView(*base_), work.values, opt);
    obs::count(obs::Counter::OmissionFrames, length());
    derive_times(b);
  }

  /// Bring batch `b`'s trace from the selection it was recorded on (the
  /// current one `cur` plus the erasures committed since) to `cur`. The run
  /// is re-simulated from the latest snapshot before the first such erasure.
  /// Whenever its state equals the old run's snapshot at the matching
  /// frame, the two runs agree up to the next erasure, so the old trace is
  /// copied across up to the latest snapshot before it and the simulation
  /// resumes there; past the last erasure, a match ends the catch-up and
  /// the rest of the old trace is copied down.
  void sync(std::size_t b, const SequenceView& cur, Work& work) {
    Trace& tr = traces_[b];
    if (tr.synced == erased_.size()) return;
    // Old-trace frames of the pending erasures, ascending.
    std::vector<std::size_t>& gaps = work.gaps;
    gaps.assign(erased_.begin() + static_cast<std::ptrdiff_t>(tr.synced), erased_.end());
    std::sort(gaps.begin(), gaps.end());
    for (std::size_t j = 0; j < gaps.size(); ++j)
      gaps[j] = static_cast<std::size_t>(std::lower_bound(kept_.begin(), kept_.end(), gaps[j]) -
                                         kept_.begin()) + j;
    tr.synced = erased_.size();

    const Store& old = tr.snaps;
    Store& fresh = work.snaps;
    fresh.reset_like(old);
    std::vector<Word>& obs = work.obs;
    obs.assign(length(), Word{});
    const auto keep = [&](std::size_t frame) {
      return frame != 0 && frame < length() &&
             (fresh.size() == 0 || frame > fresh.frame(fresh.size() - 1));
    };
    const auto copy_obs = [&](std::size_t from, std::size_t to, std::size_t at) {
      std::copy(tr.obs.begin() + static_cast<std::ptrdiff_t>(from),
                tr.obs.begin() + static_cast<std::ptrdiff_t>(to),
                obs.begin() + static_cast<std::ptrdiff_t>(at));
    };

    // Frames before the first erasure are unchanged.
    State& s = states_[b];
    const std::size_t cp = old.best_at_or_before(gaps[0]);
    if (cp == Store::npos) {
      s = runners_[b].initial_state();
    } else {
      for (std::size_t i = 0; i <= cp; ++i) fresh.append(old, i, old.frame(i));
      old.restore(cp, s);
    }
    copy_obs(0, s.frame, 0);

    // Frame g of `cur` is old frame g + j, j the erasures passed so far.
    // Comparing is pointless between a match and the next erasure.
    std::size_t j = 0;
    std::size_t next = cp == Store::npos ? 0 : cp + 1;  // next old snapshot
    bool armed = false;
    auto converge = [&](const State& st) {
      for (; j < gaps.size() && gaps[j] <= st.frame + j; ++j) armed = true;
      if (!armed) return false;
      const std::size_t m = st.frame + j;
      while (next < old.size() && old.frame(next) < m) ++next;
      if (next == old.size() || old.frame(next) != m) return false;
      if (old.matches(next, st)) return true;
      if (keep(st.frame)) fresh.push_back(st);
      ++next;
      return false;
    };
    typename Runner::AdvanceOptions opt;
    opt.early_exit = false;
    opt.raw_obs = obs.data();
    opt.set_probe(converge);
    for (;;) {
      const std::size_t from = s.frame;
      runners_[b].advance(s, cur, work.values, opt);
      obs::count(obs::Counter::OmissionFrames, s.frame - from);
      if (s.frame == length()) break;
      // Matched old snapshot `next` at frame g: old frames from m on replay
      // until the next erasure, or to the end.
      const std::size_t g = s.frame;
      const std::size_t m = g + j;
      const std::size_t q = j < gaps.size() ? old.best_at_or_before(gaps[j]) : old.size() - 1;
      for (std::size_t i = next; i <= q; ++i)
        if (keep(old.frame(i) - j)) fresh.append(old, i, old.frame(i) - j);
      if (j == gaps.size()) {
        copy_obs(m, tr.obs.size(), g);
        break;
      }
      copy_obs(m, old.frame(q), g);
      old.restore(q, s);
      s.frame = old.frame(q) - j;
      next = q + 1;
      armed = false;
    }

    std::swap(tr.obs, obs);
    std::swap(tr.snaps, fresh);
    tr.snaps.shrink_pool();
    derive_times(b);
  }

  /// Whether batch `b` detects every fault over `trial`, the current
  /// selection minus frame `t`. The trial resumes from the latest snapshot
  /// at or before t and stops once every slot is detected, at the end, or
  /// before the first frame f >= t whose state equals the snapshot at f+1:
  /// from there on the trial is the accepted run shifted by one frame, so a
  /// slot still undetected passes iff the accepted run observes it after f.
  /// Its first such frame need not be its first observation, hence the raw
  /// per-frame trace.
  bool trial_passes(std::size_t b, const SequenceView& trial, std::size_t t, Work& work) {
    Trace& tr = traces_[b];
    const Runner& r = runners_[b];
    State& s = states_[b];
    const std::size_t cp = tr.snaps.best_at_or_before(t);
    if (cp == Store::npos) {
      s = r.initial_state();
    } else {
      tr.snaps.restore(cp, s);
      obs::count(obs::Counter::ResimRestarts);
    }
    // Detection bookkeeping entering the resume frame, read off the trace.
    const std::size_t resume = s.frame;
    s.live = r.slot_mask();
    s.detected_slots = Word{};
    w_for_each_set(r.slot_mask(), [&](unsigned slot) {
      s.detect_time[slot] = tr.first[slot];
      if (tr.first[slot] < resume) {
        w_set(s.detected_slots, slot);
        w_clear(s.live, slot);
      }
    });

    bool matched = false;
    std::size_t next = tr.snaps.first_after(t);
    auto converge = [&](const State& st) {
      if (st.frame < t) return false;
      if (next < tr.snaps.size() && tr.snaps.frame(next) == st.frame + 1) {
        if (tr.snaps.matches(next, st)) return matched = true;
        ++next;
      }
      return !w_any(st.live);
    };
    typename Runner::AdvanceOptions opt;
    opt.early_exit = false;
    opt.set_probe(converge);
    r.advance(s, trial, work.values, opt);
    obs::count(obs::Counter::OmissionFrames, s.frame - resume);
    if (matched) obs::count(obs::Counter::OmissionConverged);

    const Word missing = r.slot_mask() & ~s.detected_slots;
    bool pass = true;
    w_for_each_set(missing, [&](unsigned slot) {
      if (!matched || tr.last[slot] <= s.frame) pass = false;
    });
    if (!pass) return false;
    // The trial's first detections; past the match, trial frame g is
    // accepted frame g+1.
    w_for_each_set(r.slot_mask() & s.detected_slots,
                   [&](unsigned slot) { tr.trial_first[slot] = s.detect_time[slot]; });
    Word need = missing;
    for (std::size_t g = s.frame + 1; w_any(need); ++g) {
      const Word hit = tr.obs[g] & need;
      w_for_each_set(hit, [&](unsigned slot) {
        tr.trial_first[slot] = static_cast<std::uint32_t>(g - 1);
      });
      need = need & ~hit;
    }
    return true;
  }

  void derive_times(std::size_t b) {
    Trace& tr = traces_[b];
    const Word mask = runners_[b].slot_mask();
    Word need = mask;
    for (std::size_t f = 0; f < tr.obs.size() && w_any(need); ++f) {
      const Word hit = tr.obs[f] & need;
      w_for_each_set(hit, [&](unsigned slot) { tr.first[slot] = static_cast<std::uint32_t>(f); });
      need = need & ~hit;
    }
    need = mask;
    for (std::size_t f = tr.obs.size(); f-- > 0 && w_any(need);) {
      const Word hit = tr.obs[f] & need;
      w_for_each_set(hit, [&](unsigned slot) { tr.last[slot] = static_cast<std::uint32_t>(f); });
      need = need & ~hit;
    }
    update_max_first(b);
  }

  void update_max_first(std::size_t b) {
    Trace& tr = traces_[b];
    tr.max_first = 0;
    w_for_each_set(runners_[b].slot_mask(), [&](unsigned slot) {
      tr.max_first = std::max<std::size_t>(tr.max_first, tr.first[slot]);
    });
  }

  const TestSequence* base_;
  std::vector<FaultT> must_;
  std::vector<std::size_t> kept_;    // base indices of the current selection
  std::vector<std::size_t> erased_;  // base indices erased, in commit order
  std::vector<Runner> runners_;
  std::vector<Trace> traces_;
  std::vector<State> states_;  // per batch: its latest run, stopped where it ended
  std::vector<std::size_t> active_;
  std::vector<Work> work_;  // per pool worker
};

/// The omission passes: fill the result's sequence, rounds and timeout flag.
template <typename Simulator>
void omission_passes(const CompiledNetlist& cnl, const TestSequence& seq,
                     std::vector<typename Simulator::fault_type> must,
                     const OmissionOptions& options, CompactionResult& result) {
  OmissionEngine<Simulator> engine(cnl, seq, std::move(must));

  // Every committed erasure has already passed an exact trial of all the
  // must-detect faults, so the selection is consistent after ANY trial —
  // deadline expiry simply stops trying further omissions. Trials are cheap
  // relative to the deadline granularity, so the token is polled at stride.
  StridedPoll cancel(options.cancel);
  for (std::size_t pass = 0; pass < options.max_passes && !result.timed_out; ++pass) {
    const obs::TraceSpan pass_span("omission_pass");
    ++result.rounds;
    std::size_t removed_this_pass = 0;

    if (options.back_to_front) {
      for (std::size_t t = engine.length(); t-- > 0;) {
        if (cancel.poll()) {
          result.timed_out = true;
          break;
        }
        if (engine.try_erase(t)) ++removed_this_pass;
      }
    } else {
      for (std::size_t t = 0; t < engine.length();) {
        if (cancel.poll()) {
          result.timed_out = true;
          break;
        }
        if (engine.try_erase(t)) ++removed_this_pass;
        else ++t;
      }
    }
    if (removed_this_pass == 0) break;
  }
  result.sequence = engine.materialize();
}

template <typename Simulator, typename FaultT>
CompactionResult omission_impl(const Netlist& nl, const TestSequence& seq,
                               std::span<const FaultT> faults, const OmissionOptions& options) {
  Simulator sim(nl);
  CompactionResult result;
  result.original_length = seq.length();
  const obs::CounterScope evals_scope;

  const auto base = sim.run(seq, faults);

  // Must-detect faults ordered hardest (latest-detected) first: a trial
  // miss surfaces in the first batch, and trailing batches — detected well
  // before most trial positions — are skipped without simulation.
  std::vector<std::size_t> must_idx;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i].detected) must_idx.push_back(i);
  std::stable_sort(must_idx.begin(), must_idx.end(),
                   [&](std::size_t a, std::size_t b) { return base[a].time > base[b].time; });
  std::vector<FaultT> must;
  must.reserve(must_idx.size());
  for (std::size_t i : must_idx) must.push_back(faults[i]);

  omission_passes<Simulator>(sim.compiled(), seq, std::move(must), options, result);
  result.vectors_removed = seq.length() - result.sequence.length();

  const auto final_det = sim.run(result.sequence, faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (final_det[i].detected && !base[i].detected) ++result.extra_detected;
  result.gate_evals = evals_scope.delta(obs::Counter::GateEvals);
  return result;
}

template <typename Simulator, typename FaultT>
CompactionResult restoration_impl(const Netlist& nl, const TestSequence& seq,
                                  std::span<const FaultT> faults,
                                  const RestorationOptions& options) {
  Simulator sim(nl);
  CompactionResult result;
  result.original_length = seq.length();
  const obs::CounterScope evals_scope;

  // The selection lives as a keep-mask; trials read it through a copy-free
  // SequenceView over `seq` instead of materializing a subsequence.
  std::vector<char> keep(seq.length(), 0);
  std::vector<std::size_t> kept;
  const auto selection = [&]() -> SequenceView {
    kept.clear();
    for (std::size_t t = 0; t < keep.size(); ++t)
      if (keep[t]) kept.push_back(t);
    return SequenceView(seq, kept);
  };

  const auto base = sim.run(seq, faults);
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base[i].detected) targets.push_back(i);
  std::sort(targets.begin(), targets.end(), [&](std::size_t a, std::size_t b) {
    return base[a].time > base[b].time;
  });

  bool converged = false;
  StridedPoll cancel(options.cancel);
  for (std::size_t round = 0; round < options.max_rounds && !result.timed_out; ++round) {
    const obs::TraceSpan round_span("restoration_round");
    ++result.rounds;
    bool all_ok = true;

    std::vector<FaultT> target_faults;
    target_faults.reserve(targets.size());
    for (std::size_t i : targets) target_faults.push_back(faults[i]);
    const auto cur_det = sim.run(selection(), target_faults);

    for (std::size_t k = 0; k < targets.size(); ++k) {
      if (cancel.poll()) {
        result.timed_out = true;
        break;
      }
      if (cur_det[k].detected) continue;
      const std::size_t fi = targets[k];
      const FaultT f = faults[fi];
      const std::size_t t_f = base[fi].time;

      const FaultT one[1] = {f};
      if (sim.detects_all(selection(), one)) continue;
      all_ok = false;

      std::size_t lo = t_f;
      for (;;) {
        obs::count(obs::Counter::RestorationRestores);
        if (cancel.poll()) {
          result.timed_out = true;
          break;
        }
        for (std::size_t t = lo; t <= t_f; ++t) keep[t] = 1;
        if (sim.detects_all(selection(), one)) break;
        if (lo == 0) break;
        const std::size_t width = t_f - lo + 1;
        lo = width * 2 >= lo ? 0 : lo - width * 2;
      }
    }
    if (result.timed_out) break;
    if (all_ok) {
      converged = true;
      break;
    }
  }

  // Restoration's invariant only holds at convergence: a partial selection
  // may miss faults the original sequence detected. Rather than trade away
  // coverage, a pre-convergence timeout degrades to the identity compaction.
  if (result.timed_out && !converged) std::fill(keep.begin(), keep.end(), 1);

  if (options.prune_segments && !result.timed_out) {
    std::vector<FaultT> target_faults;
    for (std::size_t i : targets) target_faults.push_back(faults[i]);
    std::vector<std::pair<std::size_t, std::size_t>> segments;
    for (std::size_t t = 0; t < keep.size();) {
      if (!keep[t]) {
        ++t;
        continue;
      }
      std::size_t end = t;
      while (end < keep.size() && keep[end]) ++end;
      segments.emplace_back(t, end);
      t = end;
    }
    std::sort(segments.begin(), segments.end(), [](const auto& a, const auto& b) {
      return (a.second - a.first) > (b.second - b.first);
    });
    for (const auto& [begin, end] : segments) {
      // Committed drops are individually verified, so stopping between
      // segments keeps the converged (coverage-complete) selection.
      if (cancel.poll()) {
        result.timed_out = true;
        break;
      }
      for (std::size_t t = begin; t < end; ++t) keep[t] = 0;
      if (!sim.detects_all(selection(), target_faults))
        for (std::size_t t = begin; t < end; ++t) keep[t] = 1;
    }
  }

  result.sequence = selection().materialize();
  result.vectors_removed = seq.length() - result.sequence.length();

  const auto final_det = sim.run(result.sequence, faults);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (final_det[i].detected && !base[i].detected) ++result.extra_detected;
  result.gate_evals = evals_scope.delta(obs::Counter::GateEvals);
  return result;
}

}  // namespace uniscan::detail
