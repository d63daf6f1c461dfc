// Shared engine of the streaming fault-simulation sessions (DESIGN.md §5j).
//
// SimSessionT<Model> (sim/fault_sim_session.hpp) is a pimpl over this core
// for either fault model: faults packed hardest-first into batches of
// kBits-1 slots, dead batches skipped, live batches fanned across
// ThreadPool::global(), detections merged serially in batch order.
// SessionCoreT<Sim> implements that machine once, templated over the
// simulator (FaultSimulator / TransitionFaultSimulator), and adds the
// live-fault compaction layer:
//
//  * Repacking. As faults are detected, batches thin out — dead-batch skip
//    only helps once ALL lanes of a batch die, so late-phase advances run
//    mostly-empty words. At the start of an advance (the serial point
//    between parallel waves, so the decision is a pure function of the
//    session's thread-invariant state) the core repacks the surviving
//    faults into dense batches whenever that removes at least a quarter of
//    the live batches, rebuilding the affected BatchPrograms for exactly
//    the new batches.
//  * Narrowing. The initial width and every repack target width are
//    efficient_slot_width(live, widest_slot_width()) — 512→256→64 as the
//    live population shrinks below what wide lanes amortize (and tiny
//    circuits start narrow on day one).
//  * Pack cache. Tentative advance/restore cycles (snapshot → advance →
//    restore) would otherwise rebuild the same pack every failed trial; the
//    last pack built per width is cached and reused when the survivor set
//    is unchanged.
//
// Determinism: a fault's detection is a pure function of its own slot —
// batches never interact — so moving a fault to a new batch/slot/width
// cannot change its detections, only the work done. The repacked state is
// constructed to be machine-for-machine identical: every DFF the new
// runner samples gets the good-machine value with the fault's old faulty
// value (good where the old runner did not sample — no fault effect could
// reach there). Results are therefore those of the scalar reference
// simulator at any width and any thread count; repacking shrinks
// gate_evals/batches_run, repack_events/lanes_reclaimed record its activity.
//
// Snapshots hold a shared_ptr to the immutable pack they were captured
// under plus the live batch states, so restore() re-installs that exact
// engine (possibly switching widths). A snapshot is only valid for the
// session that produced it; restoring a foreign or empty snapshot throws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/engine.hpp"
#include "sim/fault_order.hpp"
#include "sim/fault_sim.hpp"
#include "sim/logic3.hpp"
#include "sim/sequence.hpp"
#include "sim/sequence_view.hpp"
#include "sim/sequential_sim.hpp"
#include "sim/slot_word.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {

template <class Sim>
class SessionCoreT {
 public:
  using FaultT = typename Sim::fault_type;
  template <class Word>
  using RunnerT = typename Sim::template BatchRunnerT<Word>;

  /// `name` prefixes exception messages ("FaultSimSession", ...). The core
  /// references (not copies) `nl`; it must outlive the core.
  SessionCoreT(const Netlist& nl, std::span<const FaultT> faults, const char* name)
      : nl_(&nl),
        compiled_(nl.compiled_shared()),
        faults_(faults.begin(), faults.end()),
        name_(name),
        good_runner_(*compiled_, std::span<const FaultT>{}) {
    detection_.assign(faults_.size(), DetectionRecord{});
    good_ = good_runner_.initial_state();

    // Initial packing: hardest-first (observation depth as the
    // detection-likelihood proxy, structurally grouped within a depth class
    // — sim/fault_order.hpp) at the width the whole population justifies.
    std::vector<std::size_t> order = hardest_first_order(nl, std::span<const FaultT>(faults_));
    install_fresh_engine(efficient_slot_width(faults_.size(), max_width_), std::move(order));
    obs::count_max(obs::Counter::LiveFaultsPeak, faults_.size());
  }

  std::size_t advance(const TestSequence& chunk) {
    if (chunk.num_inputs() != nl_->num_inputs())
      throw std::invalid_argument(std::string(name_) + "::advance: input width mismatch");
    const SequenceView view(chunk);
    const obs::TraceSpan span("session_advance");

    std::visit([&](auto& eng) { maybe_repack(eng); }, engine_);
    const std::size_t gained =
        std::visit([&](auto& eng) { return advance_engine(eng, view); }, engine_);
    now_ += chunk.length();
    return gained;
  }

  std::size_t now() const noexcept { return now_; }
  std::size_t num_faults() const noexcept { return faults_.size(); }
  bool is_detected(std::size_t i) const { return detection_[i].detected; }
  const std::vector<DetectionRecord>& detections() const noexcept { return detection_; }
  std::size_t num_detected() const noexcept { return num_detected_; }
  const CompiledNetlist& compiled() const noexcept { return *compiled_; }

  State good_state() const {
    State s(nl_->num_dffs(), V3::X);
    for (std::size_t j = 0; j < s.size(); ++j) s[j] = good_.state[j].get(0);
    return s;
  }

  /// (good, faulty) state pair of fault `i` entering the next frame; when
  /// `prev_driven` is non-null it receives the fault's launch history
  /// (transition model). Meaningful only for undetected faults — a detected
  /// fault's machine may have been repacked away, in which case both states
  /// report the good machine.
  void pair_state(std::size_t i, State& good, State& faulty, V3* prev_driven) const {
    std::visit([&](const auto& eng) { pair_state_engine(eng, i, good, faulty, prev_driven); },
               engine_);
  }

  std::shared_ptr<const void> snapshot() const {
    auto s = std::make_shared<CoreSnapshot>();
    s->owner = ident_;
    s->good = good_;
    s->detection = detection_;
    s->num_detected = num_detected_;
    s->now = now_;
    std::visit(
        [&](const auto& eng) {
          using Word = typename std::decay_t<decltype(eng)>::word_type;
          EngineSnap<Word> es;
          es.pack = eng.pack;
          for (std::size_t b = 0; b < eng.states.size(); ++b)
            if (w_any(eng.states[b].live)) es.live_states.emplace_back(b, eng.states[b]);
          s->eng = std::move(es);
        },
        engine_);
    return s;
  }

  void restore(const std::shared_ptr<const void>& snap) {
    const auto* s = static_cast<const CoreSnapshot*>(snap.get());
    if (!s || s->owner != ident_)
      throw std::invalid_argument(std::string(name_) +
                                  "::restore: snapshot from a different session");
    good_ = s->good;
    detection_ = s->detection;
    num_detected_ = s->num_detected;
    now_ = s->now;
    std::visit([&](const auto& es) { restore_engine(es); }, s->eng);
  }

 private:
  static constexpr std::size_t kNoPos = ~std::size_t{0};

  /// Immutable batch plan: the packed faults, their mapping to/from the
  /// original fault list, and one runner (injection tables + cone-pruned
  /// BatchProgram) per batch. Shared by the engine, the pack cache and any
  /// snapshots captured under it; never mutated after construction.
  template <class Word>
  struct PackT {
    static constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
    std::vector<FaultT> packed;      // batch-major; runners hold spans into it
    std::vector<std::size_t> orig;   // packed position -> original fault index
    std::vector<std::size_t> pos;    // original index -> packed position (kNoPos if dropped)
    std::vector<RunnerT<Word>> runners;
  };

  template <class Word>
  struct EngineT {
    using word_type = Word;
    std::shared_ptr<const PackT<Word>> pack;
    std::vector<SimBatchStateT<Word>> states;  // one per batch
  };

  template <class Word>
  struct EngineSnap {
    std::shared_ptr<const PackT<Word>> pack;
    std::vector<std::pair<std::size_t, SimBatchStateT<Word>>> live_states;
  };

  struct CoreSnapshot {
    // Identity token of the capturing core. Comparing raw core addresses
    // would false-match when a dead session's heap slot is reused; the
    // snapshot holding the token alive makes the token address unique among
    // all cores any live snapshot could have come from.
    std::shared_ptr<const int> owner;
    SimBatchStateT<std::uint64_t> good;
    std::variant<EngineSnap<std::uint64_t>, EngineSnap<Simd256>, EngineSnap<Simd512>> eng;
    std::vector<DetectionRecord> detection;
    std::size_t num_detected = 0;
    std::size_t now = 0;
  };

  template <class Word>
  std::shared_ptr<const PackT<Word>>& cache_slot() noexcept {
    if constexpr (std::is_same_v<Word, Simd256>) return cache256_;
    else if constexpr (std::is_same_v<Word, Simd512>) return cache512_;
    else return cache64_;
  }

  /// Build (or fetch from the per-width cache) the pack for survivor list
  /// `orig`. Every pack's orig is a subsequence of the initial hardest-first
  /// order, so equal survivor SETS have equal vectors and the comparison is
  /// exact.
  template <class Word>
  std::shared_ptr<const PackT<Word>> cached_or_build(std::vector<std::size_t> orig) {
    std::shared_ptr<const PackT<Word>>& slot = cache_slot<Word>();
    if (slot && slot->orig == orig) return slot;
    auto pack = std::make_shared<PackT<Word>>();
    pack->orig = std::move(orig);
    pack->packed.reserve(pack->orig.size());
    for (const std::size_t idx : pack->orig) pack->packed.push_back(faults_[idx]);
    pack->pos.assign(faults_.size(), kNoPos);
    for (std::size_t p = 0; p < pack->orig.size(); ++p) pack->pos[pack->orig[p]] = p;
    const std::size_t num_batches = (pack->packed.size() + PackT<Word>::kPer - 1) / PackT<Word>::kPer;
    pack->runners.reserve(num_batches);
    for (std::size_t b = 0; b < num_batches; ++b) {
      const std::size_t lo = b * PackT<Word>::kPer;
      const std::size_t count = std::min<std::size_t>(PackT<Word>::kPer, pack->packed.size() - lo);
      pack->runners.emplace_back(*compiled_,
                                 std::span<const FaultT>(pack->packed.data() + lo, count));
    }
    slot = pack;
    return pack;
  }

  void install_fresh_engine(SlotWidth w, std::vector<std::size_t> order) {
    const auto install = [&]<class Word>() {
      EngineT<Word> eng;
      eng.pack = cached_or_build<Word>(std::move(order));
      eng.states.reserve(eng.pack->runners.size());
      for (const RunnerT<Word>& r : eng.pack->runners) eng.states.push_back(r.initial_state());
      engine_ = std::move(eng);
    };
    switch (w) {
      case SlotWidth::W256: install.template operator()<Simd256>(); break;
      case SlotWidth::W512: install.template operator()<Simd512>(); break;
      default: install.template operator()<std::uint64_t>(); break;
    }
  }

  // ---- repacking ----------------------------------------------------------

  template <class OldWord>
  void maybe_repack(EngineT<OldWord>& old) {
    const std::size_t live = faults_.size() - num_detected_;
    std::size_t live_batches = 0;
    for (const auto& s : old.states)
      if (w_any(s.live)) ++live_batches;
    const SlotWidth cur = static_cast<SlotWidth>(WordTraits<OldWord>::kBits);
    const SlotWidth target = efficient_slot_width(live, max_width_);
    const std::size_t per_new = slot_width_bits(target) - 1;
    const std::size_t need = (live + per_new - 1) / per_new;
    // Repack when the width changes, or when dense same-width repacking
    // frees at least a quarter of the live batches. Both inputs are
    // thread-count-invariant, so the decision is too.
    if (target == cur && !(need < live_batches && need * 4 <= live_batches * 3)) return;
    switch (target) {
      case SlotWidth::W256: repack_to<Simd256>(old, live_batches); break;
      case SlotWidth::W512: repack_to<Simd512>(old, live_batches); break;
      default: repack_to<std::uint64_t>(old, live_batches); break;
    }
  }

  /// Rebuild the engine at `NewWord` over the current survivors, carrying
  /// every machine's state across. `old` aliases the active variant
  /// alternative: the new engine is fully built before engine_ is
  /// reassigned, and `old` is not touched afterwards.
  template <class NewWord, class OldWord>
  void repack_to(EngineT<OldWord>& old, std::size_t old_live_batches) {
    constexpr std::size_t kPerOld = PackT<OldWord>::kPer;
    constexpr std::size_t kPerNew = PackT<NewWord>::kPer;
    const PackT<OldWord>& opack = *old.pack;

    std::vector<std::size_t> orig;
    orig.reserve(faults_.size() - num_detected_);
    for (const std::size_t oi : opack.orig)
      if (!detection_[oi].detected) orig.push_back(oi);

    EngineT<NewWord> eng;
    eng.pack = cached_or_build<NewWord>(std::move(orig));
    const PackT<NewWord>& pack = *eng.pack;
    eng.states.reserve(pack.runners.size());
    const std::size_t num_dffs = nl_->num_dffs();
    for (std::size_t b = 0; b < pack.runners.size(); ++b) {
      const RunnerT<NewWord>& runner = pack.runners[b];
      const std::size_t lo = b * kPerNew;
      const std::size_t count = std::min<std::size_t>(kPerNew, pack.packed.size() - lo);
      SimBatchStateT<NewWord> s = runner.initial_state();
      // Machine-for-machine state transfer: each sampled DFF starts from
      // the (width-invariant) good value; a fault slot takes its old faulty
      // value where the old runner maintained the DFF. Where it did not,
      // the DFF was outside the old batch's cone-plus-support, so no fault
      // effect can have reached it and the good value IS the faulty value.
      for (std::size_t j = 0; j < num_dffs; ++j) {
        if (!runner.samples_dff(j)) continue;  // never read by the new runner
        const V3 g = good_.state[j].get(0);
        W3T<NewWord> w = W3T<NewWord>::broadcast(g);
        for (std::size_t q = 0; q < count; ++q) {
          const std::size_t op = opack.pos[pack.orig[lo + q]];
          const std::size_t ob = op / kPerOld;
          if (!opack.runners[ob].samples_dff(j)) continue;
          const V3 v = old.states[ob].state[j].get(static_cast<unsigned>(op % kPerOld + 1));
          if (v != g) w.set(static_cast<unsigned>(q + 1), v);
        }
        s.state[j] = w;
      }
      // Launch history (transition model; empty for stuck-at states).
      if (!s.prev_driven.empty()) {
        for (std::size_t q = 0; q < count; ++q) {
          const std::size_t op = opack.pos[pack.orig[lo + q]];
          s.prev_driven[q] = old.states[op / kPerOld].prev_driven[op % kPerOld];
        }
      }
      eng.states.push_back(std::move(s));
    }

    obs::count(obs::Counter::RepackEvents);
    const std::size_t old_cap = old_live_batches * kPerOld;
    const std::size_t new_cap = pack.runners.size() * kPerNew;
    if (old_cap > new_cap) obs::count(obs::Counter::LanesReclaimed, old_cap - new_cap);
    engine_ = std::move(eng);
  }

  // ---- advance ------------------------------------------------------------

  template <class Word>
  std::size_t advance_engine(EngineT<Word>& eng, const SequenceView& view) {
    constexpr std::size_t kPer = PackT<Word>::kPer;
    const PackT<Word>& pack = *eng.pack;

    live_idx_.clear();
    for (std::size_t b = 0; b < eng.states.size(); ++b)
      if (w_any(eng.states[b].live)) live_idx_.push_back(b);
    obs::count(obs::Counter::BatchSkips, eng.states.size() - live_idx_.size());
    std::vector<Word> before(live_idx_.size());

    // Task 0 advances the good machine (kept on the 64-bit word: one
    // machine never needs wide lanes, and its per-gate-word counts are
    // width-invariant); tasks 1.. advance the live batches. Sessions carry
    // their state across chunks, so every advance restarts the per-chunk
    // frame counter and runs without early exit (the state must be valid at
    // the chunk end even when every slot dies mid-chunk).
    ThreadPool& pool = ThreadPool::global();
    if (scratch_.size() < pool.num_workers()) scratch_.resize(pool.num_workers());
    typename RunnerT<Word>::AdvanceOptions opt;
    opt.early_exit = false;
    typename RunnerT<std::uint64_t>::AdvanceOptions good_opt;
    good_opt.early_exit = false;
    pool.parallel_for(live_idx_.size() + 1, [&](std::size_t k, std::size_t w) {
      if (k == 0) {
        good_.frame = 0;
        good_runner_.advance(good_, view, scratch_[w].template get<std::uint64_t>(), good_opt);
        return;
      }
      SimBatchStateT<Word>& s = eng.states[live_idx_[k - 1]];
      before[k - 1] = s.detected_slots;
      s.frame = 0;
      pack.runners[live_idx_[k - 1]].advance(s, view, scratch_[w].template get<Word>(), opt);
    });

    // Deterministic merge, in batch order.
    const std::size_t gained_before = num_detected_;
    for (std::size_t k = 0; k < live_idx_.size(); ++k) {
      const std::size_t b = live_idx_[k];
      const SimBatchStateT<Word>& s = eng.states[b];
      const Word newly = s.detected_slots & ~before[k];
      w_for_each_set(newly, [&](unsigned slot) {
        DetectionRecord& dr = detection_[pack.orig[b * kPer + slot - 1]];
        dr.detected = true;
        dr.time = static_cast<std::uint32_t>(now_ + s.detect_time[slot]);
        ++num_detected_;
      });
    }
    return num_detected_ - gained_before;
  }

  // ---- queries ------------------------------------------------------------

  template <class Word>
  void pair_state_engine(const EngineT<Word>& eng, std::size_t i, State& good, State& faulty,
                         V3* prev_driven) const {
    constexpr std::size_t kPer = PackT<Word>::kPer;
    const PackT<Word>& pack = *eng.pack;
    const std::size_t p = pack.pos[i];
    good.assign(nl_->num_dffs(), V3::X);
    faulty.assign(nl_->num_dffs(), V3::X);
    if (p == kNoPos) {
      // Repacked away: the fault is detected, its machine no longer exists.
      for (std::size_t j = 0; j < good.size(); ++j) good[j] = faulty[j] = good_.state[j].get(0);
      if (prev_driven) *prev_driven = V3::X;
      return;
    }
    const unsigned slot = static_cast<unsigned>(p % kPer + 1);
    const std::size_t b = p / kPer;
    const SimBatchStateT<Word>& s = eng.states[b];
    const RunnerT<Word>& runner = pack.runners[b];
    for (std::size_t j = 0; j < good.size(); ++j) {
      if (runner.samples_dff(j)) {
        good[j] = s.state[j].get(0);
        faulty[j] = s.state[j].get(slot);
      } else {
        // Outside the batch's cone-plus-support the runner does not maintain
        // the DFF; both machines hold the (identical) good-machine value.
        const V3 v = good_.state[j].get(0);
        good[j] = v;
        faulty[j] = v;
      }
    }
    if (prev_driven)
      *prev_driven = (p % kPer) < s.prev_driven.size() ? s.prev_driven[p % kPer] : V3::X;
  }

  // ---- restore ------------------------------------------------------------

  template <class Word>
  void restore_engine(const EngineSnap<Word>& es) {
    // Batches live at capture time get their state back. Batches absent
    // from the snapshot were dead at capture time, so only their live mask
    // matters: a dead batch's machine state is never read (advance skips
    // it, pair_state falls back for detected faults), and the batch can
    // only come back to life through a restore that also carries its state.
    if (EngineT<Word>* cur = std::get_if<EngineT<Word>>(&engine_);
        cur && cur->pack == es.pack) {
      std::size_t k = 0;
      for (std::size_t b = 0; b < cur->states.size(); ++b) {
        if (k < es.live_states.size() && es.live_states[k].first == b) {
          cur->states[b] = es.live_states[k].second;
          ++k;
        } else {
          cur->states[b].live = Word{};
        }
      }
      return;
    }
    // The engine was repacked since the capture: re-install the snapshot's
    // pack (it is immutable and the snapshot keeps it alive).
    EngineT<Word> eng;
    eng.pack = es.pack;
    eng.states.reserve(es.pack->runners.size());
    std::size_t k = 0;
    for (std::size_t b = 0; b < es.pack->runners.size(); ++b) {
      if (k < es.live_states.size() && es.live_states[k].first == b) {
        eng.states.push_back(es.live_states[k].second);
        ++k;
      } else {
        SimBatchStateT<Word> s = es.pack->runners[b].initial_state();
        s.live = Word{};
        eng.states.push_back(std::move(s));
      }
    }
    engine_ = std::move(eng);
  }

  const Netlist* nl_;
  std::shared_ptr<const int> ident_ = std::make_shared<int>(0);  // see CoreSnapshot
  std::shared_ptr<const CompiledNetlist> compiled_;  // shared compile (declared first)
  std::vector<FaultT> faults_;  // original (caller) order
  const char* name_;
  RunnerT<std::uint64_t> good_runner_;  // empty batch: the good machine
  SimBatchStateT<std::uint64_t> good_;
  std::variant<EngineT<std::uint64_t>, EngineT<Simd256>, EngineT<Simd512>> engine_;
  std::vector<DetectionRecord> detection_;  // original order
  std::size_t num_detected_ = 0;
  std::size_t now_ = 0;
  const SlotWidth max_width_ = widest_slot_width();  // read once, at construction
  // Last pack built per width, so tentative advance/restore churn reuses it.
  std::shared_ptr<const PackT<std::uint64_t>> cache64_;
  std::shared_ptr<const PackT<Simd256>> cache256_;
  std::shared_ptr<const PackT<Simd512>> cache512_;
  // Per-advance scratch, sized once.
  std::vector<std::size_t> live_idx_;
  mutable std::vector<SlotScratch> scratch_;
};

}  // namespace uniscan
