#include "sim/fault_sim.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "obs/counters.hpp"
#include "sim/sequential_sim.hpp"
#include "sim/transition_sim.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {

// ---------------------------------------------------------------------------
// Stuck-at injection

template <class Word>
StuckAtModel::Injector<Word>::Injector(const CompiledNetlist& cnl, std::span<const Fault> faults)
    : cnl_(&cnl) {
  const std::size_t n = cnl.num_gates();
  stem_.assign(n, Forcing{});
  branch_head_.assign(n, -1);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    const unsigned slot = static_cast<unsigned>(i + 1);  // slot 0 is the good machine
    if (f.pin == kStemPin) {
      w_set(f.stuck_one ? stem_[f.gate].set1 : stem_[f.gate].set0, slot);
      continue;
    }
    // Per-gate intrusive chain instead of one flat list: lookup while
    // building the tables is O(branches on this gate), not O(branches in
    // batch).
    std::int32_t idx = branch_head_[f.gate];
    while (idx >= 0 && branches_[static_cast<std::size_t>(idx)].pin != f.pin)
      idx = branches_[static_cast<std::size_t>(idx)].next;
    if (idx < 0) {
      branches_.push_back(BranchForce{f.pin, branch_head_[f.gate], Forcing{}});
      branch_head_[f.gate] = static_cast<std::int32_t>(branches_.size() - 1);
      idx = branch_head_[f.gate];
    }
    Forcing& force = branches_[static_cast<std::size_t>(idx)].force;
    w_set(f.stuck_one ? force.set1 : force.set0, slot);
  }
}

template <class Word>
void StuckAtModel::Injector<Word>::bind(const CompiledNetlist& cnl,
                                        std::span<const GateId> forced) {
  const auto for_branches = [&](GateId g, auto&& fn) {
    for (std::int32_t idx = branch_head_[g]; idx >= 0;
         idx = branches_[static_cast<std::size_t>(idx)].next)
      fn(branches_[static_cast<std::size_t>(idx)]);
  };
  pin_off_.assign(forced.size() + 1, 0);
  for (std::size_t k = 0; k < forced.size(); ++k)
    pin_off_[k + 1] = pin_off_[k] + static_cast<std::uint32_t>(cnl.fanin_count(forced[k]));
  pin_force_.assign(pin_off_.back(), Forcing{});
  for (std::size_t k = 0; k < forced.size(); ++k)
    for_branches(forced[k], [&](const BranchForce& b) {
      pin_force_[pin_off_[k] + static_cast<std::uint32_t>(b.pin)] = b.force;
    });
  pin_any_.assign(pin_force_.size(), 0);
  for (std::size_t i = 0; i < pin_force_.size(); ++i) pin_any_[i] = pin_force_[i].any();
  forced_stem_.assign(forced.size(), 0);
  for (std::size_t k = 0; k < forced.size(); ++k) forced_stem_[k] = stem_[forced[k]].any();

  dff_force_.assign(cnl.dffs().size(), Forcing{});
  for (std::size_t j = 0; j < cnl.dffs().size(); ++j)
    for_branches(cnl.dffs()[j], [&](const BranchForce& b) {
      if (b.pin == 0) dff_force_[j] = b.force;
    });
}

template <class Word>
inline W3T<Word> StuckAtModel::Injector<Word>::eval_forced(std::size_t k, GateId g,
                                                           const W* values,
                                                           SimBatchStateT<Word>&) const noexcept {
  // The hottest per-frame path after the type runs: one call per forced
  // gate per frame, and the number of forced gates per batch grows with the
  // slot width. Fanins stream straight into the accumulator — no staging
  // buffer — and only pins that actually carry a branch injection pay the
  // forcing masks (most are identity).
  const auto fan = cnl_->fanins(g);
  const Forcing* pf = pin_force_.data() + pin_off_[k];
  const std::uint8_t* pa = pin_any_.data() + pin_off_[k];
  const auto in = [&](std::size_t p) noexcept {
    const W w = values[fan[p]];
    return pa[p] ? pf[p].apply(w) : w;
  };
  const GateType t = cnl_->type(g);
  W out;
  switch (t) {
    case GateType::Buf: out = in(0); break;
    case GateType::Not: out = w3_not(in(0)); break;
    case GateType::And:
    case GateType::Nand: {
      W acc = in(0);
      for (std::size_t p = 1; p < fan.size(); ++p) acc = w3_and(acc, in(p));
      out = t == GateType::Nand ? w3_not(acc) : acc;
      break;
    }
    case GateType::Or:
    case GateType::Nor: {
      W acc = in(0);
      for (std::size_t p = 1; p < fan.size(); ++p) acc = w3_or(acc, in(p));
      out = t == GateType::Nor ? w3_not(acc) : acc;
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      W acc = in(0);
      for (std::size_t p = 1; p < fan.size(); ++p) acc = w3_xor(acc, in(p));
      out = t == GateType::Xnor ? w3_not(acc) : acc;
      break;
    }
    case GateType::Mux2: out = w3_mux(in(0), in(1), in(2)); break;
    case GateType::Const0: out = W::all_zero(); break;
    case GateType::Const1: out = W::all_one(); break;
    case GateType::Input:
    case GateType::Dff: out = W::all_x(); break;  // forced gates are combinational
  }
  return forced_stem_[k] ? stem_[g].apply(out) : out;
}

// ---------------------------------------------------------------------------
// Transition injection

namespace {

/// Faulty slot value under the one-cycle gross-delay model.
inline V3 delayed_value(bool slow_to_rise, V3 driven_now, V3 driven_prev) noexcept {
  return slow_to_rise ? v3_and(driven_now, driven_prev) : v3_or(driven_now, driven_prev);
}

}  // namespace

template <class Word>
TransitionModel::Injector<Word>::Injector(const CompiledNetlist& cnl,
                                          std::span<const TransitionFault> faults)
    : cnl_(&cnl), faults_(faults) {
  const std::size_t n = cnl.num_gates();
  stem_head_.assign(n, kNone);
  branch_head_.assign(n, kNone);
  next_.assign(faults.size(), kNone);
  pending_.assign(faults.size(), V3::X);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const TransitionFault& f = faults[i];
    auto& head = (f.pin == kStemPin) ? stem_head_ : branch_head_;
    next_[i] = head[f.gate];
    head[f.gate] = static_cast<std::int32_t>(i);
  }
}

template <class Word>
void TransitionModel::Injector<Word>::init_state(SimBatchStateT<Word>& s) const {
  s.prev_driven.assign(faults_.size(), V3::X);
}

template <class Word>
void TransitionModel::Injector<Word>::bind(const CompiledNetlist& cnl,
                                          std::span<const GateId> forced) {
  pin_off_.assign(forced.size() + 1, 0);
  for (std::size_t k = 0; k < forced.size(); ++k)
    pin_off_[k + 1] = pin_off_[k] + static_cast<std::uint32_t>(cnl.fanin_count(forced[k]));
  pin_head_.assign(pin_off_.back(), kNone);
  pin_next_.assign(faults_.size(), kNone);
  for (std::size_t k = 0; k < forced.size(); ++k)
    for (std::int32_t i = branch_head_[forced[k]]; i != kNone; i = next_[i]) {
      std::int32_t& head = pin_head_[pin_off_[k] + static_cast<std::uint32_t>(faults_[i].pin)];
      pin_next_[i] = head;
      head = i;
    }
}

template <class Word>
inline void TransitionModel::Injector<Word>::inject(std::int32_t i, W& w,
                                                    SimBatchStateT<Word>& s) const {
  const unsigned slot = static_cast<unsigned>(i + 1);
  const V3 now = w.get(slot);
  w.set(slot, delayed_value(faults_[i].slow_to_rise, now, s.prev_driven[i]));
  pending_[i] = now;
}

template <class Word>
void TransitionModel::Injector<Word>::patch(GateId g, W& w, SimBatchStateT<Word>& s) const {
  for (std::int32_t i = stem_head_[g]; i != kNone; i = next_[i]) inject(i, w, s);
}

template <class Word>
inline W3T<Word> TransitionModel::Injector<Word>::eval_forced(std::size_t k, GateId g,
                                                              const W* values,
                                                              SimBatchStateT<Word>& s) const {
  // Fanins stream straight into the gate evaluation, as in the stuck-at
  // injector; a pin's branch faults are applied as that pin is read, so
  // every pending_ entry of the gate is refreshed exactly once.
  const auto fan = cnl_->fanins(g);
  const std::int32_t* head = pin_head_.data() + pin_off_[k];
  const auto in = [&](std::size_t p) {
    W w = values[fan[p]];
    for (std::int32_t i = head[p]; i != kNone; i = pin_next_[i]) inject(i, w, s);
    return w;
  };
  W w = eval_gate_w3<Word>(cnl_->type(g), fan.size(), in);
  if (has_stem(g)) patch(g, w, s);
  return w;
}

template <class Word>
W3T<Word> TransitionModel::Injector<Word>::dff_input(std::size_t, GateId ff, W d,
                                                     SimBatchStateT<Word>& s) const {
  // A DFF's only pin is its D pin: every branch fault on it sits there.
  for (std::int32_t i = branch_head_[ff]; i != kNone; i = next_[i]) inject(i, d, s);
  return d;
}

template <class Word>
void TransitionModel::Injector<Word>::end_frame(SimBatchStateT<Word>& s) const {
  // Every injection site is evaluated every frame (sites are always in the
  // batch's cone), so every pending entry was refreshed this frame.
  for (std::size_t i = 0; i < faults_.size(); ++i) s.prev_driven[i] = pending_[i];
}

// ---------------------------------------------------------------------------
// BatchRunnerT

template <class Word, class Model>
BatchRunnerT<Word, Model>::BatchRunnerT(const CompiledNetlist& cnl,
                                        std::span<const FaultT> faults)
    : cnl_(&cnl), faults_(faults), inj_(cnl, faults) {
  if (faults.size() > kSlots - 1) throw std::invalid_argument("BatchRunner: batch too large");
  for (std::size_t i = 0; i < faults.size(); ++i)
    w_set(slot_mask_, static_cast<unsigned>(i + 1));  // slot 0 is the good machine

  // Combinational gates carrying a branch (pin) injection leave the tight
  // type runs and are evaluated individually; a stem-only site keeps its
  // type-run evaluation and just has its output injection patched on
  // afterwards (the fast path — a patch is a few mask ops instead of a full
  // per-gate re-evaluation every frame). Boundary-gate stem injection is
  // applied while loading boundary values, DFF D-pin injection while
  // sampling.
  std::vector<GateId> sites;
  sites.reserve(faults.size());
  std::vector<GateId> patched;
  std::vector<std::uint8_t> mark(cnl.num_gates(), 0);
  for (const FaultT& f : faults) {
    sites.push_back(f.gate);
    if (mark[f.gate]) continue;
    mark[f.gate] = 1;
    if (!is_combinational(cnl.type(f.gate))) continue;
    if (inj_.has_branch(f.gate)) forced_.push_back(f.gate);
    else if (inj_.has_stem(f.gate)) patched.push_back(f.gate);
  }

  prog_ = cnl.build_program(sites, forced_, /*prune=*/true);
  inj_.bind(cnl, forced_);

  // Level-ascending merge of the two fixup streams. A fixup at level L runs
  // after the type runs of level <= L (so a patch sees its own run-computed
  // value, and a forced gate sees all its fanins), before any higher run.
  std::stable_sort(patched.begin(), patched.end(),
                   [&](GateId a, GateId b) { return cnl.level(a) < cnl.level(b); });
  const std::size_t nf = prog_.forced_order.size();
  std::size_t fi = 0, pi = 0;
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  while (fi < nf || pi < patched.size()) {
    const std::uint32_t flv = fi < nf ? prog_.forced_level[fi] : kMax;
    const std::uint32_t plv = pi < patched.size() ? cnl.level(patched[pi]) : kMax;
    if (plv < flv) {
      fix_idx_.push_back(patched[pi++]);
      fix_level_.push_back(plv);
      fix_patch_.push_back(1);
    } else {
      fix_idx_.push_back(prog_.forced_order[fi++]);
      fix_level_.push_back(flv);
      fix_patch_.push_back(0);
    }
  }
}

template <class Word, class Model>
SimBatchStateT<Word> BatchRunnerT<Word, Model>::initial_state() const {
  State s;
  s.live = slot_mask_;
  s.state.assign(cnl_->dffs().size(), W3T<Word>::all_x());
  inj_.init_state(s);
  return s;
}

namespace {

#if defined(__x86_64__)
// The ISA kernel entries: the one run_frames body, flattened into a function
// compiled for AVX2 / AVX-512F so the Simd256 / Simd512 operators inlined
// there lower to ymm / zmm. The wider ISA stays confined to these two
// internal functions: whatever they inline keeps its baseline out-of-line
// copy, so the binary still runs on any x86-64 (CI disassembles uniscan_cli
// to check).
template <class Body>
[[gnu::target("avx2"), gnu::flatten]] std::uint64_t kernel_avx2(const Body& body) {
  return body();
}
template <class Body>
[[gnu::target("avx512f"), gnu::flatten]] std::uint64_t kernel_avx512(const Body& body) {
  return body();
}
#endif

/// `body()` on the ISA entry of slot word `Word`; std::uint64_t (and every
/// word off x86-64) has none and runs it as is.
template <class Word, class Body>
std::uint64_t on_isa_entry(const Body& body) {
#if defined(__x86_64__)
  if constexpr (std::is_same_v<Word, Simd256>) return kernel_avx2(body);
  if constexpr (std::is_same_v<Word, Simd512>) return kernel_avx512(body);
#endif
  return body();
}

}  // namespace

template <class Word, class Model>
std::uint64_t BatchRunnerT<Word, Model>::advance(State& s, const SequenceView& view,
                                                 std::vector<W3T<Word>>& values,
                                                 const AdvanceOptions& opt) const {
  return advance_on(kSlots <= slot_width_bits(native_slot_width()), s, view, values, opt);
}

template <class Word, class Model>
std::uint64_t BatchRunnerT<Word, Model>::advance_on(bool isa_entry, State& s,
                                                    const SequenceView& view,
                                                    std::vector<W3T<Word>>& values,
                                                    const AdvanceOptions& opt) const {
  const std::size_t start_frame = s.frame;
  const auto body = [&] { return run_frames(s, view, values, opt); };
  const std::uint64_t evals = isa_entry ? on_isa_entry<Word>(body) : body();
  // Single telemetry choke point: every fault-simulation consumer (one-shot
  // runs, sessions, compaction trials) of either fault model advances
  // through here, so GateEvals needs no per-object plumbing. ConePruneHits
  // counts the gate-word evaluations the pruned program avoided versus the
  // full evaluation order over the frames actually entered (s.frame
  // advanced past them both on completion and on early exit).
  obs::count(obs::Counter::BatchesRun, 1);
  obs::count(obs::Counter::GateEvals, evals);
  if (prog_.pruned) {
    const std::uint64_t frames = s.frame - start_frame;
    const std::uint64_t full = cnl_->eval_order().size();
    if (full > prog_.evals_per_frame)
      obs::count(obs::Counter::ConePruneHits, frames * (full - prog_.evals_per_frame));
  }
  return evals;
}

namespace {

/// Slots of a DFF machine-pair word `w` (entering frame t+1) whose known
/// value opposes the known good value get recorded, keeping the occurrence
/// deepest in the chain (fewest flush shifts).
template <class Word>
inline void record_latches(const W3T<Word>& w, std::size_t j, std::size_t t,
                           std::span<LatchRecord> latched) noexcept {
  const bool good0 = w_bit0(w.v0);
  const bool good1 = w_bit0(w.v1);
  Word diff{};
  if (good1) diff = w.v0;
  else if (good0) diff = w.v1;
  w_clear(diff, 0);
  w_for_each_set(diff, [&](unsigned slot) {
    LatchRecord& lr = latched[slot - 1];
    if (!lr.latched || j >= lr.ff_index) {
      lr.latched = true;
      lr.ff_index = static_cast<std::uint32_t>(j);
      lr.time = static_cast<std::uint32_t>(t);
    }
  });
}

}  // namespace

template <class Word, class Model>
std::uint64_t BatchRunnerT<Word, Model>::run_frames(State& s, const SequenceView& view,
                                                    std::vector<W3T<Word>>& values,
                                                    const AdvanceOptions& opt) const {
  using W = W3T<Word>;
  const CompiledNetlist& cnl = *cnl_;
  values.resize(cnl.num_gates());
  const auto& inputs = cnl.inputs();
  const auto& dffs = cnl.dffs();
  const auto& dff_d = cnl.dff_d();
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  std::uint64_t evals = 0;

  for (std::size_t t = s.frame; t < view.length(); ++t) {
    if (opt.probe) {
      s.frame = t;
      if (opt.probe(opt.probe_ctx, s)) return evals;
    }

    // Boundary values, with stem injection on PIs and sampled DFF outputs.
    const auto& vec = view.vector_at(t);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      values[inputs[i]] = inj_.boundary(inputs[i], W::broadcast(vec[i]), s);
    for (const std::uint32_t j : prog_.samp_dff)
      values[dffs[j]] = inj_.boundary(dffs[j], s.state[j], s);

    // Type runs and fixups (individually evaluated gates + stem patches),
    // interleaved level-major: a fixup at level L runs after the runs of
    // level <= L and before any run of a higher level (no combinational
    // edges within a level, so the relative order inside a level is free).
    std::size_t fi = 0, ri = 0;
    const std::size_t nf = fix_idx_.size();
    const std::size_t nr = prog_.runs.size();
    while (ri < nr || fi < nf) {
      const std::uint32_t fl = fi < nf ? fix_level_[fi] : kMax;
      std::size_t rj = ri;
      while (rj < nr && prog_.runs[rj].level <= fl) ++rj;
      if (rj > ri) {
        cnl.eval_runs_w3t<Word>(std::span<const TypeRun>(prog_.runs.data() + ri, rj - ri),
                                prog_.eval.data(), values.data());
        ri = rj;
      }
      const std::uint32_t rl = ri < nr ? prog_.runs[ri].level : kMax;
      while (fi < nf && fix_level_[fi] < rl) {
        if (fix_patch_[fi]) {
          const GateId g = fix_idx_[fi];
          inj_.patch(g, values[g], s);
        } else {
          const std::size_t k = fix_idx_[fi];
          values[forced_[k]] = inj_.eval_forced(k, forced_[k], values.data(), s);
        }
        ++fi;
      }
    }
    evals += prog_.evals_per_frame;

    // Detection at the batch's observable primary outputs: a slot leaves
    // `live` at its first observation.
    Word raw{};
    for (const GateId po : prog_.obs_po) {
      const W w = values[po];
      if (w_bit0(w.v1)) raw = raw | w.v0;
      else if (w_bit0(w.v0)) raw = raw | w.v1;
    }
    if (opt.raw_obs) opt.raw_obs[t] = raw;
    w_for_each_set(raw & s.live, [&](unsigned slot) {
      if (!w_test(s.detected_slots, slot)) {
        w_set(s.detected_slots, slot);
        s.detect_time[slot] = static_cast<std::uint32_t>(t);
      }
      w_clear(s.live, slot);
    });

    if (opt.early_exit && !w_any(s.live)) {
      s.frame = t + 1;  // state was not clocked into frame t+1 — see header
      return evals;
    }

    // Next state of the sampled DFFs (with D-pin injection), then the
    // model's end-of-frame commit.
    for (const std::uint32_t j : prog_.samp_dff)
      s.state[j] = inj_.dff_input(j, dffs[j], values[dff_d[j]], s);
    inj_.end_frame(s);

    // Latched fault effects can only sit in cone DFFs: faulty slot differs
    // (known vs opposite known) from the good machine in the state entering
    // frame t+1.
    if (!opt.latched.empty())
      for (const std::uint32_t j : prog_.latch_dff)
        record_latches(s.state[j], j, t, opt.latched);
  }

  s.frame = view.length();
  return evals;
}

// ---------------------------------------------------------------------------
// FaultSimulatorT

template <class Model>
FaultSimulatorT<Model>::FaultSimulatorT(const Netlist& nl)
    : nl_(&nl), compiled_(nl.compiled_shared()) {}

namespace {

/// Call fn.template operator()<Word>() at the slot width efficient for `n`
/// concurrent faults.
template <class Fn>
decltype(auto) at_slot_width(std::size_t n, Fn&& fn) {
  switch (efficient_slot_width(n, widest_slot_width())) {
    case SlotWidth::W256: return fn.template operator()<Simd256>();
    case SlotWidth::W512: return fn.template operator()<Simd512>();
    default: return fn.template operator()<std::uint64_t>();
  }
}

}  // namespace

template <class Model>
template <class Word, class Done>
void FaultSimulatorT<Model>::run_batches(const SequenceView& view,
                                         std::span<const fault_type> faults, std::size_t first,
                                         std::size_t last,
                                         const typename BatchRunnerT<Word>::AdvanceOptions& opt,
                                         std::vector<LatchRecord>* latched, Done&& done) const {
  constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
  ThreadPool& pool = ThreadPool::global();
  if (scratch_.size() < pool.num_workers()) scratch_.resize(pool.num_workers());
  pool.parallel_for(last - first, [&](std::size_t k, std::size_t w) {
    const std::size_t base = (first + k) * kPer;
    const std::size_t count = std::min<std::size_t>(kPer, faults.size() - base);
    const BatchRunnerT<Word> runner(*compiled_, faults.subspan(base, count));
    SimBatchStateT<Word> s = runner.initial_state();
    typename BatchRunnerT<Word>::AdvanceOptions o = opt;
    if (latched) o.latched = std::span<LatchRecord>(latched->data() + base, count);
    runner.advance(s, view, scratch_[w].template get<Word>(), o);
    done(base, runner, s);
  });
}

template <class Model>
std::vector<DetectionRecord> FaultSimulatorT<Model>::run(const TestSequence& seq,
                                                         std::span<const fault_type> faults,
                                                         std::vector<LatchRecord>* latched) const {
  return run(SequenceView(seq), faults, latched);
}

template <class Model>
std::vector<DetectionRecord> FaultSimulatorT<Model>::run(const SequenceView& view,
                                                         std::span<const fault_type> faults,
                                                         std::vector<LatchRecord>* latched) const {
  std::vector<DetectionRecord> out(faults.size());
  if (latched) latched->assign(faults.size(), LatchRecord{});
  at_slot_width(faults.size(), [&]<class Word>() {
    constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
    typename BatchRunnerT<Word>::AdvanceOptions opt;
    opt.early_exit = latched == nullptr;
    run_batches<Word>(view, faults, 0, (faults.size() + kPer - 1) / kPer, opt, latched,
                      [&](std::size_t base, const auto& runner, const auto& s) {
                        for (std::size_t i = 0; i < runner.faults().size(); ++i) {
                          const unsigned slot = static_cast<unsigned>(i + 1);
                          if (w_test(s.detected_slots, slot)) {
                            out[base + i].detected = true;
                            out[base + i].time = s.detect_time[slot];
                          }
                        }
                      });
  });
  return out;
}

template <class Model>
bool FaultSimulatorT<Model>::detects_all(const TestSequence& seq,
                                         std::span<const fault_type> faults) const {
  return detects_all(SequenceView(seq), faults);
}

template <class Model>
bool FaultSimulatorT<Model>::detects_all(const SequenceView& view,
                                         std::span<const fault_type> faults) const {
  return at_slot_width(faults.size(), [&]<class Word>() {
    constexpr std::size_t kPer = WordTraits<Word>::kBits - 1;
    const std::size_t num_batches = (faults.size() + kPer - 1) / kPer;
    // Deterministic wave-scheduled fail-fast (DESIGN.md §5g): batches run in
    // fixed-size waves with the fail flag checked serially BETWEEN waves
    // only. Every batch of a scheduled wave always runs to completion, so
    // the set of executed batch advances — and with it every work counter —
    // depends only on the input, never on thread timing. The returned
    // verdict is identical to a run without fail-fast.
    bool ok = true;
    for (std::size_t wave = 0; wave < num_batches && ok; wave += kFailFastWave) {
      std::atomic<bool> wave_ok{true};
      run_batches<Word>(view, faults, wave, std::min(wave + kFailFastWave, num_batches), {},
                        nullptr, [&](std::size_t, const auto& runner, const auto& s) {
                          if (!((s.detected_slots & runner.slot_mask()) == runner.slot_mask()))
                            wave_ok.store(false, std::memory_order_relaxed);
                        });
      ok = wave_ok.load(std::memory_order_relaxed);
    }
    return ok;
  });
}

template <class Model>
std::vector<std::size_t> FaultSimulatorT<Model>::detected_indices(
    const TestSequence& seq, std::span<const fault_type> faults) const {
  std::vector<std::size_t> out;
  const auto records = run(seq, faults);
  for (std::size_t i = 0; i < records.size(); ++i)
    if (records[i].detected) out.push_back(i);
  return out;
}

template class BatchRunnerT<std::uint64_t, StuckAtModel>;
template class BatchRunnerT<Simd256, StuckAtModel>;
template class BatchRunnerT<Simd512, StuckAtModel>;
template class FaultSimulatorT<StuckAtModel>;

template class BatchRunnerT<std::uint64_t, TransitionModel>;
template class BatchRunnerT<Simd256, TransitionModel>;
template class BatchRunnerT<Simd512, TransitionModel>;
template class FaultSimulatorT<TransitionModel>;

}  // namespace uniscan
