#include "atpg/frame_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "obs/counters.hpp"

namespace uniscan {

FrameModel::FrameModel(std::optional<CompiledNetlist> owned, const CompiledNetlist* shared,
                       Fault fault, std::size_t num_frames)
    : owned_compile_(std::move(owned)),
      cnl_(shared ? shared : &*owned_compile_),
      nl_(&cnl_->netlist()),
      fault_(fault),
      num_frames_(num_frames),
      npi_(nl_->num_inputs()),
      ng_(nl_->num_gates()) {
  if (num_frames == 0) throw std::invalid_argument("FrameModel: zero frames");
  const Netlist& nl = *nl_;
  // One gate at most needs per-pin/stem fault forcing: exclude it from the
  // clean type runs and evaluate it individually between its level's runs.
  GateId forced[1];
  std::size_t nf = 0;
  const GateType ft = cnl_->type(fault_.gate);
  if (ft != GateType::Input && ft != GateType::Dff) forced[nf++] = fault_.gate;
  prog_ = cnl_->build_program({}, {forced, nf}, /*prune=*/false);
  const std::uint32_t fl =
      nf ? prog_.forced_level[0] : std::numeric_limits<std::uint32_t>::max();
  while (fault_split_ < prog_.runs.size() && prog_.runs[fault_split_].level <= fl)
    ++fault_split_;
  if (fault_.pin == 0 && ft == GateType::Dff)
    faulted_dff_d_ = static_cast<std::int32_t>(*nl.dff_index(fault_.gate));
  init_good_.assign(nl.num_dffs(), V3::X);
  init_faulty_.assign(nl.num_dffs(), V3::X);
  state_assign_.assign(nl.num_dffs(), V3::X);
  pi_pins_.assign(npi_, V3::X);
  pi_assign_.assign(num_frames_ * npi_, V3::X);
  values_.assign(num_frames_ * ng_, 0);
  tf_prev_by_frame_.assign(num_frames_, V3::X);
  frame_state_.assign((num_frames_ + 1) * nl.num_dffs(), 0);
  po_d_frame_.assign(num_frames_, 0);
  any_d_frame_.assign(num_frames_, 0);
  latch_frame_.assign(num_frames_, -1);
  frontier_off_.assign(num_frames_ + 1, 0);
  compute_costs();
}

FrameModel::FrameModel(const Netlist& nl, Fault fault, std::size_t num_frames)
    : FrameModel(std::optional<CompiledNetlist>(std::in_place, nl), nullptr, fault, num_frames) {}

FrameModel::FrameModel(const CompiledNetlist& cnl, Fault fault, std::size_t num_frames)
    : FrameModel(std::nullopt, &cnl, fault, num_frames) {}

FrameModel::FrameModel(const Netlist& nl, TransitionFault fault, std::size_t num_frames)
    : FrameModel(nl, Fault{fault.gate, fault.pin, /*stuck_one=*/!fault.slow_to_rise},
                 num_frames) {
  // The equivalent-looking stuck value is only used by the activation
  // objective (an STR fault needs the line driven to 1, like s-a-0);
  // simulate() applies the real delay semantics below.
  is_transition_ = true;
  slow_to_rise_ = fault.slow_to_rise;
}

FrameModel::FrameModel(const CompiledNetlist& cnl, TransitionFault fault, std::size_t num_frames)
    : FrameModel(cnl, Fault{fault.gate, fault.pin, /*stuck_one=*/!fault.slow_to_rise},
                 num_frames) {
  is_transition_ = true;
  slow_to_rise_ = fault.slow_to_rise;
}

void FrameModel::set_initial_state(const State& good, const State& faulty) {
  if (good.size() != nl_->num_dffs() || faulty.size() != nl_->num_dffs())
    throw std::invalid_argument("FrameModel: state width mismatch");
  init_good_ = good;
  init_faulty_ = faulty;
  dirty_from_ = 0;
}

void FrameModel::pin_input(std::size_t pi, V3 v) {
  pi_pins_[pi] = v;
  for (std::size_t f = 0; f < num_frames_; ++f) pi_assign_[f * npi_ + pi] = v;
  dirty_from_ = 0;
}

void FrameModel::clear_assignments() {
  std::fill(pi_assign_.begin(), pi_assign_.end(), V3::X);
  std::fill(state_assign_.begin(), state_assign_.end(), V3::X);
  for (std::size_t i = 0; i < npi_; ++i)
    if (pi_pins_[i] != V3::X)
      for (std::size_t f = 0; f < num_frames_; ++f) pi_assign_[f * npi_ + i] = pi_pins_[i];
  dirty_from_ = 0;
}

V5 FrameModel::pin_value(std::size_t f, GateId g, std::size_t p) const {
  V5 v = value(f, nl_->gate(g).fanins[p]);
  if (fault_.pin != kStemPin && fault_.gate == g && fault_.pin == static_cast<std::int16_t>(p))
    v.faulty = forced_faulty(f, v.faulty);
  return v;
}

V3 FrameModel::forced_faulty(std::size_t frame, V3 driven_faulty) const {
  if (!is_transition_) return fault_.stuck_one ? V3::One : V3::Zero;
  const V3 prev = tf_prev_by_frame_[frame];
  return slow_to_rise_ ? v3_and(driven_faulty, prev) : v3_or(driven_faulty, prev);
}

V3 FrameModel::force_packed(std::size_t frame, std::uint8_t& v) const {
  const V3 driven = detail::unpack_v5(v).faulty;
  v = detail::with_faulty(v, forced_faulty(frame, driven));
  return driven;
}

void FrameModel::simulate() {
  using detail::p5_is_d;
  const CompiledNetlist& cnl = *cnl_;
  const auto& inputs = cnl.inputs();
  const auto& dffs = cnl.dffs();
  const auto& dff_d = cnl.dff_d();
  const std::uint32_t* fanin_off = cnl.fanin_offsets();
  const GateId* fanin_ids = cnl.fanin_id_data();
  const std::size_t ndff = dffs.size();

  // Only frames from the earliest dirtied one on can have changed; earlier
  // frames keep their values_ and per-frame bookkeeping.
  const std::size_t start = std::min(dirty_from_, num_frames_);
  dirty_from_ = num_frames_;
  obs::count(obs::Counter::FrameGateEvals, (num_frames_ - start) * prog_.evals_per_frame);

  if (start == 0) {
    std::uint8_t* row0 = frame_state_.data();
    for (std::size_t j = 0; j < ndff; ++j) {
      row0[j] = state_assignable_ ? detail::pack_both(state_assign_[j])
                                  : detail::pack_v5({init_good_[j], init_faulty_[j]});
    }
  }

  const std::span<const TypeRun> runs(prog_.runs);
  const bool fault_on_comb = !prog_.forced_order.empty();
  const bool stem_fault = fault_.pin == kStemPin;
  const GateType fault_type = cnl.type(fault_.gate);
  const bool stem_on_boundary =
      stem_fault && (fault_type == GateType::Input || fault_type == GateType::Dff);
  V5 fanin_buf[64];
  V3 tf_prev =
      start == 0 ? tf_prev_init_ : (start < num_frames_ ? tf_prev_by_frame_[start] : V3::X);
  for (std::size_t f = start; f < num_frames_; ++f) {
    std::uint8_t* vals = values_.data() + f * ng_;
    const std::uint8_t* state_now = frame_state_.data() + f * ndff;
    std::uint8_t* state_next = frame_state_.data() + (f + 1) * ndff;
    tf_prev_by_frame_[f] = tf_prev;
    V3 tf_now = V3::X;  // faulted line's faulty driven value this frame

    // Frame boundary values, with stem-fault forcing on PIs / DFF outputs.
    const V3* pis = pi_assign_.data() + f * npi_;
    for (std::size_t i = 0; i < npi_; ++i) vals[inputs[i]] = detail::pack_both(pis[i]);
    for (std::size_t j = 0; j < ndff; ++j) vals[dffs[j]] = state_now[j];
    if (stem_on_boundary) tf_now = force_packed(f, vals[fault_.gate]);

    // Combinational evaluation: clean type runs up to the faulted gate's
    // level, the faulted gate individually (per-pin or stem forcing), the
    // remaining runs. Only the faulted gate unpacks, to apply the fault.
    detail::eval_type_runs<detail::PackedV5Ops>(runs.first(fault_split_), prog_.eval.data(),
                                                fanin_off, fanin_ids, vals);
    if (fault_on_comb) {
      const GateId g = fault_.gate;
      const std::uint32_t lo = fanin_off[g];
      const std::size_t n = fanin_off[g + 1] - lo;
      for (std::size_t p = 0; p < n; ++p)
        fanin_buf[p] = detail::unpack_v5(vals[fanin_ids[lo + p]]);
      if (!stem_fault) {
        tf_now = fanin_buf[fault_.pin].faulty;
        fanin_buf[fault_.pin].faulty = forced_faulty(f, tf_now);
      }
      V5 out = eval_gate_v5(fault_type, fanin_buf, n);
      if (stem_fault) {
        tf_now = out.faulty;
        out.faulty = forced_faulty(f, tf_now);
      }
      vals[g] = detail::pack_v5(out);
    }
    detail::eval_type_runs<detail::PackedV5Ops>(runs.subspan(fault_split_), prog_.eval.data(),
                                                fanin_off, fanin_ids, vals);

    // PO detection.
    po_d_frame_[f] = 0;
    for (GateId po : cnl.outputs()) {
      if (p5_is_d(vals[po])) {
        po_d_frame_[f] = 1;
        break;
      }
    }

    // Next state (with DFF D-pin branch forcing), and the latched-effect
    // bookkeeping: the largest latching DFF index of the frame (deepest in
    // the scan chain), -1 if none.
    for (std::size_t j = 0; j < ndff; ++j) state_next[j] = vals[dff_d[j]];
    if (faulted_dff_d_ >= 0) tf_now = force_packed(f, state_next[faulted_dff_d_]);
    tf_prev = tf_now;
    std::int32_t best = -1;
    for (std::size_t j = ndff; j-- > 0;)
      if (p5_is_d(state_next[j])) {
        best = static_cast<std::int32_t>(j);
        break;
      }
    latch_frame_[f] = best;
  }

  // D-frontier and any-effect scan over the re-simulated frames. Frames
  // before `start` keep their cached prefix of frontier_.
  frontier_.resize(frontier_off_[start]);
  for (std::size_t f = start; f < num_frames_; ++f) {
    any_d_frame_[f] = scan_effects(f);
    frontier_off_[f + 1] = static_cast<std::uint32_t>(frontier_.size());
  }

  // Combine the per-frame caches (unchanged frames contribute their cached
  // entries) into the same results a full pass would produce.
  po_detect_.reset();
  latch_.reset();
  any_effect_ = !frontier_.empty();
  for (std::size_t f = 0; f < num_frames_; ++f) {
    if (!po_detect_ && po_d_frame_[f]) po_detect_ = f;
    if (!latch_ && latch_frame_[f] >= 0)
      latch_ = LatchedEffect{f, static_cast<std::size_t>(latch_frame_[f])};
    if (any_d_frame_[f]) any_effect_ = true;
  }
  if (latch_ || po_detect_) any_effect_ = true;
}

bool FrameModel::scan_effects(std::size_t f) {
  using detail::p5_is_d;
  const std::uint8_t* vals = values_.data() + f * ng_;
  const std::uint32_t* fanin_off = cnl_->fanin_offsets();
  const GateId* fanin_ids = cnl_->fanin_id_data();
  // Only a combinational gate's branch fault forces a pin the scan reads.
  const bool comb_branch = fault_.pin != kStemPin && !prog_.forced_order.empty();
  const GateId branch_gate = comb_branch ? fault_.gate : kNoGate;

  // A frame holding no D or D' anywhere has no effect and no frontier,
  // unless forcing turns the branch-faulted pin into one.
  bool frame_has_d = false;
  for (std::size_t g = 0; g < ng_; ++g)
    frame_has_d |= (vals[g] == detail::kP5D) | (vals[g] == detail::kP5DBar);
  if (!frame_has_d && comb_branch) {
    std::uint8_t pv = vals[fanin_ids[fanin_off[branch_gate] + fault_.pin]];
    force_packed(f, pv);
    frame_has_d = p5_is_d(pv);
  }
  if (!frame_has_d) return false;

  // Topological order, like the evaluation loop the scan replaced: PODEM's
  // decision order depends on the frontier order, so it must stay put. A
  // gate whose value is not fully known joins the frontier when a pin
  // carries D or D'; the branch-faulted gate alone reads its faulted pin
  // through forcing.
  bool any_d = false;
  for (GateId g : nl_->topo_order()) {
    const std::uint8_t v = vals[g];
    if (p5_is_d(v)) {
      any_d = true;
      continue;
    }
    if (detail::p5_known(v)) continue;
    const GateId* in = fanin_ids + fanin_off[g];
    const GateId* in_end = fanin_ids + fanin_off[g + 1];
    bool has_d_input = false;
    if (g != branch_gate) {
      for (; in != in_end && !has_d_input; ++in) has_d_input = p5_is_d(vals[*in]);
    } else {
      for (std::size_t p = 0; in + p != in_end && !has_d_input; ++p) {
        std::uint8_t pv = vals[in[p]];
        if (p == static_cast<std::size_t>(fault_.pin)) force_packed(f, pv);
        has_d_input = p5_is_d(pv);
      }
    }
    if (has_d_input) {
      frontier_.emplace_back(f, g);
      any_d = true;
    }
  }
  return any_d;
}

TestSequence FrameModel::extract_sequence(std::size_t frames_used) const {
  TestSequence seq(npi_);
  for (std::size_t f = 0; f < frames_used && f < num_frames_; ++f) {
    std::vector<V3> vec(npi_);
    for (std::size_t i = 0; i < npi_; ++i) vec[i] = pi_assign_[f * npi_ + i];
    seq.append(std::move(vec));
  }
  return seq;
}

namespace {
constexpr std::uint32_t kInf = 1000000;
constexpr std::uint32_t kDffPenalty = 16;
}  // namespace

void FrameModel::compute_costs() {
  const Netlist& nl = *nl_;
  cost0_.assign(nl.num_gates(), kInf);
  cost1_.assign(nl.num_gates(), kInf);

  for (GateId pi : nl.inputs()) {
    cost0_[pi] = 1;
    cost1_[pi] = 1;
  }

  const auto saturating_add = [](std::uint32_t a, std::uint32_t b) {
    return std::min(kInf, a + b);
  };

  // A few sweeps so DFF-output costs converge through feedback loops.
  for (int sweep = 0; sweep < 4; ++sweep) {
    for (GateId g : nl.topo_order()) {
      const Gate& gate = nl.gate(g);
      const auto& fi = gate.fanins;
      std::uint32_t c0 = kInf, c1 = kInf;
      const auto and_like = [&](bool invert) {
        // output 0 (pre-inversion): cheapest single 0 input; output 1: all 1s.
        std::uint32_t zero_side = kInf, one_side = 1;
        for (GateId in : fi) {
          zero_side = std::min(zero_side, cost0_[in]);
          one_side = saturating_add(one_side, cost1_[in]);
        }
        zero_side = saturating_add(zero_side, 1);
        c0 = invert ? one_side : zero_side;
        c1 = invert ? zero_side : one_side;
      };
      const auto or_like = [&](bool invert) {
        std::uint32_t one_side = kInf, zero_side = 1;
        for (GateId in : fi) {
          one_side = std::min(one_side, cost1_[in]);
          zero_side = saturating_add(zero_side, cost0_[in]);
        }
        one_side = saturating_add(one_side, 1);
        c0 = invert ? one_side : zero_side;
        c1 = invert ? zero_side : one_side;
      };
      switch (gate.type) {
        case GateType::Buf:
          c0 = saturating_add(cost0_[fi[0]], 1);
          c1 = saturating_add(cost1_[fi[0]], 1);
          break;
        case GateType::Not:
          c0 = saturating_add(cost1_[fi[0]], 1);
          c1 = saturating_add(cost0_[fi[0]], 1);
          break;
        case GateType::And: and_like(false); break;
        case GateType::Nand: and_like(true); break;
        case GateType::Or: or_like(false); break;
        case GateType::Nor: or_like(true); break;
        case GateType::Xor:
        case GateType::Xnor: {
          // Two-input approximation extended pairwise.
          std::uint32_t even = 1, odd = kInf;
          for (GateId in : fi) {
            const std::uint32_t e2 = std::min(saturating_add(even, cost0_[in]),
                                              saturating_add(odd, cost1_[in]));
            const std::uint32_t o2 = std::min(saturating_add(even, cost1_[in]),
                                              saturating_add(odd, cost0_[in]));
            even = e2;
            odd = o2;
          }
          c0 = gate.type == GateType::Xor ? even : odd;
          c1 = gate.type == GateType::Xor ? odd : even;
          break;
        }
        case GateType::Mux2: {
          const std::uint32_t via0_0 = saturating_add(cost0_[fi[2]], cost0_[fi[0]]);
          const std::uint32_t via1_0 = saturating_add(cost1_[fi[2]], cost0_[fi[1]]);
          const std::uint32_t via0_1 = saturating_add(cost0_[fi[2]], cost1_[fi[0]]);
          const std::uint32_t via1_1 = saturating_add(cost1_[fi[2]], cost1_[fi[1]]);
          c0 = saturating_add(std::min(via0_0, via1_0), 1);
          c1 = saturating_add(std::min(via0_1, via1_1), 1);
          break;
        }
        case GateType::Const0:
          c0 = 0;
          c1 = kInf;
          break;
        case GateType::Const1:
          c0 = kInf;
          c1 = 0;
          break;
        case GateType::Input:
        case GateType::Dff:
          break;
      }
      cost0_[g] = c0;
      cost1_[g] = c1;
    }
    for (GateId ff : nl.dffs()) {
      const GateId d = nl.gate(ff).fanins[0];
      cost0_[ff] = saturating_add(cost0_[d], kDffPenalty);
      cost1_[ff] = saturating_add(cost1_[d], kDffPenalty);
    }
  }
}

}  // namespace uniscan
