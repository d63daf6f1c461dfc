#include "atpg/podem.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace uniscan {

namespace {

// A decision assigns a primary input of some frame, or — when the model's
// frame-0 state is assignable — a scan-in cell, encoded as pi >= num_inputs
// with dff index pi - num_inputs (frame is then 0).
struct Decision {
  std::size_t frame;
  std::size_t pi;
  V3 value;
  bool flipped;
};

class PodemSearch {
 public:
  PodemSearch(FrameModel& model, PodemGoal goal, const PodemOptions& opt)
      : model_(model), nl_(model.netlist()), goal_(goal), opt_(opt) {
    // Index of each primary input in inputs() and each DFF in dffs(), so the
    // backtrace turns a net into a decision variable in one lookup.
    boundary_index_.assign(nl_.num_gates(), 0);
    for (std::size_t i = 0; i < nl_.num_inputs(); ++i)
      boundary_index_[nl_.inputs()[i]] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j < nl_.num_dffs(); ++j)
      boundary_index_[nl_.dffs()[j]] = static_cast<std::uint32_t>(j);
  }

  PodemResult run();
  std::uint64_t decisions() const noexcept { return decisions_; }

 private:
  std::optional<Decision> choose_objective();
  std::optional<Decision> backtrace(std::size_t frame, GateId net, V3 val) const;
  std::optional<Decision> bt(std::size_t frame, GateId net, V3 val) const;
  std::optional<Decision> frontier_objective(std::size_t frame, GateId g) const;
  std::optional<Decision> activation_objective() const;

  FrameModel& model_;
  const Netlist& nl_;
  PodemGoal goal_;
  PodemOptions opt_;
  std::uint64_t decisions_ = 0;
  std::vector<std::uint32_t> boundary_index_;  // by GateId, for inputs and DFFs

  // Backtrace candidate lists, (cost, input) pairs: each recursion level
  // works on its own top segment and truncates it on return.
  using Candidate = std::pair<std::uint32_t, GateId>;
  mutable std::vector<Candidate> cands_;
  struct CandidateFrame {
    std::vector<Candidate>& v;
    std::size_t base;
    explicit CandidateFrame(std::vector<Candidate>& stack) : v(stack), base(stack.size()) {}
    CandidateFrame(const CandidateFrame&) = delete;
    CandidateFrame& operator=(const CandidateFrame&) = delete;
    ~CandidateFrame() { v.resize(base); }
  };

  // Memoized failure set for the backtrace DFS: (frame, net, val) triples
  // already proven to have no reachable unassigned input. Generation-stamped
  // so each top-level backtrace starts fresh without reallocation.
  mutable std::vector<std::uint32_t> bt_stamp_;
  mutable std::uint32_t bt_gen_ = 0;
};

V3 noncontrolling_value(GateType t) noexcept {
  switch (t) {
    case GateType::And:
    case GateType::Nand:
      return V3::One;
    case GateType::Or:
    case GateType::Nor:
      return V3::Zero;
    default:
      return V3::X;
  }
}

std::optional<Decision> PodemSearch::backtrace(std::size_t frame, GateId net, V3 val) const {
  const std::size_t slots = model_.num_frames() * nl_.num_gates() * 2;
  if (bt_stamp_.size() != slots) bt_stamp_.assign(slots, 0);
  ++bt_gen_;
  return bt(frame, net, val);
}

// Depth-first search for an unassigned primary input (or scan-in cell) that
// can move the (frame, net) good value toward `val`. Unlike classic PODEM's
// single-path backtrace this falls back to sibling inputs, which matters
// here because a path can dead-end at frame 0's fixed present state. Failed
// (frame, net, val) triples are memoized within one top-level call.
std::optional<Decision> PodemSearch::bt(std::size_t frame, GateId net, V3 val) const {
  const std::size_t key = (frame * nl_.num_gates() + net) * 2 + (val == V3::One ? 1 : 0);
  if (bt_stamp_[key] == bt_gen_) return std::nullopt;  // known dead end
  const auto fail = [&]() -> std::optional<Decision> {
    bt_stamp_[key] = bt_gen_;
    return std::nullopt;
  };

  const Gate& gate = nl_.gate(net);
  switch (gate.type) {
    case GateType::Input: {
      const std::size_t i = boundary_index_[net];
      if (model_.assignment(frame, i) != V3::X) return fail();  // already fixed
      return Decision{frame, i, val, false};
    }
    case GateType::Dff: {
      if (frame == 0) {
        if (!model_.state_assignable()) return fail();  // fixed PS
        const std::size_t j = boundary_index_[net];
        if (model_.state_assignment(j) != V3::X) return fail();
        return Decision{0, nl_.num_inputs() + j, val, false};
      }
      if (auto d = bt(frame - 1, gate.fanins[0], val)) return d;
      return fail();
    }
    case GateType::Buf: {
      if (auto d = bt(frame, gate.fanins[0], val)) return d;
      return fail();
    }
    case GateType::Not: {
      if (auto d = bt(frame, gate.fanins[0], v3_not(val))) return d;
      return fail();
    }
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const bool invert = gate.type == GateType::Nand || gate.type == GateType::Nor;
      const bool and_like = gate.type == GateType::And || gate.type == GateType::Nand;
      const V3 need = invert ? v3_not(val) : val;  // pre-inversion target
      const bool controlling = and_like ? (need == V3::Zero) : (need == V3::One);
      // Candidate X inputs sorted by cost: controlling objectives take the
      // cheapest path first; non-controlling take the hardest first so
      // conflicts surface early. The DFS falls back to the others.
      const CandidateFrame mine(cands_);
      for (GateId in : gate.fanins) {
        if (model_.value(frame, in).good != V3::X) continue;
        cands_.emplace_back(need == V3::Zero ? model_.cost0(in) : model_.cost1(in), in);
      }
      const auto first = cands_.begin() + static_cast<std::ptrdiff_t>(mine.base);
      std::sort(first, cands_.end());
      if (!controlling) std::reverse(first, cands_.end());
      // Indexed: deeper levels may grow (and reallocate) the stack.
      for (std::size_t k = mine.base; k < cands_.size(); ++k)
        if (auto d = bt(frame, cands_[k].second, need)) return d;
      return fail();
    }
    case GateType::Xor:
    case GateType::Xnor: {
      V3 target = gate.type == GateType::Xnor ? v3_not(val) : val;  // parity target
      const CandidateFrame mine(cands_);
      for (GateId in : gate.fanins) {
        const V3 v = model_.value(frame, in).good;
        if (v == V3::X) cands_.emplace_back(0, in);
        else if (v == V3::One) target = v3_not(target);
      }
      const std::size_t nx = cands_.size() - mine.base;
      for (std::size_t k = mine.base; k < mine.base + nx; ++k) {
        const GateId in = cands_[k].second;
        const V3 first =
            nx == 1 ? target : (model_.cost0(in) <= model_.cost1(in) ? V3::Zero : V3::One);
        if (auto d = bt(frame, in, first)) return d;
        if (nx > 1)
          if (auto d = bt(frame, in, v3_not(first))) return d;
      }
      return fail();
    }
    case GateType::Mux2: {
      const GateId d0 = gate.fanins[0];
      const GateId d1 = gate.fanins[1];
      const GateId sel = gate.fanins[2];
      const V3 sv = model_.value(frame, sel).good;
      if (sv == V3::Zero) {
        if (auto d = bt(frame, d0, val)) return d;
        return fail();
      }
      if (sv == V3::One) {
        if (auto d = bt(frame, d1, val)) return d;
        return fail();
      }
      // Select is free: try the cheaper side first, fall back to the other,
      // and as a last resort set a data input directly (useful when both
      // data values agree through the optimistic X-mux rule).
      const auto side_cost = [&](GateId data, bool sel_one) {
        const std::uint32_t cs = sel_one ? model_.cost1(sel) : model_.cost0(sel);
        const std::uint32_t cd = (val == V3::Zero) ? model_.cost0(data) : model_.cost1(data);
        return cs + cd;
      };
      const bool one_first = side_cost(d1, true) < side_cost(d0, false);
      for (bool choose_one : {one_first, !one_first})
        if (auto d = bt(frame, sel, choose_one ? V3::One : V3::Zero)) return d;
      for (GateId data : {d0, d1})
        if (model_.value(frame, data).good == V3::X)
          if (auto d = bt(frame, data, val)) return d;
      return fail();
    }
    case GateType::Const0:
    case GateType::Const1:
      return fail();
  }
  return fail();
}

std::optional<Decision> PodemSearch::frontier_objective(std::size_t frame, GateId g) const {
  const Gate& gate = nl_.gate(g);
  switch (gate.type) {
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const V3 nc = noncontrolling_value(gate.type);
      for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
        if (model_.pin_value(frame, g, p).good != V3::X) continue;
        if (auto d = backtrace(frame, gate.fanins[p], nc)) return d;
      }
      return std::nullopt;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      // Any X side input just needs a known value.
      for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
        const V5 v = model_.pin_value(frame, g, p);
        if (is_d_or_dbar(v) || v.good != V3::X) continue;
        const GateId in = gate.fanins[p];
        const V3 cheap = model_.cost0(in) <= model_.cost1(in) ? V3::Zero : V3::One;
        if (auto d = backtrace(frame, in, cheap)) return d;
        if (auto d = backtrace(frame, in, v3_not(cheap))) return d;
      }
      return std::nullopt;
    }
    case GateType::Mux2: {
      const V5 vd0 = model_.pin_value(frame, g, 0);
      const V5 vd1 = model_.pin_value(frame, g, 1);
      const V5 vsel = model_.pin_value(frame, g, 2);
      if (is_d_or_dbar(vd0) && vsel.good == V3::X)
        if (auto d = backtrace(frame, gate.fanins[2], V3::Zero)) return d;
      if (is_d_or_dbar(vd1) && vsel.good == V3::X)
        if (auto d = backtrace(frame, gate.fanins[2], V3::One)) return d;
      if (is_d_or_dbar(vsel)) {
        // Propagating a D on select needs the data inputs to differ.
        if (vd0.good == V3::X && vd1.good != V3::X)
          if (auto d = backtrace(frame, gate.fanins[0], v3_not(vd1.good))) return d;
        if (vd1.good == V3::X && vd0.good != V3::X)
          if (auto d = backtrace(frame, gate.fanins[1], v3_not(vd0.good))) return d;
        if (vd0.good == V3::X && vd1.good == V3::X)
          if (auto d = backtrace(frame, gate.fanins[0], V3::Zero)) return d;
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;  // single-input gates propagate without help
  }
}

std::optional<Decision> PodemSearch::activation_objective() const {
  // Make the faulted line's good value the opposite of the stuck value in
  // some frame where it is still X. For a transition fault the same target
  // is the transition's final value; additionally the PREVIOUS frame must
  // present the initial value (the launch), which is targeted once the final
  // value is in place.
  const Fault& f = model_.fault();
  const GateId line =
      f.pin == kStemPin ? f.gate : nl_.gate(f.gate).fanins[static_cast<std::size_t>(f.pin)];
  const V3 want = f.stuck_one ? V3::Zero : V3::One;
  for (std::size_t frame = 0; frame < model_.num_frames(); ++frame) {
    if (model_.value(frame, line).good == V3::X) {
      if (auto d = backtrace(frame, line, want)) return d;
    } else if (model_.is_transition() && frame > 0 &&
               model_.value(frame, line).good == want &&
               model_.value(frame - 1, line).good == V3::X) {
      if (auto d = backtrace(frame - 1, line, v3_not(want))) return d;
    }
  }
  return std::nullopt;
}

std::optional<Decision> PodemSearch::choose_objective() {
  if (model_.any_effect()) {
    for (const auto& [frame, g] : model_.d_frontier())
      if (auto d = frontier_objective(frame, g)) return d;
    // The existing effects are blocked; try to (re-)activate the fault in a
    // later frame instead of giving up — a fresh effect there may have a
    // free path to an output.
    return activation_objective();
  }
  return activation_objective();
}

PodemResult PodemSearch::run() {
  PodemResult result;
  model_.clear_assignments();
  model_.simulate();

  std::vector<Decision> stack;
  int backtracks = 0;
  StridedPoll cancel(opt_.cancel);

  const auto finish = [&](std::size_t frames_used, bool at_po,
                          std::size_t latched_dff) -> PodemResult {
    result.success = true;
    result.frames_used = frames_used;
    result.subsequence = model_.extract_sequence(frames_used);
    result.observed_at_po = at_po;
    result.latched_dff = latched_dff;
    if (model_.state_assignable()) result.scan_in = model_.extract_state_assignment();
    result.backtracks = backtracks;
    return result;
  };

  for (;;) {
    // Cooperative cancellation, polled at stride (util/cancel.hpp): each
    // iteration either decides, backtracks, or finishes, and small-window
    // simulations are cheap enough that a per-iteration clock read showed up
    // in profiles. An aborted search is a plain failure, but flagged so it
    // is never read as exhaustion.
    if (cancel.poll()) {
      result.aborted = true;
      result.backtracks = backtracks;
      return result;
    }

    // Success checks.
    const auto po = model_.po_detection_frame();
    const auto latch = model_.first_latched_effect();
    switch (goal_) {
      case PodemGoal::ObservePo:
        if (po) return finish(*po + 1, true, 0);
        break;
      case PodemGoal::LatchIntoFf:
        if (latch) return finish(latch->frame + 1, false, latch->dff_index);
        break;
      case PodemGoal::ScanObserve:
        // Prefer whichever observation needs the shorter subsequence.
        if (po && (!latch || *po <= latch->frame)) return finish(*po + 1, true, 0);
        if (latch) return finish(latch->frame + 1, false, latch->dff_index);
        break;
    }

    if (auto obj = choose_objective()) {
      if (obj->pi >= nl_.num_inputs())
        model_.assign_state(obj->pi - nl_.num_inputs(), obj->value);
      else
        model_.assign(obj->frame, obj->pi, obj->value);
      stack.push_back(*obj);
      ++decisions_;
      model_.simulate();
      continue;
    }

    // Dead end: backtrack.
    const auto unassign = [&](const Decision& d) {
      if (d.pi >= nl_.num_inputs())
        model_.assign_state(d.pi - nl_.num_inputs(), V3::X);
      else
        model_.assign(d.frame, d.pi, V3::X);
    };
    while (!stack.empty() && stack.back().flipped) {
      unassign(stack.back());
      stack.pop_back();
    }
    if (stack.empty() || ++backtracks > opt_.max_backtracks) {
      result.backtracks = backtracks;
      return result;  // failure
    }
    Decision& top = stack.back();
    top.value = v3_not(top.value);
    top.flipped = true;
    if (top.pi >= nl_.num_inputs())
      model_.assign_state(top.pi - nl_.num_inputs(), top.value);
    else
      model_.assign(top.frame, top.pi, top.value);
    model_.simulate();
  }
}

}  // namespace

PodemResult run_podem(FrameModel& model, PodemGoal goal, const PodemOptions& options) {
  const obs::TraceSpan span("podem");
  PodemSearch search(model, goal, options);
  PodemResult result = search.run();
  obs::count(obs::Counter::PodemSearches);
  obs::count(obs::Counter::PodemDecisions, search.decisions());
  obs::count(obs::Counter::PodemBacktracks, static_cast<std::uint64_t>(result.backtracks));
  return result;
}

}  // namespace uniscan
