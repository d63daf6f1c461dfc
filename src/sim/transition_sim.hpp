// Parallel-fault sequential simulation for transition (gross-delay) faults.
//
// The transition model plugged into the shared fault-simulation kernel
// (sim/fault_sim.hpp): same machines-per-slot-word organisation, same batch
// runner, one-shot front end, cone pruning and width dispatch. Only the
// injection differs — it is dynamic: each faulty slot remembers the faulted
// line's driven value from the previous cycle and forces
//     STR: and(driven(t), driven(t-1))     STF: or(driven(t), driven(t-1))
// onto its slot. Slot 0 remains the good machine. The launch history
// (previous driven value per fault) is part of SimBatchStateT::prev_driven so
// checkpoints capture it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/checkpoint.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/fault_sim.hpp"
#include "sim/fault_sim_session.hpp"
#include "sim/sequence.hpp"
#include "sim/sequential_sim.hpp"
#include "sim/slot_word.hpp"

namespace uniscan {

/// Transition injection: the launch-gated delayed value on stems, branch
/// pins and DFF D pins, and the end-of-frame launch-history commit.
struct TransitionModel {
  using fault_type = TransitionFault;

  template <class Word>
  class Injector {
   public:
    using W = W3T<Word>;

    Injector(const CompiledNetlist& cnl, std::span<const TransitionFault> faults);
    /// Build the per-pin fault chains of the individually evaluated gates.
    void bind(const CompiledNetlist& cnl, std::span<const GateId> forced);

    bool has_stem(GateId g) const noexcept { return stem_head_[g] != kNone; }
    bool has_branch(GateId g) const noexcept { return branch_head_[g] != kNone; }
    void init_state(SimBatchStateT<Word>& s) const;

    W boundary(GateId g, W w, SimBatchStateT<Word>& s) const {
      if (has_stem(g)) patch(g, w, s);
      return w;
    }
    /// Rewrite the faulted slots of `g`'s driven value and record the
    /// launch values.
    void patch(GateId g, W& w, SimBatchStateT<Word>& s) const;
    // Hot like StuckAtModel's: inlined into the kernel's fixup loop, so the
    // ISA entries never call out to a baseline copy.
    [[gnu::always_inline]] W eval_forced(std::size_t k, GateId g, const W* values,
                                         SimBatchStateT<Word>& s) const;
    W dff_input(std::size_t j, GateId ff, W d, SimBatchStateT<Word>& s) const;
    /// Commit the launch values captured this frame into s.prev_driven.
    void end_frame(SimBatchStateT<Word>& s) const;

   private:
    static constexpr std::int32_t kNone = -1;

    /// Force fault i's delayed value onto its slot of `w` (the value its
    /// line drives now) and record the launch value.
    [[gnu::always_inline]] void inject(std::int32_t i, W& w, SimBatchStateT<Word>& s) const;

    const CompiledNetlist* cnl_;
    std::span<const TransitionFault> faults_;
    // A line carries up to two faults (STR and STF) per batch; both stem and
    // branch faults are chained in per-gate intrusive lists.
    std::vector<std::int32_t> stem_head_;    // per gate -> fault index
    std::vector<std::int32_t> branch_head_;  // per gate -> fault index
    std::vector<std::int32_t> next_;         // per fault, shared by both chains
    // Branch faults of the forced gates re-chained per pin: pin_head_ is
    // indexed pin_off_[k] + pin for forced gate k, pin_next_ by fault.
    std::vector<std::uint32_t> pin_off_;
    std::vector<std::int32_t> pin_head_;
    std::vector<std::int32_t> pin_next_;
    // Per-fault launch value captured while evaluating the current frame,
    // committed into SimBatchStateT::prev_driven at frame end. Scratch: a
    // runner is used by one thread at a time.
    mutable std::vector<V3> pending_;
  };
};

using TransitionFaultSimulator = FaultSimulatorT<TransitionModel>;

/// Streaming session for the transition generator: the shared session
/// template (sim/fault_sim_session.hpp) over the transition model.
/// pair_state()'s optional `prev_driven` reports the launch history.
using TransitionSimSession = SimSessionT<TransitionModel>;

}  // namespace uniscan
