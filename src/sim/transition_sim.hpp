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
#include <memory>
#include <span>
#include <vector>

#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/checkpoint.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/fault_sim.hpp"
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
    void bind(const CompiledNetlist&, std::span<const GateId>) noexcept {}

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
    W eval_forced(std::size_t k, GateId g, const W* values, SimBatchStateT<Word>& s) const;
    W dff_input(std::size_t j, GateId ff, W d, SimBatchStateT<Word>& s) const;
    /// Commit the launch values captured this frame into s.prev_driven.
    void end_frame(SimBatchStateT<Word>& s) const;

   private:
    static constexpr std::int32_t kNone = -1;

    /// Apply g's branch faults on pins < n of `pins` (in place).
    void apply_branches(GateId g, W* pins, std::size_t n, SimBatchStateT<Word>& s) const;

    const CompiledNetlist* cnl_;
    std::span<const TransitionFault> faults_;
    // A line carries up to two faults (STR and STF) per batch; both stem and
    // branch faults are chained in per-gate intrusive lists.
    std::vector<std::int32_t> stem_head_;    // per gate -> fault index
    std::vector<std::int32_t> branch_head_;  // per gate -> fault index
    std::vector<std::int32_t> next_;         // per fault, shared by both chains
    // Per-fault launch value captured while evaluating the current frame,
    // committed into SimBatchStateT::prev_driven at frame end. Scratch: a
    // runner is used by one thread at a time.
    mutable std::vector<V3> pending_;
  };
};

using TransitionFaultSimulator = FaultSimulatorT<TransitionModel>;

/// Streaming session for the transition generator (mirrors FaultSimSession:
/// built on the shared SessionCoreT engine — one BatchRunnerT +
/// SimBatchStateT per batch, packed hardest-first, dead batches skipped,
/// live batches fanned across ThreadPool::global(), and with repacking
/// enabled (the default) surviving faults repacked into dense batches with
/// the slot word auto-narrowed as the live population shrinks — DESIGN.md
/// §5j). Bit-identical at every thread count and width, repack on or off.
class TransitionSimSession {
 public:
  TransitionSimSession(const Netlist& nl, std::span<const TransitionFault> faults);
  ~TransitionSimSession();
  TransitionSimSession(TransitionSimSession&&) noexcept;
  TransitionSimSession& operator=(TransitionSimSession&&) noexcept;

  std::size_t advance(const TestSequence& chunk);
  std::size_t now() const noexcept;
  std::size_t num_faults() const noexcept;
  bool is_detected(std::size_t i) const;
  const std::vector<DetectionRecord>& detections() const noexcept;
  std::size_t num_detected() const noexcept;
  /// Compiled form of the netlist, shared by all of the session's runners
  /// (and reusable by FrameModels targeting the same circuit).
  const CompiledNetlist& compiled() const noexcept;
  State good_state() const;
  /// Machine-pair state plus the faulted line's previous driven value for
  /// fault `i` (needed to seed the ATPG window's launch history).
  void pair_state(std::size_t i, State& good, State& faulty, V3& prev_driven) const;

  /// Opaque resumable session state (live batches only — see
  /// FaultSimSession::Snapshot for the contract). The snapshot pins the
  /// batch pack it was captured under, so restoring across an intervening
  /// repack (even one that changed the slot width) re-installs that exact
  /// pack. Copyable; only valid for the session that produced it —
  /// restoring into a different session throws std::invalid_argument.
  class Snapshot {
   public:
    Snapshot() = default;

   private:
    friend class TransitionSimSession;
    std::shared_ptr<const void> state_;
  };
  Snapshot snapshot() const;
  void restore(const Snapshot& s);

  /// Implementation (the shared SessionCoreT engine; public so the
  /// definition in transition_sim.cpp can name it; not part of the
  /// session's API).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace uniscan
