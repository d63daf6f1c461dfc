// Parallel-fault sequential fault simulation (PROOFS-style).
//
// Faults are processed in batches of kBits-1 machines, where kBits is the
// slot-word width (64, 256 or 512 — see sim/slot_word.hpp): bit slot 0 of
// every W3T word carries the good machine, slots 1..kBits-1 carry one faulty
// machine each. All machines see the same primary-input vectors; fault
// effects are injected into the faulted line's value in the corresponding
// slot. Simulation starts from the all-X power-up state and runs the full
// sequence.
//
// A fault is *detected* at frame t if some primary output has a known good
// value and the opposite known value in the fault's slot. The simulator can
// additionally record where fault effects get *latched* into flip-flops —
// the hook used by the paper's Section-2 functional scan knowledge.
//
// One kernel serves every fault model. A model differs only in how a fault
// is injected into its slot, so it supplies an Injector (StuckAtModel below,
// TransitionModel in sim/transition_sim.hpp) and everything else is shared:
//  * BatchRunnerT<Word, Model> — the incremental engine for one batch of up
//    to kBits-1 faults over the CompiledNetlist kernel. The injection tables
//    and the batch's evaluation program — including the observation-cone
//    pruning that skips gates no fault of the batch can reach — are built
//    once; advance() resumes a SimBatchStateT at any frame (checkpoint
//    restarts) over a copy-free SequenceView, and the net-value scratch is
//    caller-provided so independent batches can run on different threads.
//    Every width produces bit-identical detections, latch records and
//    sampled states: batches never interact and every per-fault result is a
//    pure function of that fault's slot.
//  * FaultSimulatorT<Model> — the one-shot API (run / detects_all /
//    detected_indices), fanning its independent batches across
//    ThreadPool::global() at the slot width the fault count justifies
//    (efficient_slot_width(), read per call). Results are bit-identical
//    for every thread count: each batch writes only its own output slots.
//    FaultSimulator and TransitionFaultSimulator are its two instantiations.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/checkpoint.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/engine.hpp"
#include "sim/logic3.hpp"
#include "sim/sequence.hpp"
#include "sim/sequence_view.hpp"
#include "sim/slot_word.hpp"

namespace uniscan {

/// Batches per wave of the deterministic fail-fast used by detects_all (and
/// mirrored in the omission engine): cross-batch fail flags are only
/// consulted serially BETWEEN waves, so the set of batch advances that
/// execute — and every obs:: work counter — is a pure function of the input,
/// independent of thread count and timing.
inline constexpr std::size_t kFailFastWave = 8;

struct DetectionRecord {
  bool detected = false;
  std::uint32_t time = 0;  // first frame at which the fault was observed at a PO
};

/// Fault effect captured in a flip-flop: after clocking frame `time`, the
/// state entering frame time+1 differs from the good machine at DFF
/// `ff_index` (Netlist::dffs() order). For the scan fallback we keep the
/// occurrence with the largest ff_index (fewest shifts to scan_out).
struct LatchRecord {
  bool latched = false;
  std::uint32_t ff_index = 0;
  std::uint32_t time = 0;
};

namespace detail {
/// Test seam: BatchRunnerT::advance() pinned to the baseline kernel body
/// (isa_entry = false) or to the slot word's ISA entry (isa_entry = true;
/// taken only when the CPU runs it, see native_slot_width()).
struct KernelSeam {
  template <class Runner, class... Args>
  static std::uint64_t advance(const Runner& r, bool isa_entry, Args&&... args) {
    return r.advance_on(isa_entry, std::forward<Args>(args)...);
  }
};
}  // namespace detail

/// Incremental engine for one batch of up to kSlots-1 faults of `Model`.
/// The injection tables and the batch program are built once at
/// construction; advance() is allocation-free. A runner may be shared across
/// trials but is used by one thread at a time. Instantiated for
/// std::uint64_t, Simd256 and Simd512 with both fault models (explicit
/// instantiations in fault_sim.cpp).
template <class Word, class Model>
class BatchRunnerT {
 public:
  using FaultT = typename Model::fault_type;
  static constexpr unsigned kSlots = WordTraits<Word>::kBits;
  using State = SimBatchStateT<Word>;

  BatchRunnerT(const CompiledNetlist& cnl, std::span<const FaultT> faults);

  std::span<const FaultT> faults() const noexcept { return faults_; }
  /// Bits 1..faults().size() — the slots this batch must detect.
  Word slot_mask() const noexcept { return slot_mask_; }

  /// True if advance() maintains DFF j's next state. Always true for the
  /// unpruned (empty, good-machine) batch; otherwise false exactly for DFFs
  /// outside the batch's cone-plus-support, whose state equals the good
  /// machine's by construction (no fault effect can reach them).
  bool samples_dff(std::size_t j) const noexcept {
    return !prog_.pruned || prog_.dff_sampled[j] != 0;
  }

  /// All-X power-up state (and X launch history) with every fault slot live.
  State initial_state() const;

  struct AdvanceOptions {
    bool early_exit = true;      // stop once no slot is live
    std::span<LatchRecord> latched = {};  // one record per batch fault
    // Per-frame raw observations: raw_obs[f] receives the slots observed at
    // a primary output in frame f, before the `live` mask is applied.
    Word* raw_obs = nullptr;
    // Stop check: before simulating each frame f, probe(probe_ctx, s) is
    // called with s.frame == f; a true return ends the advance there. The
    // omission engine uses it to stop a trial whose state has re-joined the
    // accepted run (DESIGN.md §5c).
    bool (*probe)(void* ctx, const State& s) = nullptr;
    void* probe_ctx = nullptr;

    /// Install `fn` (callable as bool(const State&), outliving the advance)
    /// as the stop check.
    template <class Fn>
    void set_probe(Fn& fn) noexcept {
      probe_ctx = &fn;
      probe = [](void* ctx, const State& s) { return (*static_cast<Fn*>(ctx))(s); };
    }
  };

  /// Simulate frames [s.frame, view.length()) of `view`, updating `s` in
  /// place. `values` is per-net scratch (resized as needed; contents
  /// don't matter). Returns the number of gate-word evaluations.
  /// After an early exit, only the detection fields of `s` are
  /// meaningful; a state intended for later resumption must come from a
  /// checkpoint or a non-early-exit run. A stop by the probe leaves a
  /// resumable state entering frame s.frame. Runs the kernel on the slot
  /// word's ISA entry when the CPU has it (Simd256: AVX2, Simd512:
  /// AVX-512F), else on the baseline body; both compute the same bits.
  std::uint64_t advance(State& s, const SequenceView& view, std::vector<W3T<Word>>& values,
                        const AdvanceOptions& opt) const;

 private:
  friend struct detail::KernelSeam;

  std::uint64_t advance_on(bool isa_entry, State& s, const SequenceView& view,
                           std::vector<W3T<Word>>& values, const AdvanceOptions& opt) const;
  /// The kernel body every entry runs.
  std::uint64_t run_frames(State& s, const SequenceView& view, std::vector<W3T<Word>>& values,
                           const AdvanceOptions& opt) const;

  const CompiledNetlist* cnl_;
  std::span<const FaultT> faults_;
  Word slot_mask_{};
  typename Model::template Injector<Word> inj_;

  // Cone-pruned evaluation plan. Combinational gates carrying a branch (pin)
  // injection (forced_) leave the type runs and are evaluated individually
  // by the injector; stem-only sites stay inside the runs and get their
  // output injection patched on afterwards. fix_* is the level-ascending
  // merge of both fixup streams the kernel walks between type runs:
  // fix_idx_[i] is a patch gate id when fix_patch_[i], else an index into
  // forced_.
  BatchProgram prog_;
  std::vector<GateId> forced_;
  std::vector<std::uint32_t> fix_idx_;
  std::vector<std::uint32_t> fix_level_;
  std::vector<std::uint8_t> fix_patch_;
};

/// One-shot parallel-fault simulator over the fault model `Model`.
template <class Model>
class FaultSimulatorT {
 public:
  using fault_type = typename Model::fault_type;
  template <class Word>
  using BatchRunnerT = uniscan::BatchRunnerT<Word, Model>;
  /// The historical 63-fault runner — the uint64_t instantiation.
  using BatchRunner = BatchRunnerT<std::uint64_t>;

  explicit FaultSimulatorT(const Netlist& nl);

  const Netlist& netlist() const noexcept { return *nl_; }
  const CompiledNetlist& compiled() const noexcept { return *compiled_; }

  /// Simulate `seq` against every fault in `faults`. Returns one detection
  /// record per fault (same order). If `latched` is non-null it receives one
  /// latch record per fault.
  std::vector<DetectionRecord> run(const TestSequence& seq, std::span<const fault_type> faults,
                                   std::vector<LatchRecord>* latched = nullptr) const;
  std::vector<DetectionRecord> run(const SequenceView& view, std::span<const fault_type> faults,
                                   std::vector<LatchRecord>* latched = nullptr) const;

  /// True iff `seq` detects every fault in `faults`. Early-exits both within
  /// a batch (all slots detected) and across batches (a miss stops scheduling
  /// further kFailFastWave-sized waves — deterministic at any thread count).
  bool detects_all(const TestSequence& seq, std::span<const fault_type> faults) const;
  bool detects_all(const SequenceView& view, std::span<const fault_type> faults) const;

  /// Indices (into `faults`) of the faults detected by `seq`.
  std::vector<std::size_t> detected_indices(const TestSequence& seq,
                                            std::span<const fault_type> faults) const;

 private:
  /// Advance batches [first, last) of `faults` (kBits-1 faults each) from
  /// power-up across the pool with options `opt` (per-batch latch spans cut
  /// from `latched` when non-null), then call done(base, runner, state) on
  /// the worker that ran the batch.
  template <class Word, class Done>
  void run_batches(const SequenceView& view, std::span<const fault_type> faults,
                   std::size_t first, std::size_t last,
                   const typename BatchRunnerT<Word>::AdvanceOptions& opt,
                   std::vector<LatchRecord>* latched, Done&& done) const;

  const Netlist* nl_;
  // Shared one-time compile from Netlist::compiled_shared(): every simulator
  // over the same Netlist object reuses it instead of recompiling.
  std::shared_ptr<const CompiledNetlist> compiled_;
  // Index = ThreadPool worker id.
  mutable std::vector<SlotScratch> scratch_;
};

/// Stuck-at injection: static slot-forcing masks on stems, on branch pins of
/// combinational gates, and on DFF D pins.
struct StuckAtModel {
  using fault_type = Fault;

  template <class Word>
  class Injector {
   public:
    using W = W3T<Word>;

    Injector(const CompiledNetlist& cnl, std::span<const Fault> faults);
    /// Build the per-pin tables of the individually evaluated gates.
    void bind(const CompiledNetlist& cnl, std::span<const GateId> forced);

    bool has_stem(GateId g) const noexcept { return stem_[g].any(); }
    bool has_branch(GateId g) const noexcept { return branch_head_[g] >= 0; }
    void init_state(SimBatchStateT<Word>&) const noexcept {}

    W boundary(GateId g, W w, SimBatchStateT<Word>&) const noexcept { return stem_[g].apply(w); }
    void patch(GateId g, W& w, SimBatchStateT<Word>&) const noexcept { w = stem_[g].apply(w); }
    // Hot: one call per forced gate per frame from the kernel's fixup loop;
    // inlined there so the wide words never bounce through a
    // by-hidden-pointer return.
    [[gnu::always_inline]] W eval_forced(std::size_t k, GateId g, const W* values,
                                         SimBatchStateT<Word>&) const noexcept;
    W dff_input(std::size_t j, GateId, W d, SimBatchStateT<Word>&) const noexcept {
      return dff_force_[j].any() ? dff_force_[j].apply(d) : d;
    }
    void end_frame(SimBatchStateT<Word>&) const noexcept {}

   private:
    /// Slot-forcing masks. Slots listed in set0 are forced to 0, slots in
    /// set1 to 1; set0 & set1 == 0.
    struct Forcing {
      Word set0{};
      Word set1{};

      bool any() const noexcept { return w_any(set0 | set1); }
      W apply(W w) const noexcept {
        const Word touched = set0 | set1;
        return W{(w.v0 & ~touched) | set0, (w.v1 & ~touched) | set1};
      }
    };
    struct BranchForce {
      std::int16_t pin;
      std::int32_t next;  // next BranchForce on the same gate, -1 ends
      Forcing force;
    };

    const CompiledNetlist* cnl_;
    std::vector<Forcing> stem_;             // indexed by gate
    std::vector<std::int32_t> branch_head_; // per gate: first branch entry or -1
    std::vector<BranchForce> branches_;
    // Flat per-pin force tables of the forced gates (identity where no
    // branch fault sits on a pin), with their any() flags hoisted out of the
    // per-frame loop, and dense pin-0 forcing for DFF D inputs.
    std::vector<std::uint32_t> pin_off_;    // CSR offsets into pin_force_
    std::vector<Forcing> pin_force_;
    std::vector<std::uint8_t> pin_any_;     // parallel to pin_force_: force.any()
    std::vector<std::uint8_t> forced_stem_; // per forced gate: stem_[g].any()
    std::vector<Forcing> dff_force_;        // indexed by DFF index
  };
};

using FaultSimulator = FaultSimulatorT<StuckAtModel>;

}  // namespace uniscan
