// Iterative-array (time-frame expansion) model of a sequential circuit with
// one injected stuck-at fault, over the five-valued D-calculus.
//
// Frame 0's present state is a fixed (good, faulty) pair — the machine pair
// state reached by the test sequence generated so far. Primary inputs of
// every frame are the decision variables; everything else is derived by
// forward pair simulation. The fault is injected in every frame (a stuck-at
// fault is permanent).
//
// Values are stored packed, one byte per (frame, gate), in the W3 bit-plane
// layout of sim/logic3.hpp with two machines (see detail::PackedV5Ops), and
// evaluated by the compiled type-run kernel with branch-free ops. The
// accessors unpack to V5.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/dcalc.hpp"
#include "fault/fault.hpp"
#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/sequence.hpp"
#include "sim/sequential_sim.hpp"

namespace uniscan {

namespace detail {

/// A V5 packed into one byte: the W3 planes (v0 = "is 0", v1 = "is 1") of
/// two machines, bit0 good is 0, bit1 faulty is 0, bit2 good is 1, bit3
/// faulty is 1. 0 = (0,0) is 3, 1 = (1,1) is 12, X = (x,x) is 0, D is 6,
/// D' is 9; a well-formed value never sets both planes of one machine.
inline constexpr std::uint8_t kP5Zero = 3, kP5One = 12, kP5D = 6, kP5DBar = 9;
inline constexpr std::uint8_t kP5GoodBits = 5;
/// 16-bit membership masks indexed by a packed value.
inline constexpr std::uint16_t kP5IsD = (1u << kP5D) | (1u << kP5DBar);
inline constexpr std::uint16_t kP5Known = kP5IsD | (1u << kP5Zero) | (1u << kP5One);

inline constexpr bool p5_is_d(std::uint8_t p) noexcept { return (kP5IsD >> p) & 1u; }
inline constexpr bool p5_known(std::uint8_t p) noexcept { return (kP5Known >> p) & 1u; }

/// Good-machine plane bits of a V3 (Zero, One, X); the faulty machine's are
/// the same shifted left by one.
inline constexpr std::uint8_t kP5Plane[3] = {1, 4, 0};

inline constexpr std::uint8_t pack_v5(V5 v) noexcept {
  return static_cast<std::uint8_t>(kP5Plane[static_cast<int>(v.good)] |
                                   kP5Plane[static_cast<int>(v.faulty)] << 1);
}
inline constexpr std::uint8_t pack_both(V3 v) noexcept {
  return static_cast<std::uint8_t>(kP5Plane[static_cast<int>(v)] * 3);
}
/// Replace the faulty machine's value, keeping the good one.
inline constexpr std::uint8_t with_faulty(std::uint8_t p, V3 faulty) noexcept {
  return static_cast<std::uint8_t>((p & kP5GoodBits) | kP5Plane[static_cast<int>(faulty)] << 1);
}

inline constexpr std::array<V5, 16> kP5Unpack = [] {
  const auto component = [](unsigned p, unsigned machine) {
    if ((p >> machine) & 1u) return V3::Zero;
    if ((p >> (machine + 2)) & 1u) return V3::One;
    return V3::X;
  };
  std::array<V5, 16> t{};
  for (unsigned p = 0; p < 16; ++p) t[p] = V5{component(p, 0), component(p, 1)};
  return t;
}();
inline constexpr V5 unpack_v5(std::uint8_t p) noexcept { return kP5Unpack[p & 15u]; }

/// The w3_* formulas of sim/logic3.hpp over a packed pair, for
/// detail::eval_type_runs: exact per machine, like eval_gate_v5.
struct PackedV5Ops {
  using value = std::uint8_t;
  static value not_(value a) noexcept { return static_cast<value>((a & 3) << 2 | a >> 2); }
  static value and_(value a, value b) noexcept {
    return static_cast<value>(((a | b) & 3) | (a & b & 12));
  }
  static value or_(value a, value b) noexcept {
    return static_cast<value>((a & b & 3) | ((a | b) & 12));
  }
  static value xor_(value a, value b) noexcept {
    const unsigned a0 = a & 3u, a1 = a >> 2, b0 = b & 3u, b1 = b >> 2;
    return static_cast<value>(((a0 & b0) | (a1 & b1)) | ((a0 & b1) | (a1 & b0)) << 2);
  }
  static value mux(value d0, value d1, value s) noexcept {
    // Select planes copied to both plane positions of their machine.
    const unsigned s0 = (s & 3u) * 5u, s1 = (s >> 2) * 5u;
    return static_cast<value>((s0 & d0) | (s1 & d1) | (d0 & d1));
  }
  static value zero() noexcept { return kP5Zero; }
  static value one() noexcept { return kP5One; }
};

}  // namespace detail

class FrameModel {
 public:
  /// Convenience form: compiles `nl` privately. Hot callers (the ATPG loops,
  /// which build one model per fault attempt) should pass a shared
  /// CompiledNetlist instead — e.g. their session's compiled().
  FrameModel(const Netlist& nl, Fault fault, std::size_t num_frames);
  FrameModel(const CompiledNetlist& cnl, Fault fault, std::size_t num_frames);

  /// Transition-fault variant: the faulted line's faulty component follows
  /// the one-cycle gross-delay semantics (STR: and(now, prev), STF: or).
  /// The launch history entering frame 0 defaults to X; see
  /// set_initial_prev_driven().
  FrameModel(const Netlist& nl, TransitionFault fault, std::size_t num_frames);
  FrameModel(const CompiledNetlist& cnl, TransitionFault fault, std::size_t num_frames);

  const Netlist& netlist() const noexcept { return *nl_; }
  std::size_t num_frames() const noexcept { return num_frames_; }
  const Fault& fault() const noexcept { return fault_; }
  bool is_transition() const noexcept { return is_transition_; }
  bool slow_to_rise() const noexcept { return slow_to_rise_; }

  /// Faulted line's driven value in the faulty machine at the cycle before
  /// frame 0 (from the streaming session when extending a sequence).
  void set_initial_prev_driven(V3 v) noexcept {
    tf_prev_init_ = v;
    dirty_from_ = 0;
  }

  /// Fix the machine-pair state entering frame 0.
  void set_initial_state(const State& good, const State& faulty);

  /// Make frame 0's present state a decision variable instead of a fixed
  /// value — the scan-in vector of the conventional (SI, T) test model used
  /// by the baseline generators. Assigned via assign_state().
  void set_state_assignable(bool v) {
    state_assignable_ = v;
    dirty_from_ = 0;
  }
  bool state_assignable() const noexcept { return state_assignable_; }

  // ---- decision variables ---------------------------------------------------
  // Assignments track the earliest touched frame so simulate() only
  // re-evaluates frames that can have changed (frames before it keep their
  // values and cached bookkeeping).
  void assign(std::size_t frame, std::size_t pi, V3 v) {
    pi_assign_[frame * npi_ + pi] = v;
    if (frame < dirty_from_) dirty_from_ = frame;
  }
  V3 assignment(std::size_t frame, std::size_t pi) const { return pi_assign_[frame * npi_ + pi]; }
  void assign_state(std::size_t dff, V3 v) {
    state_assign_[dff] = v;
    dirty_from_ = 0;
  }
  V3 state_assignment(std::size_t dff) const { return state_assign_[dff]; }

  /// Hold input `pi` at `v` in every frame. Pins survive clear_assignments()
  /// and are never chosen as decision variables (the baseline generators pin
  /// scan_sel = 0 so the search stays in the functional mode).
  void pin_input(std::size_t pi, V3 v);
  /// The assigned scan-in vector (unassigned cells are X).
  const std::vector<V3>& extract_state_assignment() const noexcept { return state_assign_; }
  void clear_assignments();

  // ---- simulation -----------------------------------------------------------

  /// Forward pair-simulate all frames under the current assignments.
  void simulate();

  /// Value of gate `g` in frame `f` (after simulate()).
  V5 value(std::size_t f, GateId g) const { return detail::unpack_v5(values_[f * ng_ + g]); }

  /// Pin value of gate g's pin p in frame f, including branch-fault forcing.
  V5 pin_value(std::size_t f, GateId g, std::size_t p) const;

  /// Value forced onto the faulted line's faulty component at `frame`, given
  /// the faulty machine's driven value (stuck value, or delay semantics).
  V3 forced_faulty(std::size_t frame, V3 driven_faulty) const;

  /// Earliest frame whose POs expose a fault effect, after simulate().
  std::optional<std::size_t> po_detection_frame() const { return po_detect_; }

  /// Earliest (frame, dff) whose *next state* carries a fault effect; among
  /// equal frames, the DFF deepest in Netlist::dffs() order (fewest scan
  /// shifts to the chain tail). Valid after simulate().
  struct LatchedEffect {
    std::size_t frame;
    std::size_t dff_index;
  };
  std::optional<LatchedEffect> first_latched_effect() const { return latch_; }

  /// D-frontier after simulate(): (frame, gate) pairs where a fault effect
  /// sits on an input but the output is not fully known.
  const std::vector<std::pair<std::size_t, GateId>>& d_frontier() const { return frontier_; }

  /// True if a fault effect exists anywhere in the model after simulate().
  bool any_effect() const noexcept { return any_effect_; }

  /// Extract the assigned PI vectors of frames [0, frames_used) as a test
  /// subsequence (unassigned inputs stay X).
  TestSequence extract_sequence(std::size_t frames_used) const;

  // ---- controllability costs ------------------------------------------------
  // SCOAP-flavoured per-net costs on the sequential circuit (DFF outputs
  // take their D cost plus a penalty; a few fixpoint sweeps). Used by the
  // PODEM backtrace to order choices.
  std::uint32_t cost0(GateId g) const { return cost0_[g]; }
  std::uint32_t cost1(GateId g) const { return cost1_[g]; }

 private:
  FrameModel(std::optional<CompiledNetlist> owned, const CompiledNetlist* shared, Fault fault,
             std::size_t num_frames);
  void compute_costs();
  /// Force the faulty machine of packed value `v` at `frame`, in place, as
  /// forced_faulty() does; returns the driven faulty value it replaced.
  V3 force_packed(std::size_t frame, std::uint8_t& v) const;
  /// Append frame `f`'s D-frontier to frontier_ (after simulation); true
  /// if the frame holds a fault effect.
  bool scan_effects(std::size_t f);

  std::optional<CompiledNetlist> owned_compile_;  // backing store for the Netlist ctors
  const CompiledNetlist* cnl_;
  const Netlist* nl_;
  // Full-core evaluation plan with the faulted combinational gate (if the
  // fault sits on one) excluded for individual forced evaluation;
  // fault_split_ is the first run at a level above it.
  BatchProgram prog_;
  std::size_t fault_split_ = 0;
  Fault fault_;  // for transitions: same site, stuck value unused
  bool is_transition_ = false;
  bool slow_to_rise_ = false;
  V3 tf_prev_init_ = V3::X;
  std::size_t num_frames_;
  std::size_t npi_;
  std::size_t ng_;
  // Branch fault on a DFF's D pin: that DFF's index, else -1.
  std::int32_t faulted_dff_d_ = -1;

  State init_good_, init_faulty_;
  bool state_assignable_ = false;
  std::vector<V3> state_assign_;  // frame-0 PS decision variables
  std::vector<V3> pi_pins_;       // per-PI pinned value (X = unpinned)
  std::vector<V3> pi_assign_;     // frame-major [frame * npi + pi]
  std::vector<std::uint8_t> values_;  // packed, frame-major [frame * num_gates + gate]

  std::optional<std::size_t> po_detect_;
  std::optional<LatchedEffect> latch_;
  std::vector<std::pair<std::size_t, GateId>> frontier_;
  bool any_effect_ = false;
  std::vector<V3> tf_prev_by_frame_;  // launch history entering each frame

  // Incremental re-simulation state: the machine-pair state entering each
  // frame ((num_frames+1) rows, row f+1 = next state after frame f) and
  // per-frame bookkeeping so frames before dirty_from_ keep cached results.
  std::size_t dirty_from_ = 0;
  std::vector<std::uint8_t> frame_state_;  // packed
  std::vector<std::uint8_t> po_d_frame_, any_d_frame_;
  std::vector<std::int32_t> latch_frame_;      // largest latching DFF, or -1
  std::vector<std::uint32_t> frontier_off_;    // per-frame frontier_ offsets

  std::vector<std::uint32_t> cost0_, cost1_;
};

}  // namespace uniscan
