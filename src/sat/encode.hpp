// Tseitin CNF translation of the time-frame-expanded compiled CSR kernel
// (DESIGN.md §5l).
//
// The encoding is DUAL-RAIL over the simulator's Kleene 3-valued logic:
// every net of every frame carries two CNF literals (is-1, is-0), X = both
// false, and each gate's rails are defined by the exact 3-valued function
// the type-run kernel evaluates — including the optimistic MUX. The faulty
// machine is a second copy restricted to the fault's fanout cone (a net
// whose faulty rails are literal-identical to its good rails is aliased,
// never re-encoded), with the fault forced on the faulty component exactly
// as FrameModel::simulate forces it: stem faults on the gate output (or the
// boundary reading for Input/DFF stems), branch faults on the reading pin,
// DFF D-pin faults on the captured next state, transition faults through
// the one-cycle driven/previous chain.
//
// Decision variables — primary inputs of every frame, plus the frame-0
// state when `state_assignable` — are single Boolean variables whose rails
// are (v, ¬v): a model is always a fully specified test. With
// state_assignable=false the frame-0 state is the constant X pair, the
// simulator's all-X power-up.
//
// The miter asserts the ScanObserve observation (atpg/podem.hpp): a fault
// effect (good and faulty rails known and different) at a primary output of
// some frame, or in the state latched after some frame. UNSAT therefore
// means: no fully specified (SI, T) test of at most `frames` vectors
// exists — the same claim an exhausted PODEM search makes, since Kleene
// evaluation is monotone (a partial-assignment detection survives every
// completion, and a binary test is its own completion).
//
// After the base miter comes a second clause group, Larrabee's active-path
// ("D-chain") clauses, over variables numbered after every base variable:
// per frame, a path variable s_g for each gate whose faulty rails differ
// from its good rails, s_g -> diff(g), s_g -> OR of s_h over the
// combinational fanouts h that have one (unless g is a PO or a DFF D
// driver), and one clause OR-ing s_site over the frames. Every test has
// such a path in its first detecting frame (DESIGN.md §5l), so the group
// keeps satisfiability; it only tells the solver how an effect must
// travel. The base formula is the prefix [0, base_clauses) over variables
// [0, base_vars), literal for literal what it would be without the group.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "fault/transition_fault.hpp"
#include "sat/cnf.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/logic3.hpp"

namespace uniscan::sat {

struct EncodeOptions {
  std::size_t frames = 1;        // unrolled depth (the |T| bound)
  bool state_assignable = true;  // (SI, T) model vs all-X power-up
  V3 tf_prev_init = V3::X;       // transition launch history entering frame 0
  /// Transition faults only: make the frame-0 launch history a decision
  /// variable instead of the tf_prev_init constant. Kleene X is the LEAST
  /// defined value, so an UNSAT under X history does NOT rule out a test
  /// under a concrete one — existentially quantifying the history is what
  /// turns UNSAT into a sound depth-bounded redundancy claim.
  bool tf_prev_assignable = false;
};

/// The encoded miter plus the decision-variable map needed to decode a
/// model back into (scan-in state, PI vectors).
struct MiterEncoding {
  Cnf cnf;
  std::size_t frames = 0;
  std::size_t num_inputs = 0;
  std::size_t num_dffs = 0;
  std::vector<Var> pi_var;     // frame-major [frame * num_inputs + pi]
  std::vector<Var> state_var;  // [dff], empty when !state_assignable
  std::optional<Var> tf_prev_var;  // set when tf_prev_assignable took effect
  // Rails (frame-major [frame * num_gates + gate]): the is-1/is-0 literals
  // of every net in each machine. The active-path group is built from them.
  std::vector<Lit> good_one, good_zero, fault_one, fault_zero;
  // The base miter: clauses [0, base_clauses) over vars [0, base_vars).
  // The rest of `cnf` is the active-path group (empty for DFF D-pin faults,
  // whose effect is observed at the latch itself, and for a base miter that
  // is already trivially UNSAT).
  Var base_vars = 0;
  std::size_t base_clauses = 0;
};

MiterEncoding encode_fault_miter(const CompiledNetlist& cnl, const Fault& fault,
                                 const EncodeOptions& options);
MiterEncoding encode_fault_miter(const CompiledNetlist& cnl, const TransitionFault& fault,
                                 const EncodeOptions& options);

}  // namespace uniscan::sat
