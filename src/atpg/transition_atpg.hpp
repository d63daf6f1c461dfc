// Unified test generation for TRANSITION faults (at-speed extension).
//
// The unified view is a natural fit for at-speed testing: every pair of
// consecutive vectors in the sequence is a launch/capture pair applied at
// speed — including scan-shift cycles, so transitions can be launched by the
// last shift of a (limited) scan operation exactly as the enhanced-scan and
// LOS/LOC schemes do, without any special-casing. The generator IS the
// Section-2 stuck-at generator (atpg/seq_atpg.hpp, generate_tests over
// TransitionModel): random bootstrap, per-fault PODEM on the time-frame
// window with the transition launch condition, scan-load justification,
// the latch-and-flush fallback and the SAT second chance. This header only
// names the transition entry points.
#pragma once

#include <vector>

#include "atpg/seq_atpg.hpp"
#include "fault/transition_fault.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/transition_sim.hpp"

namespace uniscan {

/// Same fields as the stuck-at result; `proved_redundant` counts only SAT
/// proofs here (depth-bounded, see AtpgResult).
using TransitionAtpgResult = AtpgResult;

/// Options are shared with the stuck-at generator (AtpgOptions); the window
/// schedule applies unchanged, with every window extended by one frame for
/// the launch cycle.
inline TransitionAtpgResult generate_transition_tests(const ScanCircuit& sc,
                                                      const std::vector<TransitionFault>& faults,
                                                      const AtpgOptions& options = {}) {
  return generate_tests<TransitionModel>(sc, faults, options);
}
inline TransitionAtpgResult generate_transition_tests(const ScanCircuit& sc,
                                                      const AtpgOptions& options = {}) {
  return generate_transition_tests(sc, enumerate_transition_faults(sc.netlist), options);
}

}  // namespace uniscan
