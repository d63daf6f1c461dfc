// SAT-backed redundancy prover / test generator (DESIGN.md §5l).
//
// One call proves one fault: encode the time-frame-expanded miter
// (sat/encode.hpp), solve it with the in-repo CDCL solver (sat/solver.hpp),
// and turn the answer into a verdict the ATPG loops can trust. The solve has
// two stages. The first runs on the base miter plus its active-path clauses;
// if that refutes the fault, the call is RedundantProved. Otherwise the base
// miter alone is solved under the same budget and decides the verdict, so a
// test is always the plain miter's model:
//
//  * Sat    — the model is decoded into (scan-in, PI vectors) and CONFIRMED
//             by replaying it through the FrameModel pair simulator before
//             Testable is reported; a model that fails to replay (an encoder
//             bug, by construction) degrades to Aborted, never to a wrong
//             verdict. Callers replay the returned test through the fault
//             simulator again before counting a detection.
//  * Unsat  — RedundantProved, with an optional RUP certificate. For
//             stuck-at faults at frames=1 with an assignable state this is
//             full conventional-scan untestability; for transition faults it
//             is a depth-bounded claim (no test within the unrolled window —
//             the launch history entering frame 0 is X, not universally
//             quantified).
//  * Aborted — budget or cancellation; proves nothing (PR 4: a cancelled
//             call never reports Redundant, checked again at entry).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault.hpp"
#include "fault/transition_fault.hpp"
#include "sat/certificate.hpp"
#include "sat/solver.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/sequence.hpp"
#include "util/cancel.hpp"

namespace uniscan::sat {

enum class SatVerdict : std::uint8_t {
  Testable,         // confirmed test in scan_in/subsequence
  RedundantProved,  // miter UNSAT up to the unrolled depth
  Aborted,          // budget or cancellation; no claim
};

struct SatEngineOptions {
  std::size_t frames = 1;        // unrolled depth
  bool state_assignable = true;  // (SI, T) model vs all-X power-up
  V3 tf_prev_init = V3::X;       // transition launch history entering frame 0
  /// Transition faults only: existentially quantify the frame-0 launch
  /// history instead of pinning it to tf_prev_init. Required for a SOUND
  /// transition redundancy claim — UNSAT under an X history does not rule
  /// out a test under a concrete one (see sat/encode.hpp).
  bool tf_prev_assignable = false;
  std::int64_t max_conflicts = 20000;  // < 0: unlimited
  CancelToken cancel;
  bool want_certificate = false;
};

struct SatResult {
  SatVerdict verdict = SatVerdict::Aborted;
  /// Testable artifacts, mirroring PODEM's ScanObserve finish: the scan-in
  /// state (when assignable), the PI vectors of the frames actually needed,
  /// and where the effect was observed (a PO, else the latched DFF).
  std::vector<V3> scan_in;
  TestSequence subsequence;
  std::size_t frames_used = 0;
  bool observed_at_po = false;
  std::optional<std::size_t> latched_dff;
  /// Launch history the confirmed test assumed (transition faults; the
  /// solver's choice when tf_prev_assignable, else tf_prev_init).
  V3 launch_prev = V3::X;

  SolverStats stats;  // both solve stages summed
  /// When requested, on UNSAT: the stage that refuted the fault supplies its
  /// originals (base plus path clauses, or the base alone) and its proof.
  std::optional<UnsatCertificate> certificate;
};

class SatEngine {
 public:
  explicit SatEngine(const CompiledNetlist& cnl) : cnl_(&cnl) {}

  SatResult prove(const Fault& fault, const SatEngineOptions& options) const;
  SatResult prove(const TransitionFault& fault, const SatEngineOptions& options) const;

 private:
  const CompiledNetlist* cnl_;
};

}  // namespace uniscan::sat
