// Bounded untestability analysis — the completeness the paper's Section-5
// remark points out its generator lacks ("it is not able to prove that a
// fault is undetectable").
//
// A fault of the scan circuit is classified by the SAT engine (DESIGN.md
// §5l) on the (SI, T) model: frame-0 state fully assignable (any state is
// reachable through the chain), `window` functional frames, observation at
// any PO or in the latched state (which a scan-out makes visible). The
// miter is exact over that space, so:
//
//  * window = 1 UNSAT  => the fault is UNTESTABLE BY ANY conventional
//    single-vector scan test (combinationally redundant under full scan,
//    modulo the optimistic X-propagation of the MUX model);
//  * window = k UNSAT  => no (SI, T) test with |T| <= k exists.
//
// A model counts as Testable only after the full scan sequence it decodes
// to — load, subsequence, flush — replays through the fault simulator.
// Faults whose solve exhausts the conflict budget or the deadline, and
// models that do not replay, are reported Aborted, never Redundant.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/verdict.hpp"
#include "fault/fault_list.hpp"
#include "scan/scan_insertion.hpp"
#include "util/cancel.hpp"

namespace uniscan {

enum class FaultClass : std::uint8_t {
  Testable,   // a replayed test exists
  Redundant,  // proved: no (SI, T) test with |T| <= window exists
  Aborted,    // budget, deadline or a model that did not replay: no claim
};

struct RedundancyOptions {
  std::size_t window = 1;                  // |T| bound of the proof
  std::int64_t sat_max_conflicts = 20000;  // per-fault solver budget
  /// Cooperative deadline (DESIGN.md §5f). When it fires, the fault whose
  /// solve was interrupted and every fault not yet examined are classified
  /// Aborted — never Redundant, since their spaces were not exhausted.
  CancelToken cancel;
};

struct RedundancyReport {
  std::vector<FaultClass> classes;  // one per fault
  std::size_t testable = 0;
  std::size_t redundant = 0;
  std::size_t aborted = 0;
  /// The solver's tallies: `attempts` counts the faults examined before any
  /// deadline, `mismatches` the models that did not replay (Aborted).
  SatSummary sat;
};

/// Classify every fault in `faults` (usually the subset a generator left
/// undetected). `sc` must have its chains inserted already.
RedundancyReport classify_faults(const ScanCircuit& sc, std::span<const Fault> faults,
                                 const RedundancyOptions& options = {});

}  // namespace uniscan
