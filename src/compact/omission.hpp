// Vector-omission-based static compaction for sequential test sequences
// (after Pomeranz & Reddy, DAC-96 [22]).
//
// Each vector of the sequence is tentatively omitted; the omission is kept
// if the remaining sequence still detects every fault the original sequence
// detected (checked by full resimulation — the circuit state downstream of
// the omitted vector changes, so nothing short of resimulation is sound).
// Passes repeat until a pass removes nothing or the pass limit is reached.
//
// Because the unified sequence represents scan shifts explicitly, omission
// freely shortens complete scan operations into limited ones — the paper's
// central observation.
#pragma once

#include <span>

#include "compact/compaction.hpp"
#include "fault/fault.hpp"
#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/sequence.hpp"
#include "util/cancel.hpp"

namespace uniscan {

struct OmissionOptions {
  std::size_t max_passes = 4;
  /// Trial order within a pass: true = last vector first (default; later
  /// vectors depend on fewer downstream detections), false = first vector
  /// first. Exposed for the ablation bench.
  bool back_to_front = true;
  /// Cooperative deadline (DESIGN.md §5f), polled between trial omissions.
  /// Every committed omission has already passed full resimulation, so on
  /// expiry the current sequence is returned as-is with `timed_out` set.
  CancelToken cancel;
};

CompactionResult omission_compact(const Netlist& nl, const TestSequence& seq,
                                  std::span<const Fault> faults,
                                  const OmissionOptions& options = {});

/// Transition-fault variant: identical algorithm over the gross-delay model.
CompactionResult omission_compact(const Netlist& nl, const TestSequence& seq,
                                  std::span<const TransitionFault> faults,
                                  const OmissionOptions& options = {});

}  // namespace uniscan
