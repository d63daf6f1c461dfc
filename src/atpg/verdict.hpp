// The SAT verdict taxonomy shared by the generators, the redundancy
// identifier, and the table binaries (DESIGN.md §5l).
//
// Every per-fault outcome is one of three verdicts:
//
//  * Detected          — a test exists and was REPLAYED through the fault
//                        simulator (never trusted from a solver model alone),
//  * Redundant(proved) — an UNSAT result of the full miter up to the
//                        unrolled depth; for stuck-at faults at window 1
//                        this is conventional-scan untestability,
//  * Aborted           — budgets or cancellation cut the search short, or
//                        a model failed to replay; an aborted search never
//                        claims Redundant (PR 4).
#pragma once

#include <cstdint>

namespace uniscan {

enum class SatMode : std::uint8_t {
  Off,           // no SAT calls: the generator is PODEM only (phases 1 and 2)
  SecondChance,  // every fault PODEM leaves undetected goes to the SAT engine
};

/// What the SAT phase contributed, reported on the ATPG / redundancy results
/// and in the bench-JSON `sat` block.
struct SatSummary {
  std::uint64_t attempts = 0;         // faults handed to the engine
  std::uint64_t detected = 0;         // SAT models that replayed to a detection
  std::uint64_t proved_redundant = 0; // UNSAT certificates up to the depth
  std::uint64_t aborted = 0;          // engine budget/cancel exhausted
  std::uint64_t mismatches = 0;       // models that failed to replay through
                                      // the fault simulator

  /// Accumulate another summary (suite totals in the table binaries).
  void add(const SatSummary& o) noexcept {
    attempts += o.attempts;
    detected += o.detected;
    proved_redundant += o.proved_redundant;
    aborted += o.aborted;
    mismatches += o.mismatches;
  }
};

}  // namespace uniscan
