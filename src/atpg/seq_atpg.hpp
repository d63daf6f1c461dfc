// Sequential test generation for scan circuits under the unified view
// (paper Section 2).
//
// The generator builds ONE test sequence T for C_scan by concatenating
// subsequences, exactly as the paper describes:
//   1. a cheap random bootstrap phase (accepted chunk-wise only when it
//      detects new faults),
//   2. per remaining fault, deterministic PODEM search over a growing
//      time-frame window, starting from the machine-pair state reached by T,
//   3. when deterministic detection fails, the Section-2 scan-knowledge
//      fallback: search only until the fault effect is LATCHED into a
//      flip-flop, then append a scan flush (scan_sel = 1) to carry it to
//      scan_out. Faults detected this way populate Table 5's `funct` column.
//
// Every extension is committed through a streaming fault-simulation session,
// so detection bookkeeping is exact and incremental; the final sequence is
// re-verified from power-up by an independent fault simulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/verdict.hpp"
#include "fault/fault_list.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/fault_sim.hpp"
#include "sim/sequence.hpp"
#include "util/cancel.hpp"

namespace uniscan {

struct AtpgOptions {
  std::uint64_t seed = 1;

  /// Cooperative wall-clock budget (DESIGN.md §5f). Polled at the top of
  /// every per-fault iteration and inside PODEM's search loop. When it
  /// fires, generation stops cleanly: the best-so-far sequence is verified
  /// and returned with `timed_out` set and the remaining faults untested.
  /// Inert by default — results are bit-identical to an unbudgeted run
  /// whenever the token never fires.
  CancelToken cancel;

  // Random bootstrap phase.
  std::size_t random_chunk_len = 24;
  std::size_t max_random_chunks = 64;
  std::size_t random_give_up_after = 6;   // consecutive useless chunks
  double random_scan_sel_prob = 0.25;     // P(scan_sel = 1) per random vector

  // Deterministic phase.
  std::vector<std::size_t> window_schedule = {4, 10};
  int max_backtracks = 120;

  // Section-2 functional scan knowledge (Table 5 ablation switch). Controls
  // both the latch-and-flush fallback (the paper's `funct` mechanism) and
  // the scan-load justification assist (the paper's Section-2 note on state
  // justification through the chain).
  bool use_scan_knowledge = true;
  std::size_t fallback_window = 8;
  std::size_t justify_window = 8;

  // Last-chance pass: remaining undetected faults get one scan-load-assisted
  // search with this (much larger) backtrack budget. 0 disables the pass.
  int final_effort_backtracks = 6000;

  // SAT second chance (DESIGN.md §5l). Off keeps the pipeline byte-identical
  // to the pre-SAT generator; SecondChance hands every fault still undecided
  // after the last-chance pass to the SAT engine (sat/sat_engine.hpp);
  // CrossCheck additionally re-proves PODEM's own redundancy claims and
  // counts disagreements in `AtpgResult::sat.mismatches`.
  SatMode sat_mode = SatMode::Off;
  std::int64_t sat_max_conflicts = 20000;  // per-fault solver budget
  std::size_t sat_frames = 1;              // unrolled depth of the miter
};

struct AtpgStats {
  /// Searches of phase 2's forward windows and of every scan-load-assisted
  /// search (phase 2 and the last-chance pass). The latch fallback (see
  /// fallback_attempts) and the last-chance window-1 proofs are not
  /// counted; obs::Counter::PodemSearches counts every run_podem call.
  std::size_t podem_calls = 0;
  std::size_t podem_successes = 0;
  std::size_t scan_load_assisted = 0;  // detections via scan-load justification
  std::size_t fallback_attempts = 0;
  std::size_t random_chunks_accepted = 0;
};

struct AtpgResult {
  TestSequence sequence;  // fully specified
  std::size_t num_faults = 0;
  std::size_t detected = 0;
  std::size_t detected_by_scan_knowledge = 0;  // the `funct` column
  /// Undetected faults PROVED untestable: by the last-chance pass's window-1
  /// exhaustive search (stuck-at; any single-vector scan test) — the
  /// completeness extension the paper notes its procedure lacks — or by the
  /// SAT second chance up to its unrolled depth (for transition faults
  /// sat_frames + 1 launch frame with X launch history, a depth-bounded
  /// claim; see sat/sat_engine.hpp).
  std::size_t proved_redundant = 0;
  /// True when AtpgOptions::cancel fired: the sequence is the verified
  /// best-so-far prefix and the faults not reached remain undetected.
  bool timed_out = false;
  std::vector<DetectionRecord> detection;      // per collapsed fault, final sequence
  AtpgStats stats;
  /// Gate-word evaluations spent on fault simulation (session + final
  /// verification) — the bench binaries' work metric.
  std::uint64_t gate_evals = 0;
  /// What the SAT second-chance phase contributed (all zero when
  /// `AtpgOptions::sat_mode == SatMode::Off`).
  SatSummary sat;

  double fault_coverage() const {
    return num_faults == 0 ? 0.0 : 100.0 * static_cast<double>(detected) / static_cast<double>(num_faults);
  }
};

/// Run the Section-2 generator on a scan circuit. `faults` defaults to the
/// collapsed universe of sc.netlist when empty.
AtpgResult generate_tests(const ScanCircuit& sc, const AtpgOptions& options = {});
AtpgResult generate_tests(const ScanCircuit& sc, const FaultList& faults,
                          const AtpgOptions& options);

/// The generator over fault model `Model` (StuckAtModel or TransitionModel,
/// both instantiated in seq_atpg.cpp; the per-model differences are listed
/// in DESIGN.md §5d). generate_transition_tests (atpg/transition_atpg.hpp)
/// is the transition entry point.
template <class Model>
AtpgResult generate_tests(const ScanCircuit& sc,
                          std::span<const typename Model::fault_type> faults,
                          const AtpgOptions& options);

}  // namespace uniscan
