// Sequential test generation for scan circuits under the unified view
// (paper Section 2).
//
// The generator builds ONE test sequence T for C_scan by concatenating
// subsequences, exactly as the paper describes:
//   1. a cheap random bootstrap phase (accepted chunk-wise only when it
//      detects new faults),
//   2. per remaining fault, deterministic PODEM search over a growing
//      time-frame window, starting from the machine-pair state reached by T;
//      with scan knowledge, then a scan-load-assisted search in a short
//      window and the Section-2 fallback: search only until the fault
//      effect is LATCHED into a flip-flop, then append a scan flush
//      (scan_sel = 1) to carry it to scan_out. Faults detected this way
//      populate Table 5's `funct` column,
//   3. with scan knowledge, the SAT second chance (DESIGN.md §5l) for every
//      fault phase 2 left undetected: a scan-load test from the miter's
//      model, or a proof that no (SI, T) test of sat_frames vectors exists
//      — the completeness the paper notes its procedure lacks.
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
  // the latch-and-flush fallback (the paper's `funct` mechanism), the
  // scan-load justification assist (the paper's Section-2 note on state
  // justification through the chain) and the SAT second chance, whose tests
  // are scan-load tests too. Without it the generator is forward PODEM only.
  bool use_scan_knowledge = true;
  std::size_t fallback_window = 8;
  std::size_t justify_window = 8;

  // SAT second chance (DESIGN.md §5l): every fault phase 2 leaves
  // undetected goes to the SAT engine (sat/sat_engine.hpp), which finds a
  // test or proves the fault redundant at its depth. Off skips the pass
  // (the mid and large corpus digest profiles use it to stay PODEM only).
  SatMode sat_mode = SatMode::SecondChance;
  std::int64_t sat_max_conflicts = 20000;  // per-fault solver budget
  std::size_t sat_frames = 1;              // unrolled depth of the miter
};

struct AtpgStats {
  /// Searches of phase 2's forward windows and scan-load-assisted
  /// searches. The latch fallback (see fallback_attempts) is not counted;
  /// obs::Counter::PodemSearches counts every run_podem call.
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
  /// Undetected faults PROVED untestable by the SAT second chance up to its
  /// unrolled depth: for stuck-at faults at sat_frames = 1, no single-vector
  /// scan test exists — the completeness extension the paper notes its
  /// procedure lacks; for transition faults sat_frames + 1 launch frame
  /// with a quantified launch history, a depth-bounded claim (see
  /// sat/sat_engine.hpp). Equal to `sat.proved_redundant`.
  std::size_t proved_redundant = 0;
  /// True when AtpgOptions::cancel fired: the sequence is the verified
  /// best-so-far prefix and the faults not reached remain undetected.
  bool timed_out = false;
  std::vector<DetectionRecord> detection;      // per collapsed fault, final sequence
  AtpgStats stats;
  /// Gate-word evaluations spent on fault simulation (session + final
  /// verification) — the bench binaries' work metric.
  std::uint64_t gate_evals = 0;
  /// What the SAT second-chance phase contributed (all zero when the pass
  /// did not run: `SatMode::Off` or no scan knowledge).
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
