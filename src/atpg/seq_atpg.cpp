#include "atpg/seq_atpg.hpp"

#include <optional>

#include "atpg/frame_model.hpp"
#include "atpg/podem.hpp"
#include "atpg/scan_knowledge.hpp"
#include "obs/counters.hpp"
#include "sat/sat_engine.hpp"
#include "sim/fault_sim_session.hpp"
#include "sim/transition_sim.hpp"
#include "util/cancel.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace uniscan {

namespace {

/// What the generator needs to know about a fault model beyond its
/// simulator and session; everything else is written once below.
/// kLaunchFrames extends every PODEM window and the SAT miter; a launch
/// frame also brings a launch history, which the session's prev_driven
/// seeds in every window that starts from T's state and which the SAT
/// miter quantifies.
template <class Model>
struct AtpgTraits;

template <>
struct AtpgTraits<StuckAtModel> {
  static constexpr std::size_t kLaunchFrames = 0;
  static constexpr std::uint64_t kSeedSalt = 0;  // RNG seed = options.seed ^ salt
};

template <>
struct AtpgTraits<TransitionModel> {
  static constexpr std::size_t kLaunchFrames = 1;
  static constexpr std::uint64_t kSeedSalt = 0x7261746eULL;
};

TestSequence random_chunk(const ScanCircuit& sc, std::size_t len, double scan_sel_prob,
                          Rng& rng) {
  TestSequence seq(sc.netlist.num_inputs());
  for (std::size_t t = 0; t < len; ++t) {
    std::vector<V3> vec(sc.netlist.num_inputs());
    for (auto& v : vec) v = rng.next_bool() ? V3::One : V3::Zero;
    vec[sc.scan_sel_index()] = rng.next_double() < scan_sel_prob ? V3::One : V3::Zero;
    seq.append(std::move(vec));
  }
  return seq;
}

}  // namespace

AtpgResult generate_tests(const ScanCircuit& sc, const AtpgOptions& options) {
  const FaultList faults = FaultList::collapsed(sc.netlist);
  return generate_tests(sc, faults, options);
}

AtpgResult generate_tests(const ScanCircuit& sc, const FaultList& faults,
                          const AtpgOptions& options) {
  return generate_tests<StuckAtModel>(sc, faults.faults(), options);
}

template <class Model>
AtpgResult generate_tests(const ScanCircuit& sc,
                          std::span<const typename Model::fault_type> faults,
                          const AtpgOptions& options) {
  using Traits = AtpgTraits<Model>;
  constexpr std::size_t kLaunch = Traits::kLaunchFrames;
  const Netlist& nl = sc.netlist;
  Rng rng(options.seed ^ Traits::kSeedSalt);
  const obs::CounterScope evals_scope;

  AtpgResult result;
  result.num_faults = faults.size();
  result.sequence = TestSequence(nl.num_inputs());

  SimSessionT<Model> session(nl, faults);
  std::vector<bool> via_scan_knowledge(faults.size(), false);

  // One strided view of the deadline for the whole generation flow: loop
  // bodies here cost microseconds, so polling the token every iteration
  // dominated small-circuit runs (see util/cancel.hpp).
  StridedPoll cancel(options.cancel);

  // ---- phase 1: random bootstrap -------------------------------------------
  std::size_t useless = 0;
  for (std::size_t chunk_no = 0;
       chunk_no < options.max_random_chunks && useless < options.random_give_up_after &&
       session.num_detected() < faults.size();
       ++chunk_no) {
    if (cancel.poll()) {
      result.timed_out = true;
      break;
    }
    TestSequence chunk =
        random_chunk(sc, options.random_chunk_len, options.random_scan_sel_prob, rng);
    const auto snap = session.snapshot();
    if (session.advance(chunk) == 0) {
      session.restore(snap);
      ++useless;
      continue;
    }
    useless = 0;
    result.sequence.append_sequence(chunk);
    ++result.stats.random_chunks_accepted;
  }

  // Each later pass visits the still-undetected faults in order; a fired
  // deadline marks the result timed out and ends the pass.
  const auto for_each_undetected = [&](auto&& visit) {
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (cancel.poll()) {
        result.timed_out = true;
        return;
      }
      if (!session.is_detected(fi)) visit(fi);
    }
  };

  // Commit a candidate subsequence if it makes the session detect fault fi;
  // returns false (and rolls back) otherwise.
  const auto try_commit = [&](std::size_t fi, TestSequence sub) {
    sub.random_fill(rng);
    const auto snap = session.snapshot();
    session.advance(sub);
    if (!session.is_detected(fi)) {
      session.restore(snap);
      return false;
    }
    result.sequence.append_sequence(sub);
    return true;
  };

  // ---- phase 2: deterministic per-fault generation --------------------------
  State good, faulty;
  V3 prev_driven = V3::X;
  // A window that starts from the machine pair T has reached (and, for the
  // transition model, from the faulted line's launch history).
  const auto start_from_session = [&](FrameModel& model) {
    model.set_initial_state(good, faulty);
    if constexpr (kLaunch > 0) model.set_initial_prev_driven(prev_driven);
  };
  for_each_undetected([&](std::size_t fi) {
    session.pair_state(fi, good, faulty, kLaunch > 0 ? &prev_driven : nullptr);

    // (a) Plain forward search from the current machine state.
    for (std::size_t w : options.window_schedule) {
      FrameModel model(session.compiled(), faults[fi], w + kLaunch);
      start_from_session(model);
      ++result.stats.podem_calls;
      PodemResult pr =
          run_podem(model, PodemGoal::ObservePo, {options.max_backtracks, options.cancel});
      if (!pr.success) continue;
      if (try_commit(fi, pr.subsequence)) {
        ++result.stats.podem_successes;
        return;
      }
      UNISCAN_LOG(Warn) << "PODEM success not confirmed by fault simulation for fault " << fi;
    }
    if (!options.use_scan_knowledge) return;

    // (b) Scan-load justification assist (paper Section 2, justification
    // side): search with an assignable state in a SMALL window, then reach
    // that state through an explicit scan load, appending a flush when the
    // effect is only latched. Keeps the window short even for circuits with
    // long chains.
    {
      FrameModel model(session.compiled(), faults[fi], options.justify_window + kLaunch);
      model.set_state_assignable(true);
      ++result.stats.podem_calls;
      const PodemResult pr =
          run_podem(model, PodemGoal::ScanObserve, {options.max_backtracks, options.cancel});
      const auto flush = pr.observed_at_po ? std::nullopt : std::optional(pr.latched_dff);
      if (pr.success &&
          try_commit(fi, make_scan_test(sc, pr.scan_in, pr.subsequence, flush, rng))) {
        ++result.stats.scan_load_assisted;
        if (!pr.observed_at_po) via_scan_knowledge[fi] = true;
        return;
      }
    }

    // (c) Section-2 fallback: latch the effect from the CURRENT state, then
    // flush it to scan_out.
    ++result.stats.fallback_attempts;
    FrameModel model(session.compiled(), faults[fi], options.fallback_window + kLaunch);
    start_from_session(model);
    PodemResult pr =
        run_podem(model, PodemGoal::LatchIntoFf, {options.max_backtracks, options.cancel});
    if (!pr.success) return;
    TestSequence sub = pr.subsequence;
    append_flush(sc, sub, pr.latched_dff, rng);
    if (try_commit(fi, std::move(sub))) via_scan_knowledge[fi] = true;
  });

  // ---- phase 3: SAT second chance (DESIGN.md §5l) ----------------------------
  // Every fault PODEM left undetected gets one complete search: the miter
  // either yields a test (replayed through the session like every other
  // candidate) or an UNSAT proof that upgrades the fault from
  // implicitly-Aborted to Redundant(proved). The miter is sat_frames deep
  // plus the launch. A SAT test is a scan-load test, so the pass belongs to
  // the scan knowledge and the --no-scan-knowledge ablation skips it.
  if (options.sat_mode == SatMode::SecondChance && options.use_scan_knowledge &&
      !result.timed_out) {
    const sat::SatEngine engine(session.compiled());
    sat::SatEngineOptions sopt;
    sopt.frames = options.sat_frames + kLaunch;
    sopt.state_assignable = true;
    sopt.tf_prev_assignable = kLaunch > 0;  // soundness: quantify the launch history
    sopt.max_conflicts = options.sat_max_conflicts;
    sopt.cancel = options.cancel;
    for_each_undetected([&](std::size_t fi) {
      ++result.sat.attempts;
      const sat::SatResult sr = engine.prove(faults[fi], sopt);
      if (sr.verdict == sat::SatVerdict::RedundantProved) {
        ++result.sat.proved_redundant;
        ++result.proved_redundant;
        return;
      }
      if (sr.verdict == sat::SatVerdict::Aborted) {
        ++result.sat.aborted;
        return;
      }
      const auto flush = sr.observed_at_po ? std::nullopt : sr.latched_dff;
      if (try_commit(fi, make_scan_test(sc, sr.scan_in, sr.subsequence, flush, rng))) {
        ++result.sat.detected;
        if (!sr.observed_at_po) via_scan_knowledge[fi] = true;
      } else {
        // A legitimate miss, not only an encoder bug: the (SI, T) model
        // assumes the scan load delivers SI to BOTH machines, but a fault in
        // the chain circuitry can corrupt the load itself; and a transition
        // miter chose its own launch history, while the committed scan load
        // pins whatever its last shift drives. No claim is made; the
        // summary's mismatch counter records it.
        ++result.sat.mismatches;
      }
    });
  }

  // ---- final verification ----------------------------------------------------
  FaultSimulatorT<Model> verifier(nl);
  result.detection = verifier.run(result.sequence, faults);
  result.gate_evals = evals_scope.delta(obs::Counter::GateEvals);
  for (std::size_t i = 0; i < result.detection.size(); ++i) {
    if (result.detection[i].detected) {
      ++result.detected;
      if (via_scan_knowledge[i]) ++result.detected_by_scan_knowledge;
    }
  }
  if (result.detected != session.num_detected())
    UNISCAN_LOG(Warn) << "session/verifier detection mismatch: " << session.num_detected()
                      << " vs " << result.detected;
  return result;
}

template AtpgResult generate_tests<StuckAtModel>(const ScanCircuit&, std::span<const Fault>,
                                                 const AtpgOptions&);
template AtpgResult generate_tests<TransitionModel>(const ScanCircuit&,
                                                    std::span<const TransitionFault>,
                                                    const AtpgOptions&);

}  // namespace uniscan
