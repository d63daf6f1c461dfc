#include "atpg/redundancy.hpp"

#include "atpg/frame_model.hpp"
#include "atpg/podem.hpp"
#include "atpg/scan_knowledge.hpp"
#include "sat/sat_engine.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/fault_sim.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace uniscan {

RedundancyReport classify_faults(const ScanCircuit& sc, std::span<const Fault> faults,
                                 const RedundancyOptions& options) {
  RedundancyReport report;
  report.classes.reserve(faults.size());

  const CompiledNetlist compiled(sc.netlist);
  StridedPoll cancel(options.cancel);
  for (const Fault& f : faults) {
    if (cancel.poll()) {
      // Deadline fired: everything not yet proved stays unproved.
      while (report.classes.size() < faults.size()) {
        report.classes.push_back(FaultClass::Aborted);
        ++report.aborted;
      }
      break;
    }
    FrameModel model(compiled, f, options.window);
    model.set_state_assignable(true);
    const PodemResult r =
        run_podem(model, PodemGoal::ScanObserve, {options.max_backtracks, options.cancel});

    FaultClass cls;
    if (r.success) {
      cls = FaultClass::Testable;
      ++report.testable;
    } else if (!r.aborted && r.backtracks <= options.max_backtracks) {
      // The search ran out of alternatives (stack emptied), not out of
      // budget or wall clock: the space was exhausted.
      cls = FaultClass::Redundant;
      ++report.redundant;
    } else {
      cls = FaultClass::Aborted;
      ++report.aborted;
    }
    report.classes.push_back(cls);
  }

  // SAT second chance (DESIGN.md §5l): the complete search either settles
  // what PODEM's backtrack cap left Aborted, or (cross-check mode) attacks
  // PODEM's own Redundant claims. Upgrades rewrite `classes` and the tallies;
  // a solver model is only believed after the full scan sequence it decodes
  // to — load, subsequence, flush — replays through the fault simulator.
  if (options.sat_mode != SatMode::Off) {
    const sat::SatEngine engine(compiled);
    sat::SatEngineOptions sopt;
    sopt.frames = options.window;
    sopt.state_assignable = true;
    sopt.max_conflicts = options.sat_max_conflicts;
    sopt.cancel = options.cancel;
    const FaultSimulator verifier(sc.netlist);
    Rng rng(0x5a7c4ec2ULL);
    for (std::size_t i = 0; i < report.classes.size(); ++i) {
      if (cancel.poll()) break;
      FaultClass& cls = report.classes[i];
      if (cls == FaultClass::Testable) continue;
      if (cls == FaultClass::Redundant) {
        if (options.sat_mode == SatMode::CrossCheck) {
          ++report.sat.cross_checks;
          const sat::SatResult sr = engine.prove(faults[i], sopt);
          if (sr.verdict == sat::SatVerdict::Testable) ++report.sat.mismatches;
        }
        continue;
      }
      ++report.sat.attempts;
      const sat::SatResult sr = engine.prove(faults[i], sopt);
      if (sr.verdict == sat::SatVerdict::RedundantProved) {
        ++report.sat.proved_redundant;
        cls = FaultClass::Redundant;
        --report.aborted;
        ++report.redundant;
        continue;
      }
      if (sr.verdict == sat::SatVerdict::Aborted) {
        ++report.sat.aborted;
        continue;
      }
      TestSequence seq = make_scan_test(sc, sr.scan_in, sr.subsequence,
                                        sr.observed_at_po ? std::nullopt : sr.latched_dff, rng);
      seq.random_fill(rng);
      const auto det = verifier.run(seq, std::span<const Fault>(&faults[i], 1));
      if (!det.empty() && det[0].detected) {
        ++report.sat.detected;
        cls = FaultClass::Testable;
        --report.aborted;
        ++report.testable;
      } else {
        ++report.sat.mismatches;
      }
    }
  }
  return report;
}

}  // namespace uniscan
