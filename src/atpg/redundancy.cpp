#include "atpg/redundancy.hpp"

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
  // Everything starts unproved; a deadline leaves the rest that way.
  report.classes.assign(faults.size(), FaultClass::Aborted);

  const CompiledNetlist compiled(sc.netlist);
  const sat::SatEngine engine(compiled);
  sat::SatEngineOptions sopt;
  sopt.frames = options.window;
  sopt.state_assignable = true;
  sopt.max_conflicts = options.sat_max_conflicts;
  sopt.cancel = options.cancel;
  const FaultSimulator verifier(sc.netlist);
  Rng rng(0x5a7c4ec2ULL);
  StridedPoll cancel(options.cancel);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (cancel.poll()) break;
    ++report.sat.attempts;
    const sat::SatResult sr = engine.prove(faults[i], sopt);
    if (sr.verdict == sat::SatVerdict::RedundantProved) {
      ++report.sat.proved_redundant;
      report.classes[i] = FaultClass::Redundant;
      continue;
    }
    if (sr.verdict == sat::SatVerdict::Aborted) {
      ++report.sat.aborted;
      continue;
    }
    // A solver model is only believed after the full scan sequence it
    // decodes to — load, subsequence, flush — replays through the fault
    // simulator.
    TestSequence seq = make_scan_test(sc, sr.scan_in, sr.subsequence,
                                      sr.observed_at_po ? std::nullopt : sr.latched_dff, rng);
    seq.random_fill(rng);
    const auto det = verifier.run(seq, faults.subspan(i, 1));
    if (det[0].detected) {
      ++report.sat.detected;
      report.classes[i] = FaultClass::Testable;
    } else {
      ++report.sat.mismatches;
    }
  }
  for (const FaultClass cls : report.classes) {
    if (cls == FaultClass::Testable) ++report.testable;
    else if (cls == FaultClass::Redundant) ++report.redundant;
    else ++report.aborted;
  }
  return report;
}

}  // namespace uniscan
