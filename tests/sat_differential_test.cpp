// Differential oracle for the SAT engine (DESIGN.md §5l) over the fast
// corpus tier: PODEM and the CNF miter search the SAME space (fully
// specified (SI, T) tests of at most `frames` vectors, ScanObserve
// observation), so wherever both complete they must agree —
//
//   * PODEM finds a test        -> SAT must report Testable
//   * PODEM exhausts the space  -> SAT must report RedundantProved
//   * SAT reports Testable      -> the decoded (SI, T) artifacts must
//                                  replay to a real detection in an
//                                  independently constructed FrameModel
//
// Aborts on either side make no claim (PR 4) and skip the comparison.
// Failures name the circuit, the fault, and the unrolled depth.
//
// SatActivePath checks the lemma behind the miter's active-path clauses
// (sat/encode.hpp): adding them never removes a test, so the plain and the
// extended miter agree on Sat/Unsat, and an extended model is still a test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "atpg/frame_model.hpp"
#include "atpg/podem.hpp"
#include "corpus/corpus.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "fault/transition_fault.hpp"
#include "sat/encode.hpp"
#include "sat/sat_engine.hpp"
#include "sat/solver.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/compiled_netlist.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

constexpr std::size_t kDepth = 1;           // unrolled frames for both engines
constexpr int kPodemBacktracks = 5000;      // generous: most faults resolve
constexpr std::size_t kMaxFaultsPerCircuit = 40;

/// Replay a SAT Testable verdict from its decoded artifacts alone — scan-in
/// state plus PI vectors — through a freshly built FrameModel, trusting
/// nothing the engine computed beyond those artifacts.
void expect_replay_detects(const CompiledNetlist& compiled, const Fault& fault,
                           const sat::SatResult& sr) {
  ASSERT_GE(sr.frames_used, 1u);
  ASSERT_LE(sr.frames_used, kDepth);
  FrameModel replay(compiled, fault, sr.frames_used);
  replay.set_state_assignable(true);
  for (std::size_t d = 0; d < sr.scan_in.size(); ++d) replay.assign_state(d, sr.scan_in[d]);
  ASSERT_EQ(sr.subsequence.length(), sr.frames_used);
  for (std::size_t t = 0; t < sr.subsequence.length(); ++t)
    for (std::size_t pi = 0; pi < sr.subsequence.num_inputs(); ++pi)
      replay.assign(t, pi, sr.subsequence.at(t, pi));
  replay.simulate();
  if (sr.observed_at_po) {
    ASSERT_TRUE(replay.po_detection_frame().has_value())
        << "SAT claimed a PO observation the replay does not show";
    EXPECT_LT(*replay.po_detection_frame(), sr.frames_used);
  } else {
    ASSERT_TRUE(sr.latched_dff.has_value());
    ASSERT_TRUE(replay.first_latched_effect().has_value())
        << "SAT claimed a latched observation the replay does not show";
  }
}

TEST(SatDifferential, FastCorpusAgreesWithPodem) {
  const auto suite = CorpusRegistry::global().suite_entries(CorpusTier::Fast);
  ASSERT_FALSE(suite.empty()) << "fast corpus tier is empty";

  std::size_t compared = 0, sat_aborted = 0, podem_open = 0;
  for (const SuiteEntry& entry : suite) {
    SCOPED_TRACE("circuit " + entry.name);
    const Netlist c = load_circuit(entry);
    const ScanCircuit sc = insert_scan(c);
    const CompiledNetlist compiled(sc.netlist);
    const FaultList fl = FaultList::collapsed(sc.netlist);
    const sat::SatEngine engine(compiled);

    const std::size_t stride = std::max<std::size_t>(1, fl.size() / kMaxFaultsPerCircuit);
    for (std::size_t fi = 0; fi < fl.size(); fi += stride) {
      const Fault& fault = fl[fi];
      SCOPED_TRACE("fault " + fault_to_string(sc.netlist, fault) + " depth " +
                   std::to_string(kDepth));

      FrameModel proof(compiled, fault, kDepth);
      proof.set_state_assignable(true);
      const PodemResult pr = run_podem(proof, PodemGoal::ScanObserve, {kPodemBacktracks, {}});
      const bool podem_proved_redundant =
          !pr.success && !pr.aborted && pr.backtracks <= kPodemBacktracks;

      sat::SatEngineOptions sopt;
      sopt.frames = kDepth;
      sopt.state_assignable = true;
      const sat::SatResult sr = engine.prove(fault, sopt);

      if (sr.verdict == sat::SatVerdict::Aborted) {
        ++sat_aborted;  // no claim either way (PR 4)
        continue;
      }
      if (sr.verdict == sat::SatVerdict::Testable) {
        EXPECT_FALSE(podem_proved_redundant)
            << "SAT found a test for a fault PODEM proved redundant";
        expect_replay_detects(compiled, fault, sr);
      } else {  // RedundantProved
        EXPECT_FALSE(pr.success) << "SAT proved UNSAT-at-depth a fault PODEM detects";
      }
      if (pr.success || podem_proved_redundant)
        ++compared;
      else
        ++podem_open;  // PODEM budget ran out: SAT's complete answer stands alone
    }
  }
  // The suite must actually exercise the oracle: a corpus where PODEM never
  // completes (or the sampler skips everything) would pass vacuously.
  EXPECT_GT(compared, 0u);
  RecordProperty("compared", static_cast<int>(compared));
  RecordProperty("sat_aborted", static_cast<int>(sat_aborted));
  RecordProperty("podem_open", static_cast<int>(podem_open));
}

TEST(SatDifferential, DeeperWindowNeverLosesTests) {
  // Monotonicity of the depth-bounded claim: anything Testable at depth 1
  // stays Testable at depth 2 (the encoder adds frames, never constraints
  // that could exclude a shorter test).
  const auto suite = CorpusRegistry::global().suite_entries(CorpusTier::Fast);
  ASSERT_FALSE(suite.empty());
  const SuiteEntry& entry = suite.front();
  SCOPED_TRACE("circuit " + entry.name);
  const ScanCircuit sc = insert_scan(load_circuit(entry));
  const CompiledNetlist compiled(sc.netlist);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  const sat::SatEngine engine(compiled);

  const std::size_t stride = std::max<std::size_t>(1, fl.size() / 10);
  for (std::size_t fi = 0; fi < fl.size(); fi += stride) {
    SCOPED_TRACE("fault " + fault_to_string(sc.netlist, fl[fi]));
    sat::SatEngineOptions one, two;
    one.frames = 1;
    two.frames = 2;
    const sat::SatResult r1 = engine.prove(fl[fi], one);
    if (r1.verdict != sat::SatVerdict::Testable) continue;
    const sat::SatResult r2 = engine.prove(fl[fi], two);
    EXPECT_EQ(r2.verdict, sat::SatVerdict::Testable)
        << "depth-1 test vanished at depth 2";
  }
}

/// Solve the plain miter (the base prefix) or the extended one (base plus
/// path clauses) without a budget.
sat::SolveStatus solve_miter(const sat::MiterEncoding& enc, bool with_paths,
                             sat::Solver& solver) {
  const std::size_t n = with_paths ? enc.cnf.clauses.size() : enc.base_clauses;
  solver.ensure_vars(with_paths ? enc.cnf.num_vars : enc.base_vars);
  for (std::size_t i = 0; i < n; ++i)
    if (!solver.add_clause(enc.cnf.clauses[i])) break;
  return solver.solve();
}

/// Does the solver's model, decoded into (history, SI, T), expose the fault
/// in a FrameModel built from scratch?
template <class FaultT>
bool model_replays(const CompiledNetlist& compiled, const FaultT& fault,
                   const sat::EncodeOptions& eopt, const sat::MiterEncoding& enc,
                   const sat::Solver& solver) {
  const auto v3 = [&](sat::Var v) { return solver.model_value(v) ? V3::One : V3::Zero; };
  FrameModel fm(compiled, fault, eopt.frames);
  fm.set_state_assignable(eopt.state_assignable);
  if (fm.is_transition())
    fm.set_initial_prev_driven(enc.tf_prev_var ? v3(*enc.tf_prev_var) : eopt.tf_prev_init);
  for (std::size_t f = 0; f < enc.frames; ++f)
    for (std::size_t i = 0; i < enc.num_inputs; ++i)
      fm.assign(f, i, v3(enc.pi_var[f * enc.num_inputs + i]));
  for (std::size_t j = 0; j < enc.state_var.size(); ++j) fm.assign_state(j, v3(enc.state_var[j]));
  fm.simulate();
  return fm.po_detection_frame().has_value() || fm.first_latched_effect().has_value();
}

struct PathTally {
  std::size_t sat = 0, unsat = 0, with_group = 0;
};

template <class FaultT>
void check_active_path(const CompiledNetlist& compiled, const FaultT& fault, bool assignable,
                       const std::string& label, PathTally& tally) {
  for (std::size_t frames = 1; frames <= 3; ++frames) {
    SCOPED_TRACE(label + " frames " + std::to_string(frames));
    sat::EncodeOptions eopt;
    eopt.frames = frames;
    eopt.state_assignable = assignable;
    eopt.tf_prev_assignable = true;  // ignored for stuck-at faults
    const sat::MiterEncoding enc = sat::encode_fault_miter(compiled, fault, eopt);
    if (enc.cnf.clauses.size() > enc.base_clauses) ++tally.with_group;

    sat::Solver plain, extended;
    const sat::SolveStatus want = solve_miter(enc, /*with_paths=*/false, plain);
    const sat::SolveStatus got = solve_miter(enc, /*with_paths=*/true, extended);
    ASSERT_NE(want, sat::SolveStatus::Aborted);
    ASSERT_EQ(got, want) << "the path clauses changed the miter's satisfiability";
    if (got == sat::SolveStatus::Unsat) {
      ++tally.unsat;
      continue;
    }
    ++tally.sat;
    EXPECT_TRUE(model_replays(compiled, fault, eopt, enc, extended))
        << "an extended-miter model does not detect the fault";
  }
}

struct PathCase {
  const char* circuit;
  bool transition;  // every transition fault, else every collapsed stuck-at fault
  bool assignable;  // (SI, T) model, else all-X power-up
};

class SatActivePath : public ::testing::TestWithParam<PathCase> {};

TEST_P(SatActivePath, PathClausesKeepEveryTest) {
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry(GetParam().circuit)));
  const CompiledNetlist compiled(sc.netlist);
  PathTally tally;
  if (GetParam().transition) {
    for (const TransitionFault& fault : enumerate_transition_faults(sc.netlist)) {
      check_active_path(compiled, fault, GetParam().assignable,
                        transition_fault_to_string(sc.netlist, fault), tally);
      if (HasFatalFailure()) return;
    }
  } else {
    const FaultList stuck = FaultList::collapsed(sc.netlist);
    for (const Fault& fault : stuck.faults()) {
      check_active_path(compiled, fault, GetParam().assignable,
                        fault_to_string(sc.netlist, fault), tally);
      if (HasFatalFailure()) return;
    }
  }
  // Tests must occur and the group must be present, or the comparison says
  // nothing. Unsat is not required per case: under the (SI, T) model every
  // s27 fault is testable.
  EXPECT_GT(tally.sat, 0u);
  EXPECT_GT(tally.with_group, 0u);
  RecordProperty("sat", static_cast<int>(tally.sat));
  RecordProperty("unsat", static_cast<int>(tally.unsat));
}

std::vector<PathCase> path_cases() {
  std::vector<PathCase> out;
  for (const char* circuit : {"s27", "b01", "b02", "s208"})
    for (const bool transition : {false, true})
      for (const bool assignable : {true, false}) out.push_back({circuit, transition, assignable});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Circuits, SatActivePath, ::testing::ValuesIn(path_cases()),
                         [](const auto& info) {
                           return std::string(info.param.circuit) +
                                  (info.param.transition ? "_transition" : "_stuck") +
                                  (info.param.assignable ? "_scan_in" : "_power_up");
                         });

}  // namespace
}  // namespace uniscan
