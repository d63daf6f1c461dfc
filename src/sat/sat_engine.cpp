#include "sat/sat_engine.hpp"

#include <cstddef>
#include <utility>

#include "atpg/frame_model.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sat/encode.hpp"

namespace uniscan::sat {
namespace {

/// Replay a model through the FrameModel pair simulator and finish exactly
/// like PODEM's ScanObserve: prefer the PO observation when it is no later
/// than the latched one, else take the latch. Returns false (degrading the
/// call to Aborted) if the model does not actually expose the fault — which
/// by the encoding's construction would be an encoder bug, never a caller
/// problem.
bool confirm_and_fill(FrameModel& fm, const MiterEncoding& enc, const Solver& solver,
                      bool state_assignable, SatResult& out) {
  for (std::size_t f = 0; f < enc.frames; ++f)
    for (std::size_t i = 0; i < enc.num_inputs; ++i)
      fm.assign(f, i,
                solver.model_value(enc.pi_var[f * enc.num_inputs + i]) ? V3::One : V3::Zero);
  if (state_assignable)
    for (std::size_t j = 0; j < enc.num_dffs; ++j)
      fm.assign_state(j, solver.model_value(enc.state_var[j]) ? V3::One : V3::Zero);
  fm.simulate();

  const auto po = fm.po_detection_frame();
  const auto latch = fm.first_latched_effect();
  if (po && (!latch || *po <= latch->frame)) {
    out.observed_at_po = true;
    out.frames_used = *po + 1;
  } else if (latch) {
    out.observed_at_po = false;
    out.latched_dff = latch->dff_index;
    out.frames_used = latch->frame + 1;
  } else {
    return false;
  }
  if (state_assignable) out.scan_in = fm.extract_state_assignment();
  out.subsequence = fm.extract_sequence(out.frames_used);
  return true;
}

/// Load clauses [0, num_clauses) over vars [0, num_vars) of `cnf` into a
/// fresh solver and solve them.
SolveStatus solve_prefix(const Cnf& cnf, Var num_vars, std::size_t num_clauses,
                         const SolverOptions& sopt, Solver& solver) {
  solver.ensure_vars(num_vars);
  for (std::size_t i = 0; i < num_clauses; ++i)
    if (!solver.add_clause(cnf.clauses[i])) break;  // UNSAT at top level; solve() reports it
  return solver.solve(sopt);
}

template <class FaultT>
SatResult prove_impl(const CompiledNetlist& cnl, const FaultT& fault,
                     const SatEngineOptions& options) {
  obs::TraceSpan span("sat_prove");
  SatResult out;

  // PR 4 invariant up front: a call that is already cancelled proves
  // nothing, even when the miter would be structurally UNSAT.
  if (options.cancel.poll()) return out;

  EncodeOptions eopt;
  eopt.frames = options.frames;
  eopt.state_assignable = options.state_assignable;
  eopt.tf_prev_init = options.tf_prev_init;
  eopt.tf_prev_assignable = options.tf_prev_assignable;
  MiterEncoding enc = encode_fault_miter(cnl, fault, eopt);

  if (enc.cnf.has_empty_clause) {
    // No observation point is reachable from the fault at this depth (or no
    // frame's fault site can differ): the miter is UNSAT by construction,
    // certificate = the empty clause itself.
    out.verdict = SatVerdict::RedundantProved;
    if (options.want_certificate)
      out.certificate = UnsatCertificate{enc.cnf.num_vars, enc.cnf.clauses, {Clause{}}};
    return out;
  }

  SolverOptions sopt;
  sopt.max_conflicts = options.max_conflicts;
  sopt.cancel = options.cancel;
  sopt.record_proof = options.want_certificate;
  const auto record_work = [&](const Solver& stage) {
    const SolverStats& st = stage.stats();
    out.stats += st;
    obs::count(obs::Counter::SatConflicts, st.conflicts);
    obs::count(obs::Counter::SatDecisions, st.decisions);
    obs::count(obs::Counter::SatPropagations, st.propagations);
  };

  // Stage 1: base miter plus the active-path group. Only an Unsat is used:
  // the group keeps satisfiability but changes which model the solver finds,
  // and tests must stay those of the plain miter.
  if (enc.cnf.clauses.size() > enc.base_clauses) {
    Solver path;
    const SolveStatus status =
        solve_prefix(enc.cnf, enc.cnf.num_vars, enc.cnf.clauses.size(), sopt, path);
    record_work(path);
    if (status == SolveStatus::Unsat) {
      out.verdict = SatVerdict::RedundantProved;
      if (options.want_certificate)
        out.certificate = UnsatCertificate{enc.cnf.num_vars, enc.cnf.clauses, path.proof()};
      return out;
    }
  }

  // Stage 2: the base miter alone, solved exactly as without the group.
  obs::count(obs::Counter::SatPlainSolves);
  Solver solver;
  const SolveStatus status = solve_prefix(enc.cnf, enc.base_vars, enc.base_clauses, sopt, solver);
  record_work(solver);

  switch (status) {
    case SolveStatus::Aborted: return out;
    case SolveStatus::Unsat:
      out.verdict = SatVerdict::RedundantProved;
      if (options.want_certificate) {
        const auto first = enc.cnf.clauses.begin();
        out.certificate = UnsatCertificate{
            enc.base_vars,
            {first, first + static_cast<std::ptrdiff_t>(enc.base_clauses)},
            solver.proof()};
      }
      return out;
    case SolveStatus::Sat: break;
  }

  FrameModel fm(cnl, fault, options.frames);
  fm.set_state_assignable(options.state_assignable);
  if (fm.is_transition()) {
    out.launch_prev = enc.tf_prev_var
                          ? (solver.model_value(*enc.tf_prev_var) ? V3::One : V3::Zero)
                          : options.tf_prev_init;
    fm.set_initial_prev_driven(out.launch_prev);
  }
  if (confirm_and_fill(fm, enc, solver, options.state_assignable, out))
    out.verdict = SatVerdict::Testable;
  return out;
}

}  // namespace

SatResult SatEngine::prove(const Fault& fault, const SatEngineOptions& options) const {
  return prove_impl(*cnl_, fault, options);
}

SatResult SatEngine::prove(const TransitionFault& fault, const SatEngineOptions& options) const {
  return prove_impl(*cnl_, fault, options);
}

}  // namespace uniscan::sat
