// Independent replay checker for the SAT engine's UNSAT certificates
// (sat/certificate.hpp). The checker here shares NO code with the solver:
// it is a plain repeat-until-fixpoint unit-propagation loop, so a valid
// certificate is evidence of unsatisfiability that does not rest on any
// solver invariant. Tampered certificates — a flipped literal, a dropped
// step, a missing final empty clause, removed originals — must be rejected.
#include "sat/certificate.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/builder.hpp"
#include "sat/encode.hpp"
#include "sat/sat_engine.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/compiled_netlist.hpp"
#include "workloads/suite.hpp"

namespace uniscan::sat {
namespace {

/// Does `step` hold by reverse unit propagation over `db`? Assume the
/// negation of every literal of `step` as a unit, then unit propagate over
/// `db` until fixpoint; the step holds iff propagation derives a conflict.
bool rup_holds(const std::vector<Clause>& db, const Clause& step, std::size_t num_vars) {
  // -1 = unassigned, 0 = false, 1 = true.
  std::vector<std::int8_t> val(num_vars, -1);
  for (const Lit l : step) {
    const std::int8_t want = l.sign() ? 1 : 0;  // negation of the literal
    if (val[l.var()] == -1) {
      val[l.var()] = want;
    } else if (val[l.var()] != want) {
      return true;  // the negated step is itself contradictory
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Clause& c : db) {
      std::size_t unassigned = 0;
      Lit last = kLitUndef;
      bool satisfied = false;
      for (const Lit l : c) {
        const std::int8_t v = val[l.var()];
        if (v == -1) {
          ++unassigned;
          last = l;
        } else if (v == (l.sign() ? 0 : 1)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      if (unassigned == 0) return true;  // conflict
      if (unassigned == 1) {
        val[last.var()] = last.sign() ? 0 : 1;
        changed = true;
      }
    }
  }
  return false;  // fixpoint without conflict: the step is not RUP-implied
}

/// Full certificate check: every step must be RUP w.r.t. the originals plus
/// all previously accepted steps, and the derivation must end with the
/// empty clause.
bool check_certificate(const UnsatCertificate& cert) {
  if (cert.steps.empty() || !cert.steps.back().empty()) return false;
  std::vector<Clause> db = cert.clauses;
  for (const Clause& step : cert.steps) {
    for (const Lit l : step)
      if (l.var() >= cert.num_vars) return false;  // out-of-range literal
    if (!rup_holds(db, step, cert.num_vars)) return false;
    db.push_back(step);
  }
  return true;
}

/// A circuit with a known-redundant node (same shape as redundancy_test):
/// g = OR(a, NOT(a)) is constant 1, so g s-a-1 is untestable.
Netlist redundant_circuit() {
  NetlistBuilder b("red");
  const GateId a = b.input("a");
  const GateId bpin = b.input("b");
  const GateId n = b.not_("n", a);
  const GateId g = b.or_("g", {a, n});
  const GateId o = b.and_("o", {g, bpin});
  const GateId f = b.dff("f", o);
  const GateId out = b.buf("out", f);
  b.output(out);
  return b.build();
}

UnsatCertificate engine_certificate() {
  const ScanCircuit sc = insert_scan(redundant_circuit());
  const CompiledNetlist compiled(sc.netlist);
  const SatEngine engine(compiled);
  const Fault f{*sc.netlist.find("g"), kStemPin, true};
  SatEngineOptions opt;
  opt.want_certificate = true;
  const SatResult r = engine.prove(f, opt);
  EXPECT_EQ(r.verdict, SatVerdict::RedundantProved);
  EXPECT_TRUE(r.certificate.has_value());
  return r.certificate ? *r.certificate : UnsatCertificate{};
}

/// A certificate with real learned steps: PHP(n+1, n) has no unit clauses,
/// so the solver must learn its way to the empty clause and the recorded
/// proof has intermediate additions worth tampering with.
UnsatCertificate pigeonhole_certificate(std::size_t holes) {
  Solver s;
  const std::size_t pigeons = holes + 1;
  const auto var_of = [&](std::size_t p, std::size_t h) {
    return static_cast<Var>(p * holes + h);
  };
  UnsatCertificate cert;
  cert.num_vars = pigeons * holes;
  s.ensure_vars(static_cast<Var>(cert.num_vars));
  for (std::size_t p = 0; p < pigeons; ++p) {
    Clause c;
    for (std::size_t h = 0; h < holes; ++h) c.push_back(lit(var_of(p, h)));
    cert.clauses.push_back(c);
    s.add_clause(std::move(c));
  }
  for (std::size_t h = 0; h < holes; ++h)
    for (std::size_t p1 = 0; p1 + 1 < pigeons; ++p1)
      for (std::size_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        Clause c{lit(var_of(p1, h), true), lit(var_of(p2, h), true)};
        cert.clauses.push_back(c);
        s.add_clause(std::move(c));
      }
  SolverOptions opt;
  opt.record_proof = true;
  EXPECT_EQ(s.solve(opt), SolveStatus::Unsat);
  cert.steps = s.proof();
  return cert;
}

TEST(SatCertificate, HandCraftedRupChainValidates) {
  // (a|b) (a|~b) (~a|c) (~a|~c) is UNSAT; derive a, then empty.
  UnsatCertificate cert;
  cert.num_vars = 3;
  cert.clauses = {{lit(0), lit(1)},
                  {lit(0), lit(1, true)},
                  {lit(0, true), lit(2)},
                  {lit(0, true), lit(2, true)}};
  cert.steps = {{lit(0)}, {}};
  EXPECT_TRUE(check_certificate(cert));
}

TEST(SatCertificate, NonImpliedStepRejected) {
  UnsatCertificate cert;
  cert.num_vars = 3;
  cert.clauses = {{lit(0), lit(1)}};
  cert.steps = {{lit(2)}, {}};  // nothing implies c, let alone empty
  EXPECT_FALSE(check_certificate(cert));
}

TEST(SatCertificate, EngineCertificateValidates) {
  const UnsatCertificate cert = engine_certificate();
  ASSERT_FALSE(cert.steps.empty());
  EXPECT_TRUE(check_certificate(cert));
}

TEST(SatCertificate, ActivePathStageCertificateValidates) {
  // b02's g9 input-2 stuck-at-1 at depth 2 is refuted by the first solve
  // stage, the miter plus its active-path clauses, and only after the
  // solver learns clauses. Its certificate must carry both clause groups as
  // originals and still pass the independent checker.
  const ScanCircuit sc = insert_scan(load_circuit(*find_suite_entry("b02")));
  const CompiledNetlist compiled(sc.netlist);
  const Fault fault{*sc.netlist.find("g9"), 2, true};
  SatEngineOptions opt;
  opt.frames = 2;
  opt.want_certificate = true;
  const SatResult r = SatEngine(compiled).prove(fault, opt);
  ASSERT_EQ(r.verdict, SatVerdict::RedundantProved);
  ASSERT_TRUE(r.certificate.has_value());

  EncodeOptions eopt;
  eopt.frames = 2;
  const MiterEncoding enc = encode_fault_miter(compiled, fault, eopt);
  ASSERT_GT(enc.cnf.clauses.size(), enc.base_clauses);
  EXPECT_EQ(r.certificate->clauses.size(), enc.cnf.clauses.size())
      << "the path stage did not decide this fault";
  EXPECT_EQ(r.certificate->num_vars, enc.cnf.num_vars);
  EXPECT_GT(r.certificate->steps.size(), 1u) << "the proof should have learned steps";
  EXPECT_TRUE(check_certificate(*r.certificate));
}

TEST(SatCertificate, SolverProofOnPigeonholeValidates) {
  const UnsatCertificate cert = pigeonhole_certificate(4);
  ASSERT_GT(cert.steps.size(), 1u) << "PHP proof should have learned steps";
  EXPECT_TRUE(check_certificate(cert));
}

TEST(SatCertificate, TamperedLiteralRejected) {
  const UnsatCertificate cert = pigeonhole_certificate(4);
  ASSERT_GT(cert.steps.size(), 1u);
  // Flipping one literal of one step must break at least one link of the
  // chain — either the mutated step is no longer implied, or a later step
  // relied on the original. Require a rejection for a clear majority of
  // single-literal flips (some flips can coincidentally stay RUP).
  std::size_t rejected = 0, tried = 0;
  for (std::size_t si = 0; si < cert.steps.size() && tried < 12; ++si) {
    if (cert.steps[si].empty()) continue;
    UnsatCertificate mutated = cert;
    mutated.steps[si][0] = ~mutated.steps[si][0];
    ++tried;
    if (!check_certificate(mutated)) ++rejected;
  }
  ASSERT_GT(tried, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(SatCertificate, DroppedStepRejected) {
  const UnsatCertificate cert = pigeonhole_certificate(4);
  ASSERT_GT(cert.steps.size(), 1u);
  // Removing a non-final step breaks the chain unless propagation happens
  // to bridge the gap; across all removals at least one must be rejected.
  bool any_rejected = false;
  for (std::size_t drop = 0; drop + 1 < cert.steps.size(); ++drop) {
    UnsatCertificate mutated = cert;
    mutated.steps.erase(mutated.steps.begin() + static_cast<std::ptrdiff_t>(drop));
    if (!check_certificate(mutated)) any_rejected = true;
  }
  EXPECT_TRUE(any_rejected);
}

TEST(SatCertificate, MissingEmptyClauseRejected) {
  UnsatCertificate cert = pigeonhole_certificate(4);
  ASSERT_FALSE(cert.steps.empty());
  cert.steps.pop_back();
  EXPECT_FALSE(check_certificate(cert));
}

TEST(SatCertificate, ClearedOriginalsRejected) {
  UnsatCertificate cert = engine_certificate();
  ASSERT_FALSE(cert.steps.empty());
  cert.clauses.clear();  // without the originals nothing is implied
  EXPECT_FALSE(check_certificate(cert));
}

TEST(SatCertificate, OutOfRangeLiteralRejected) {
  UnsatCertificate cert;
  cert.num_vars = 1;
  cert.clauses = {{lit(0)}, {lit(0, true)}};
  cert.steps = {{lit(5)}, {}};
  EXPECT_FALSE(check_certificate(cert));
}

}  // namespace
}  // namespace uniscan::sat
