// In-repo CDCL SAT solver (MiniSat-style, no external dependencies).
//
// The standard modern-CDCL loop: unit propagation over two-watched-literal
// lists with blocker literals, first-UIP conflict analysis with local
// clause minimization, VSIDS branching with phase saving, Luby restarts,
// and activity-driven learnt-clause database reduction. Everything is
// deterministic — no randomization, no timers — so a solve is a pure
// function of (clauses, options) and verdicts are bit-identical across
// thread counts and runs, like every other engine in the repo.
//
// Budgets follow the PR 4 cancellation contract: a solve cut short by the
// conflict budget or the CancelToken returns Aborted, never Unsat — an
// aborted search proves nothing. With record_proof, an Unsat result carries
// an addition-only RUP trace (sat/certificate.hpp): every learned clause in
// chronological order, ending with the empty clause.
#pragma once

#include <cstdint>
#include <vector>

#include "sat/cnf.hpp"
#include "util/cancel.hpp"

namespace uniscan::sat {

enum class SolveStatus : std::uint8_t {
  Sat,      // a model exists (read it via model_value)
  Unsat,    // proved: no model (proof() holds the RUP trace when recorded)
  Aborted,  // conflict budget or CancelToken fired before an answer
};

struct SolverOptions {
  /// Conflict budget; < 0 means unlimited. Exhausting it yields Aborted.
  std::int64_t max_conflicts = -1;
  /// Cooperative deadline (DESIGN.md §5f), polled at stride on conflicts.
  CancelToken cancel;
  /// Record the addition-only RUP proof trace for Unsat results.
  bool record_proof = false;
};

struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;  // literals propagated
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;       // learnt clauses added
  std::uint64_t removed = 0;       // learnt clauses dropped by DB reduction

  SolverStats& operator+=(const SolverStats& o) noexcept {
    conflicts += o.conflicts;
    decisions += o.decisions;
    propagations += o.propagations;
    restarts += o.restarts;
    learned += o.learned;
    removed += o.removed;
    return *this;
  }
};

class Solver {
 public:
  Solver() = default;

  Var new_var();
  /// Grow the variable set so every Var < n exists (encoder handoff).
  void ensure_vars(Var n);
  std::size_t num_vars() const noexcept { return assign_.size(); }

  /// Add a problem clause (top level only, before/between solves). Returns
  /// false once the formula is UNSAT at the top level.
  bool add_clause(Clause c);

  /// Solve the current formula. May be called again after Aborted with a
  /// larger budget; learnt clauses are kept.
  SolveStatus solve(const SolverOptions& options = {});

  /// Model polarity of `v`; valid after a Sat result.
  bool model_value(Var v) const { return model_[v] == 0; }

  const SolverStats& stats() const noexcept { return stats_; }

  /// Learned-clause additions in chronological order; after an Unsat solve
  /// with record_proof the last entry is the empty clause.
  const std::vector<Clause>& proof() const noexcept { return proof_; }

 private:
  struct Watcher {
    std::uint32_t cref;
    Lit blocker;
  };
  struct InternalClause {
    std::vector<Lit> lits;
    double act = 0;
    bool learnt = false;
    bool deleted = false;
  };

  static constexpr std::uint32_t kNoClause = 0xffffffffu;
  static constexpr std::uint8_t kTrue = 0, kFalse = 1, kUndef = 2;

  std::uint8_t value(Lit l) const noexcept {
    const std::uint8_t a = assign_[l.var()];
    return a == kUndef ? kUndef : static_cast<std::uint8_t>(a ^ (l.sign() ? 1 : 0));
  }
  std::uint32_t decision_level() const noexcept {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }

  void attach(std::uint32_t cref);
  void detach(std::uint32_t cref);
  void unchecked_enqueue(Lit p, std::uint32_t reason);
  std::uint32_t propagate();
  void analyze(std::uint32_t confl, Clause& out_learnt, std::uint32_t& out_btlevel);
  bool lit_redundant_local(Lit p, const Clause& learnt) const;
  void cancel_until(std::uint32_t level);
  void reduce_db();
  void record_step(Clause c);

  // VSIDS order heap (max-heap on activity_).
  bool heap_contains(Var v) const noexcept { return heap_pos_[v] != 0xffffffffu; }
  void heap_insert(Var v);
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  Var heap_pop();
  void bump_var(Var v);
  void bump_clause(InternalClause& c);

  std::vector<InternalClause> clauses_;
  std::vector<std::uint32_t> learnt_refs_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()
  std::vector<std::uint8_t> assign_;           // per var: kTrue/kFalse/kUndef
  std::vector<std::uint8_t> model_;            // last Sat assignment
  std::vector<std::uint8_t> phase_;            // saved polarity (0 = true)
  std::vector<double> activity_;
  std::vector<std::uint32_t> reason_;
  std::vector<std::uint32_t> level_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<Var> heap_;
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint8_t> seen_;
  std::vector<Var> removed_;  // scratch for analyze() minimization cleanup
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  bool ok_ = true;
  bool record_proof_ = false;
  SolverStats stats_;
  std::vector<Clause> proof_;
};

}  // namespace uniscan::sat
