// Compiled flat-memory form of a finalized Netlist.
//
// The simulators' inner loop used to chase a per-gate heap-allocated
// std::vector<GateId> of fanins and re-dispatch on the gate type for every
// evaluation. A CompiledNetlist is a one-time compile of the netlist into
// contiguous structure-of-arrays form:
//
//  * a CSR fanin table (fanin_offsets + flat fanin ids),
//  * a parallel gate-type array,
//  * a level-sorted — and within each level type-sorted — evaluation order,
//    partitioned into homogeneous *type runs* so a whole run is evaluated
//    by one tight loop with the gate function hoisted out of it (no
//    per-gate switch),
//  * a CSR fanout table (the canonical adjacency form; the nested-vector
//    per-gate vector-of-vectors Netlist accessor was removed in its favour).
//
// Any topological order yields the same per-net values, so re-sorting
// within a level by type cannot change results: everything built on the
// kernel stays bit-identical to a per-gate topological loop (DESIGN.md §5e).
//
// build_program() additionally compiles a per-batch *observation cone*: the
// union fanout cone of a fault batch (closed over flip-flop crossings) plus
// its transitive fanin support. Gates outside the cone carry the same value
// in every machine slot at every frame, and gates outside cone ∪ support
// are read by nobody inside it — so a batch advance may skip them entirely,
// cutting gate_evals as well as cost per eval without changing any
// observable result.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/logic3.hpp"
#include "sim/slot_word.hpp"

namespace uniscan {

/// A maximal range of the evaluation order holding gates of one type on one
/// level. `begin`/`end` index the order array the run was built over.
struct TypeRun {
  GateType type;
  std::uint32_t level;
  std::uint32_t begin;
  std::uint32_t end;
};

/// Per-batch evaluation plan produced by CompiledNetlist::build_program().
struct BatchProgram {
  bool pruned = false;
  // Gates to evaluate with the plain (injection-free) kernel, in
  // level-major (level, type, id) order, partitioned into `runs`.
  std::vector<GateId> eval;
  std::vector<TypeRun> runs;
  // Caller's forced-gate list reordered level-ascending; forced gates are
  // excluded from `eval` and must be evaluated individually between the
  // runs of their level and the first run of a higher level.
  std::vector<std::uint32_t> forced_order;
  std::vector<std::uint32_t> forced_level;  // parallel to forced_order
  // Primary outputs that can observe a fault of this batch (all POs when
  // not pruned), in Netlist::outputs() order.
  std::vector<GateId> obs_po;
  // Flip-flops whose next state must be sampled (cone ∪ support), and the
  // subset a fault effect can actually reach (cone) — the only ones that
  // need scanning for latched effects. Both ascending by DFF index.
  std::vector<std::uint32_t> samp_dff;
  std::vector<std::uint32_t> latch_dff;
  std::vector<std::uint8_t> dff_sampled;  // indexed by DFF index
  // Gate evaluations a full (non-early-exit) frame performs.
  std::uint64_t evals_per_frame = 0;
};

class CompiledNetlist {
 public:
  /// Compiles `nl`, which must be finalized and must outlive this object.
  explicit CompiledNetlist(const Netlist& nl);

  const Netlist& netlist() const noexcept { return *nl_; }
  std::size_t num_gates() const noexcept { return type_.size(); }

  GateType type(GateId g) const noexcept { return type_[g]; }
  std::uint32_t level(GateId g) const noexcept { return level_[g]; }

  std::span<const GateId> fanins(GateId g) const noexcept {
    return {fanin_ids_.data() + fanin_off_[g], fanin_off_[g + 1] - fanin_off_[g]};
  }
  std::size_t fanin_count(GateId g) const noexcept { return fanin_off_[g + 1] - fanin_off_[g]; }

  /// Raw CSR fanin arrays, for callers driving detail::eval_type_runs over a
  /// value type the class doesn't provide a kernel for (e.g. the FrameModel's
  /// five-valued pairs).
  const std::uint32_t* fanin_offsets() const noexcept { return fanin_off_.data(); }
  const GateId* fanin_id_data() const noexcept { return fanin_ids_.data(); }

  /// CSR fanout table: every gate reading net `g` (combinational and DFF).
  std::span<const GateId> fanouts(GateId g) const noexcept {
    return {fanout_ids_.data() + fanout_off_[g], fanout_off_[g + 1] - fanout_off_[g]};
  }

  /// Combinational gates in (level, type, id) order.
  const std::vector<GateId>& eval_order() const noexcept { return eval_order_; }
  /// Homogeneous type runs covering eval_order().
  std::span<const TypeRun> runs() const noexcept { return runs_; }

  const std::vector<GateId>& inputs() const noexcept { return inputs_; }
  const std::vector<GateId>& outputs() const noexcept { return outputs_; }
  const std::vector<GateId>& dffs() const noexcept { return dffs_; }
  /// D fanin of each DFF, indexed like dffs().
  const std::vector<GateId>& dff_d() const noexcept { return dff_d_; }

  /// Evaluate the whole combinational core (boundary values already loaded
  /// into `values`, indexed by GateId) with the type-run kernel.
  void eval_full_v3(V3* values) const noexcept;
  void eval_full_w3(W3* values) const noexcept;

  /// Evaluate type runs built over an arbitrary `order` array (e.g. a batch
  /// program's pruned evaluation list) with the same kernel.
  void eval_runs_v3(std::span<const TypeRun> runs, const GateId* order, V3* values) const noexcept;
  void eval_runs_w3(std::span<const TypeRun> runs, const GateId* order, W3* values) const noexcept;

  /// Width-generic form of eval_runs_w3: the same type-run kernel over any
  /// slot word (see sim/slot_word.hpp). Defined after detail::eval_type_runs.
  template <class Word>
  void eval_runs_w3t(std::span<const TypeRun> runs, const GateId* order,
                     W3T<Word>* values) const noexcept;

  /// Compile a batch plan. `sites` are the gates where fault effects enter
  /// the circuit (the faulted gate itself, for stems and branches alike);
  /// `forced` are the combinational gates that need individual evaluation
  /// because an injection applies to them (deduplicated by the caller).
  /// With prune=false (or no sites) the plan covers the full core.
  BatchProgram build_program(std::span<const GateId> sites, std::span<const GateId> forced,
                             bool prune) const;

 private:
  const Netlist* nl_;
  std::vector<GateType> type_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> fanin_off_;
  std::vector<GateId> fanin_ids_;
  std::vector<std::uint32_t> fanout_off_;
  std::vector<GateId> fanout_ids_;
  std::vector<GateId> eval_order_;
  std::vector<TypeRun> runs_;
  std::vector<GateId> inputs_, outputs_, dffs_, dff_d_;
};

namespace detail {

/// Build maximal homogeneous (level, type) runs over `order`.
std::vector<TypeRun> build_type_runs(std::span<const GateId> order,
                                     std::span<const GateType> type,
                                     std::span<const std::uint32_t> level);

/// Evaluate homogeneous type runs over flat arrays. Ops supplies the value
/// type and the logic primitives; the type dispatch happens once per run,
/// the per-gate loop reads fanins straight out of the CSR table.
template <typename Ops>
inline void eval_type_runs(std::span<const TypeRun> runs, const GateId* order,
                           const std::uint32_t* fanin_off, const GateId* fanin_ids,
                           typename Ops::value* v) noexcept {
  using T = typename Ops::value;
  for (const TypeRun& r : runs) {
    switch (r.type) {
      case GateType::Buf:
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          const GateId g = order[i];
          v[g] = v[fanin_ids[fanin_off[g]]];
        }
        break;
      case GateType::Not:
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          const GateId g = order[i];
          v[g] = Ops::not_(v[fanin_ids[fanin_off[g]]]);
        }
        break;
      case GateType::And:
      case GateType::Nand: {
        const bool invert = r.type == GateType::Nand;
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          const GateId g = order[i];
          const std::uint32_t lo = fanin_off[g], hi = fanin_off[g + 1];
          T acc = v[fanin_ids[lo]];
          for (std::uint32_t k = lo + 1; k < hi; ++k) acc = Ops::and_(acc, v[fanin_ids[k]]);
          v[g] = invert ? Ops::not_(acc) : acc;
        }
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        const bool invert = r.type == GateType::Nor;
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          const GateId g = order[i];
          const std::uint32_t lo = fanin_off[g], hi = fanin_off[g + 1];
          T acc = v[fanin_ids[lo]];
          for (std::uint32_t k = lo + 1; k < hi; ++k) acc = Ops::or_(acc, v[fanin_ids[k]]);
          v[g] = invert ? Ops::not_(acc) : acc;
        }
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        const bool invert = r.type == GateType::Xnor;
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          const GateId g = order[i];
          const std::uint32_t lo = fanin_off[g], hi = fanin_off[g + 1];
          T acc = v[fanin_ids[lo]];
          for (std::uint32_t k = lo + 1; k < hi; ++k) acc = Ops::xor_(acc, v[fanin_ids[k]]);
          v[g] = invert ? Ops::not_(acc) : acc;
        }
        break;
      }
      case GateType::Mux2:
        for (std::uint32_t i = r.begin; i < r.end; ++i) {
          const GateId g = order[i];
          const std::uint32_t lo = fanin_off[g];
          v[g] = Ops::mux(v[fanin_ids[lo]], v[fanin_ids[lo + 1]], v[fanin_ids[lo + 2]]);
        }
        break;
      case GateType::Const0:
        for (std::uint32_t i = r.begin; i < r.end; ++i) v[order[i]] = Ops::zero();
        break;
      case GateType::Const1:
        for (std::uint32_t i = r.begin; i < r.end; ++i) v[order[i]] = Ops::one();
        break;
      case GateType::Input:
      case GateType::Dff:
        break;  // boundary gates never appear in an evaluation order
    }
  }
}

struct V3Ops {
  using value = V3;
  static V3 not_(V3 a) noexcept { return v3_not(a); }
  static V3 and_(V3 a, V3 b) noexcept { return v3_and(a, b); }
  static V3 or_(V3 a, V3 b) noexcept { return v3_or(a, b); }
  static V3 xor_(V3 a, V3 b) noexcept { return v3_xor(a, b); }
  static V3 mux(V3 d0, V3 d1, V3 s) noexcept { return v3_mux(d0, d1, s); }
  static V3 zero() noexcept { return V3::Zero; }
  static V3 one() noexcept { return V3::One; }
};

/// Logic primitives over any slot width; the uint64_t instantiation is the
/// historical W3Ops.
template <class Word>
struct W3OpsT {
  using value = W3T<Word>;
  static value not_(value a) noexcept { return w3_not(a); }
  static value and_(value a, value b) noexcept { return w3_and(a, b); }
  static value or_(value a, value b) noexcept { return w3_or(a, b); }
  static value xor_(value a, value b) noexcept { return w3_xor(a, b); }
  static value mux(value d0, value d1, value s) noexcept { return w3_mux(d0, d1, s); }
  static value zero() noexcept { return value::all_zero(); }
  static value one() noexcept { return value::all_one(); }
};

using W3Ops = W3OpsT<std::uint64_t>;

}  // namespace detail

template <class Word>
inline void CompiledNetlist::eval_runs_w3t(std::span<const TypeRun> runs, const GateId* order,
                                           W3T<Word>* values) const noexcept {
  detail::eval_type_runs<detail::W3OpsT<Word>>(runs, order, fanin_off_.data(), fanin_ids_.data(),
                                               values);
}

}  // namespace uniscan
