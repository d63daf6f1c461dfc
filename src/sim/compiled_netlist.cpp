#include "sim/compiled_netlist.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace uniscan {

namespace detail {

std::vector<TypeRun> build_type_runs(std::span<const GateId> order,
                                     std::span<const GateType> type,
                                     std::span<const std::uint32_t> level) {
  std::vector<TypeRun> runs;
  std::uint32_t i = 0;
  const std::uint32_t n = static_cast<std::uint32_t>(order.size());
  while (i < n) {
    const GateType t = type[order[i]];
    const std::uint32_t lv = level[order[i]];
    std::uint32_t j = i + 1;
    while (j < n && type[order[j]] == t && level[order[j]] == lv) ++j;
    runs.push_back(TypeRun{t, lv, i, j});
    i = j;
  }
  return runs;
}

}  // namespace detail

CompiledNetlist::CompiledNetlist(const Netlist& nl) : nl_(&nl) {
  if (!nl.is_finalized()) throw std::invalid_argument("CompiledNetlist: netlist not finalized");

  const std::size_t n = nl.num_gates();
  type_.resize(n);
  level_ = nl.levels();
  fanin_off_.assign(n + 1, 0);
  for (GateId g = 0; g < n; ++g) {
    type_[g] = nl.gate(g).type;
    fanin_off_[g + 1] = fanin_off_[g] + static_cast<std::uint32_t>(nl.gate(g).fanins.size());
  }
  fanin_ids_.reserve(fanin_off_[n]);
  for (GateId g = 0; g < n; ++g)
    fanin_ids_.insert(fanin_ids_.end(), nl.gate(g).fanins.begin(), nl.gate(g).fanins.end());

  // Fanout CSR by counting sort over the fanin table: gate g appears in the
  // fanout row of each of its fanins. Rows come out sorted by reader id.
  fanout_off_.assign(n + 1, 0);
  for (const GateId f : fanin_ids_) ++fanout_off_[f + 1];
  for (std::size_t g = 1; g <= n; ++g) fanout_off_[g] += fanout_off_[g - 1];
  fanout_ids_.resize(fanin_ids_.size());
  {
    std::vector<std::uint32_t> cursor(fanout_off_.begin(), fanout_off_.end() - 1);
    for (GateId g = 0; g < n; ++g)
      for (const GateId f : fanins(g)) fanout_ids_[cursor[f]++] = g;
  }

  // Evaluation order: the combinational core sorted by (level, type, id).
  // nl.topo_order() is already (level, id)-sorted; the extra type key keeps
  // topological validity (no combinational edges within a level) while
  // making homogeneous runs maximal.
  eval_order_ = nl.topo_order();
  std::stable_sort(eval_order_.begin(), eval_order_.end(), [this](GateId a, GateId b) {
    if (level_[a] != level_[b]) return level_[a] < level_[b];
    if (type_[a] != type_[b]) return type_[a] < type_[b];
    return a < b;
  });

  runs_ = detail::build_type_runs(eval_order_, type_, level_);

  inputs_ = nl.inputs();
  outputs_ = nl.outputs();
  dffs_ = nl.dffs();
  dff_d_.reserve(dffs_.size());
  for (const GateId d : dffs_) dff_d_.push_back(nl.gate(d).fanins.empty() ? kNoGate : nl.gate(d).fanins[0]);
}

void CompiledNetlist::eval_full_v3(V3* values) const noexcept {
  detail::eval_type_runs<detail::V3Ops>(runs_, eval_order_.data(), fanin_off_.data(),
                                        fanin_ids_.data(), values);
}

void CompiledNetlist::eval_full_w3(W3* values) const noexcept {
  detail::eval_type_runs<detail::W3Ops>(runs_, eval_order_.data(), fanin_off_.data(),
                                        fanin_ids_.data(), values);
}

void CompiledNetlist::eval_runs_v3(std::span<const TypeRun> runs, const GateId* order,
                                   V3* values) const noexcept {
  detail::eval_type_runs<detail::V3Ops>(runs, order, fanin_off_.data(), fanin_ids_.data(), values);
}

void CompiledNetlist::eval_runs_w3(std::span<const TypeRun> runs, const GateId* order,
                                   W3* values) const noexcept {
  detail::eval_type_runs<detail::W3Ops>(runs, order, fanin_off_.data(), fanin_ids_.data(), values);
}

BatchProgram CompiledNetlist::build_program(std::span<const GateId> sites,
                                            std::span<const GateId> forced, bool prune) const {
  BatchProgram p;
  const std::size_t n = num_gates();
  // An empty batch (the good-machine runner) has no cone; it must still
  // produce full good values, so pruning is disabled for it.
  p.pruned = prune && !sites.empty();

  // needed[g]: gate must be evaluated (comb) or sampled (DFF) each frame.
  // cone[g]: a fault effect can reach g — only these POs/DFFs can observe.
  std::vector<std::uint8_t> cone, needed;
  if (p.pruned) {
    cone.assign(n, 0);
    // Forward closure of the fault sites over fanout edges. DFF crossings
    // are included: an effect latched into a DFF re-enters through its Q
    // output in later frames, so the cone is frame-independent.
    std::vector<GateId> stack(sites.begin(), sites.end());
    for (const GateId s : sites) cone[s] = 1;
    while (!stack.empty()) {
      const GateId g = stack.back();
      stack.pop_back();
      for (const GateId r : fanouts(g))
        if (!cone[r]) {
          cone[r] = 1;
          stack.push_back(r);
        }
    }
    // Backward support: every net read while evaluating a cone gate (or
    // sampling a cone DFF) must hold its correct good value, and therefore
    // so must its own transitive fanins. Inputs/DFF Q values are frame
    // boundary values; a support DFF must be *sampled* each frame so its
    // next-frame Q is fresh.
    needed = cone;
    std::vector<GateId> bstack;
    for (GateId g = 0; g < n; ++g)
      if (cone[g])
        for (const GateId f : fanins(g))
          if (!needed[f]) {
            needed[f] = 1;
            bstack.push_back(f);
          }
    while (!bstack.empty()) {
      const GateId g = bstack.back();
      bstack.pop_back();
      for (const GateId f : fanins(g))
        if (!needed[f]) {
          needed[f] = 1;
          bstack.push_back(f);
        }
    }
  }

  const auto in_plan = [&](GateId g) { return !p.pruned || needed[g]; };

  std::vector<std::uint8_t> is_forced(n, 0);
  for (const GateId g : forced) is_forced[g] = 1;

  p.eval.reserve(p.pruned ? 0 : eval_order_.size());
  for (const GateId g : eval_order_)
    if (in_plan(g) && !is_forced[g]) p.eval.push_back(g);
  p.runs = detail::build_type_runs(p.eval, type_, level_);

  // Forced gates sorted level-ascending (stable on caller order). They are
  // always evaluated — an injection site is a fault site, hence in-cone.
  std::vector<std::uint32_t> fidx(forced.size());
  for (std::uint32_t i = 0; i < forced.size(); ++i) fidx[i] = i;
  std::stable_sort(fidx.begin(), fidx.end(), [&](std::uint32_t a, std::uint32_t b) {
    return level_[forced[a]] < level_[forced[b]];
  });
  p.forced_order = std::move(fidx);
  p.forced_level.reserve(forced.size());
  for (const std::uint32_t i : p.forced_order) p.forced_level.push_back(level_[forced[i]]);

  for (const GateId po : outputs_)
    if (!p.pruned || cone[po]) p.obs_po.push_back(po);

  p.dff_sampled.assign(dffs_.size(), 0);
  for (std::uint32_t j = 0; j < dffs_.size(); ++j) {
    const GateId d = dffs_[j];
    if (in_plan(d)) {
      p.samp_dff.push_back(j);
      p.dff_sampled[j] = 1;
    }
    if (!p.pruned || cone[d]) p.latch_dff.push_back(j);
  }

  p.evals_per_frame = p.eval.size() + forced.size();
  return p;
}

std::shared_ptr<const CompiledNetlist> Netlist::compiled_shared() const {
  std::lock_guard<std::mutex> lock(compiled_slot_.mutex);
  if (!compiled_slot_.ptr) {
    compiled_slot_.ptr = std::make_shared<const CompiledNetlist>(*this);
  }
  return compiled_slot_.ptr;
}

}  // namespace uniscan
