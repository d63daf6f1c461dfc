#include "netlist/netlist.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>

namespace uniscan {

namespace {
[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error("netlist: " + msg); }
}  // namespace

void Netlist::check_not_finalized(const char* op) const {
  if (finalized_) fail(std::string(op) + " called on a finalized netlist");
}

std::uint32_t Netlist::name_tag(std::string_view name) noexcept {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

std::size_t Netlist::probe(std::string_view name, std::uint32_t tag) const noexcept {
  const std::size_t mask = by_name_.size() - 1;
  for (std::size_t i = tag & mask;; i = (i + 1) & mask) {
    const NameSlot& slot = by_name_[i];
    if (slot.id == kNoGate || (slot.tag == tag && gates_[slot.id].name == name)) return i;
  }
}

void Netlist::grow_names(std::size_t min_slots) {
  std::size_t size = std::max<std::size_t>(by_name_.size(), 16);
  while (size < min_slots) size *= 2;
  if (size == by_name_.size()) return;
  std::vector<NameSlot> old(size);
  old.swap(by_name_);
  const std::size_t mask = size - 1;
  for (const NameSlot& slot : old) {
    if (slot.id == kNoGate) continue;
    std::size_t i = slot.tag & mask;
    while (by_name_[i].id != kNoGate) i = (i + 1) & mask;
    by_name_[i] = slot;
  }
}

GateId Netlist::add_raw(GateType type, std::string net_name, std::vector<GateId> fanins) {
  check_not_finalized("add");
  if (net_name.empty()) fail("empty net name");
  const GateId id = static_cast<GateId>(gates_.size());
  if (2 * (gates_.size() + 1) > by_name_.size()) grow_names(2 * (gates_.size() + 1));
  const std::uint32_t tag = name_tag(net_name);
  const std::size_t slot = probe(net_name, tag);
  if (by_name_[slot].id != kNoGate) fail("duplicate net name '" + net_name + "'");
  gates_.push_back(Gate{type, std::move(fanins), std::move(net_name)});
  output_index_.push_back(kNoIndex);
  dff_index_.push_back(kNoIndex);
  by_name_[slot] = NameSlot{tag, id};
  return id;
}

void Netlist::reserve(std::size_t num_gates) {
  gates_.reserve(num_gates);
  output_index_.reserve(num_gates);
  dff_index_.reserve(num_gates);
  grow_names(2 * num_gates);
}

GateId Netlist::add_input(std::string net_name) {
  const GateId id = add_raw(GateType::Input, std::move(net_name), {});
  inputs_.push_back(id);
  return id;
}

GateId Netlist::add_dff(std::string net_name, GateId d) {
  std::vector<GateId> fi;
  if (d != kNoGate) fi.push_back(d);
  const GateId id = add_raw(GateType::Dff, std::move(net_name), std::move(fi));
  dff_index_[id] = static_cast<std::uint32_t>(dffs_.size());
  dffs_.push_back(id);
  return id;
}

GateId Netlist::add_gate(GateType type, std::string net_name, std::vector<GateId> fanins) {
  if (type == GateType::Input || type == GateType::Dff)
    fail("add_gate cannot create INPUT/DFF; use add_input/add_dff");
  return add_raw(type, std::move(net_name), std::move(fanins));
}

void Netlist::add_output(GateId g) {
  check_not_finalized("add_output");
  if (g >= gates_.size()) fail("add_output: no such gate");
  if (output_index_[g] != kNoIndex) fail("gate '" + gates_[g].name + "' declared PO twice");
  output_index_[g] = static_cast<std::uint32_t>(outputs_.size());
  outputs_.push_back(g);
}

Netlist Netlist::editable_copy(std::string new_name) const {
  Netlist out(std::move(new_name));
  out.gates_ = gates_;
  out.inputs_ = inputs_;
  out.outputs_ = outputs_;
  out.dffs_ = dffs_;
  out.output_index_ = output_index_;
  out.dff_index_ = dff_index_;
  out.by_name_ = by_name_;
  return out;
}

void Netlist::set_dff_input(GateId dff, GateId d) {
  check_not_finalized("set_dff_input");
  if (dff >= gates_.size() || gates_[dff].type != GateType::Dff) fail("set_dff_input: not a DFF");
  gates_[dff].fanins.assign(1, d);
}

void Netlist::replace_fanin(GateId g, std::size_t pin, GateId new_net) {
  check_not_finalized("replace_fanin");
  if (g >= gates_.size()) fail("replace_fanin: no such gate");
  if (pin >= gates_[g].fanins.size()) fail("replace_fanin: no such pin");
  gates_[g].fanins[pin] = new_net;
}

void Netlist::finalize() {
  if (finalized_) fail("finalize called twice");

  // The passes below walk fanins and fanouts of every gate in no particular
  // order, so they run over flat copies (one byte per type, CSR adjacency)
  // rather than the Gate records, each a cache line with its fanins on the
  // heap.
  const std::size_t n = gates_.size();
  std::vector<GateType> types(n);
  std::size_t num_pins = 0;
  for (GateId g = 0; g < n; ++g) {
    types[g] = gates_[g].type;
    num_pins += gates_[g].fanins.size();
  }

  // Arity and dangling-fanin checks, and with them the fanin CSR, the fanout
  // degrees and, for the combinational core, the count of combinational
  // fanins (Kahn's in-degree). DFF outputs and PIs are sources; a DFF's D
  // pin is a sink (consumes a combinational value but introduces no
  // combinational edge).
  std::vector<std::uint32_t> fanin_off(n + 1, 0);
  std::vector<GateId> fanins;
  fanins.reserve(num_pins);
  std::vector<std::uint32_t> pending(n, 0);
  fanout_off_.assign(n + 1, 0);
  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = gates_[g];
    const int arity = gate_type_arity(gate.type);
    const auto k = gate.fanins.size();
    if (arity >= 0 && k != static_cast<std::size_t>(arity))
      fail("gate '" + gate.name + "' (" + std::string(gate_type_name(gate.type)) + ") has " +
           std::to_string(k) + " fanins, expected " + std::to_string(arity));
    if (arity < 0 && k < 1)
      fail("gate '" + gate.name + "' has no fanins");
    if (k > 64)
      fail("gate '" + gate.name + "' has " + std::to_string(k) +
           " fanins; the simulators support at most 64 — decompose wide gates");
    for (GateId fi : gate.fanins)
      if (fi == kNoGate || fi >= n) fail("gate '" + gate.name + "' has a dangling fanin");
    const bool comb = is_combinational(types[g]);
    for (GateId fi : gate.fanins) {
      fanins.push_back(fi);
      ++fanout_off_[fi + 1];
      if (comb && is_combinational(types[fi])) ++pending[g];
    }
    fanin_off[g + 1] = static_cast<std::uint32_t>(fanins.size());
  }
  if (outputs_.empty()) fail("circuit '" + name_ + "' has no primary outputs");

  // Fanout CSR: prefix sums of the degrees, then a fill in gate order.
  for (std::size_t g = 0; g < n; ++g) fanout_off_[g + 1] += fanout_off_[g];
  std::vector<GateId> fanouts(fanout_off_.back());
  std::vector<std::uint32_t> fill(fanout_off_.begin(), fanout_off_.end() - 1);
  for (GateId g = 0; g < n; ++g)
    for (std::uint32_t i = fanin_off[g]; i < fanin_off[g + 1]; ++i) fanouts[fill[fanins[i]]++] = g;

  // Levels by Kahn's algorithm, driven by a sweep in id order: a gate
  // resolves once all its combinational fanins have. A gate whose last fanin
  // resolves after the sweep has passed it resolves from a stack at once.
  // For netlists listed in topological order (the generator's, scan
  // insertion's and most .bench files) every access stays near the sweep.
  levels_.assign(n, 0);
  std::size_t comb_count = 0, resolved = 0;
  std::uint32_t max_level = 0;
  std::vector<GateId> stack;
  const auto resolve = [&](GateId g, GateId sweep) {
    std::uint32_t lvl = 0;
    for (std::uint32_t i = fanin_off[g]; i < fanin_off[g + 1]; ++i)
      lvl = std::max(lvl, levels_[fanins[i]] + 1);
    levels_[g] = lvl;
    max_level = std::max(max_level, lvl);
    ++resolved;
    for (std::uint32_t i = fanout_off_[g]; i < fanout_off_[g + 1]; ++i) {
      const GateId fo = fanouts[i];
      if (is_combinational(types[fo]) && --pending[fo] == 0 && fo < sweep) stack.push_back(fo);
    }
  };
  for (GateId g = 0; g < n; ++g) {
    if (!is_combinational(types[g])) continue;
    ++comb_count;
    if (pending[g] != 0) continue;
    resolve(g, g);
    while (!stack.empty()) {
      const GateId h = stack.back();
      stack.pop_back();
      resolve(h, g);
    }
  }
  if (resolved != comb_count) fail("combinational cycle detected in '" + name_ + "'");

  // Topological order by (level, id), so that results do not depend on the
  // resolution order above. A counting sort over levels: bucket starts, then the
  // combinational gates in id order.
  std::vector<std::uint32_t> next(max_level + 2, 0);
  for (GateId g = 0; g < n; ++g)
    if (is_combinational(types[g])) ++next[levels_[g] + 1];
  for (std::uint32_t l = 0; l <= max_level; ++l) next[l + 1] += next[l];
  topo_.assign(comb_count, kNoGate);
  for (GateId g = 0; g < n; ++g)
    if (is_combinational(types[g])) topo_[next[levels_[g]]++] = g;

  finalized_ = true;
}

std::optional<GateId> Netlist::find(std::string_view net_name) const {
  if (by_name_.empty()) return std::nullopt;
  const GateId id = by_name_[probe(net_name, name_tag(net_name))].id;
  if (id == kNoGate) return std::nullopt;
  return id;
}

std::optional<std::size_t> Netlist::dff_index(GateId g) const {
  if (g >= dff_index_.size() || dff_index_[g] == kNoIndex) return std::nullopt;
  return dff_index_[g];
}

std::optional<std::size_t> Netlist::output_index(GateId g) const {
  if (g >= output_index_.size() || output_index_[g] == kNoIndex) return std::nullopt;
  return output_index_[g];
}

std::string Netlist::stats_string() const {
  std::ostringstream os;
  os << name_ << ": " << inputs_.size() << " PIs, " << outputs_.size() << " POs, "
     << dffs_.size() << " DFFs, " << num_comb_gates() << " comb gates";
  return os.str();
}

}  // namespace uniscan
