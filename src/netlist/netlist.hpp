// Netlist: a synchronous sequential gate-level circuit.
//
// Gates are stored in a flat vector; the index of a gate is also the id of
// the (single) net it drives. Primary outputs are references to driving
// gates. DFFs form the state; their outputs are time-frame boundary values.
//
// After construction, call finalize() to validate the structure, build
// fanout lists and a topological order of the combinational core. All
// simulators and the ATPG require a finalized netlist.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/gate.hpp"

namespace uniscan {

class CompiledNetlist;

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // ---- construction -------------------------------------------------------

  /// Make room for `num_gates` gates in total, so building a netlist of
  /// known size never regrows the gate table or rehashes the name index.
  void reserve(std::size_t num_gates);

  /// Add a primary input. Returns its gate id.
  GateId add_input(std::string net_name);

  /// Add a D flip-flop whose D connection is hooked up later (or now).
  GateId add_dff(std::string net_name, GateId d = kNoGate);

  /// Add a combinational gate.
  GateId add_gate(GateType type, std::string net_name, std::vector<GateId> fanins);

  /// Declare `g` a primary output. A gate may be declared a PO at most once.
  void add_output(GateId g);

  /// An unfinalized copy under `new_name`: same gates, ids, PIs, POs, DFFs
  /// and name index, ready for further construction (scan insertion).
  Netlist editable_copy(std::string new_name) const;

  /// Connect/replace the D input of flip-flop `dff`.
  void set_dff_input(GateId dff, GateId d);

  /// Replace fanin pin `pin` of gate `g` with `new_net`.
  void replace_fanin(GateId g, std::size_t pin, GateId new_net);

  /// Validate and build derived structures (fanouts, topological order,
  /// levels). Throws std::runtime_error on malformed circuits (dangling
  /// fanin, combinational cycle, arity violation, duplicate names).
  void finalize();

  // ---- accessors -----------------------------------------------------------

  const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t num_gates() const noexcept { return gates_.size(); }
  std::size_t num_inputs() const noexcept { return inputs_.size(); }
  std::size_t num_outputs() const noexcept { return outputs_.size(); }
  std::size_t num_dffs() const noexcept { return dffs_.size(); }

  const Gate& gate(GateId g) const { return gates_[g]; }
  const std::vector<GateId>& inputs() const noexcept { return inputs_; }
  const std::vector<GateId>& outputs() const noexcept { return outputs_; }
  const std::vector<GateId>& dffs() const noexcept { return dffs_; }

  bool is_finalized() const noexcept { return finalized_; }

  /// Combinational gates in topological (fanin-before-fanout) order.
  /// Only valid after finalize().
  const std::vector<GateId>& topo_order() const noexcept { return topo_; }

  /// Logic level of each gate: inputs/DFF outputs are level 0, a
  /// combinational gate is 1 + max(fanin levels). Only valid after finalize().
  const std::vector<std::uint32_t>& levels() const noexcept { return levels_; }

  /// Fanout degree of a gate (CompiledNetlist::fanouts() is the canonical
  /// CSR adjacency for traversal). Only valid after finalize().
  std::size_t fanout_count(GateId g) const { return fanout_off_[g + 1] - fanout_off_[g]; }

  /// Lookup a gate id by net name.
  std::optional<GateId> find(std::string_view net_name) const;

  /// Index of a DFF in the state vector (0..num_dffs-1), or nullopt.
  std::optional<std::size_t> dff_index(GateId g) const;

  /// Index of a PO in the output vector, or nullopt if not a PO.
  std::optional<std::size_t> output_index(GateId g) const;

  /// Count of combinational gates (excludes Input and Dff).
  std::size_t num_comb_gates() const noexcept { return topo_.size(); }

  /// Human-readable one-line statistics.
  std::string stats_string() const;

  /// The one-time CSR compile of this netlist, built lazily on first call
  /// and shared by every simulator constructed over the same Netlist object
  /// (see DESIGN.md §5e). Requires finalize(); the netlist is structurally
  /// immutable afterwards, so the compile can never go stale. Thread-safe.
  /// Implemented in sim/compiled_netlist.cpp to keep the netlist layer free
  /// of a sim-layer dependency at compile time.
  std::shared_ptr<const CompiledNetlist> compiled_shared() const;

 private:
  // Lazily-built shared compile. The cached CompiledNetlist holds a pointer
  // back to the owning Netlist, so the slot must reset — never transfer —
  // on copy or move: a copied/moved netlist lives at a new address (and a
  // moved-from one has surrendered its vectors), so a carried-over compile
  // would dangle. Copies simply recompile on first use.
  struct CompiledSlot {
    CompiledSlot() = default;
    CompiledSlot(const CompiledSlot&) noexcept {}
    CompiledSlot(CompiledSlot&&) noexcept {}
    CompiledSlot& operator=(const CompiledSlot&) noexcept { return *this; }
    CompiledSlot& operator=(CompiledSlot&&) noexcept { return *this; }

    mutable std::mutex mutex;
    mutable std::shared_ptr<const CompiledNetlist> ptr;
  };
  static constexpr std::uint32_t kNoIndex = 0xffffffffU;

  // Net-name index: open addressing with linear probing over (hash tag,
  // gate id) slots, the names themselves living in gates_. A power-of-two
  // table kept at most half full. It copies as one flat array, a lookup
  // takes a string_view without building a std::string, and a probe
  // compares names only where the 32-bit tags match.
  struct NameSlot {
    std::uint32_t tag = 0;
    GateId id = kNoGate;
  };
  static std::uint32_t name_tag(std::string_view name) noexcept;
  /// Index of the slot holding `name`, or of the empty slot it would take.
  std::size_t probe(std::string_view name, std::uint32_t tag) const noexcept;
  /// Rebuild the index with at least `min_slots` slots.
  void grow_names(std::size_t min_slots);

  GateId add_raw(GateType type, std::string net_name, std::vector<GateId> fanins);
  void check_not_finalized(const char* op) const;

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<GateId> outputs_;
  std::vector<GateId> dffs_;
  // Per gate: position among outputs_ / dffs_, or kNoIndex.
  std::vector<std::uint32_t> output_index_;
  std::vector<std::uint32_t> dff_index_;
  std::vector<NameSlot> by_name_;

  bool finalized_ = false;
  std::vector<GateId> topo_;
  std::vector<std::uint32_t> levels_;
  std::vector<std::uint32_t> fanout_off_;  // per gate + 1: prefix sum of fanout degrees
  CompiledSlot compiled_slot_;
};

}  // namespace uniscan
