// Good-machine three-valued sequential simulation.
//
// The simulator evaluates the combinational core in topological order once
// per clock cycle (levelized compiled-code style). The circuit state is the
// vector of DFF output values; the conventional unknown power-up state is
// all-X.
#pragma once

#include <memory>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/logic3.hpp"
#include "sim/sequence.hpp"

namespace uniscan {

/// Circuit state: one value per DFF, in Netlist::dffs() order.
using State = std::vector<V3>;

/// Values observed during one clock cycle.
struct FrameValues {
  std::vector<V3> po;          // one per primary output
  State next_state;            // one per DFF
};

/// Full trace of a sequence simulation.
struct SimTrace {
  std::vector<std::vector<V3>> po;     // [time][output]
  std::vector<State> state;            // state[t] = state *entering* frame t; size = length+1
};

class SequentialSimulator {
 public:
  explicit SequentialSimulator(const Netlist& nl);

  const Netlist& netlist() const noexcept { return *nl_; }
  const CompiledNetlist& compiled() const noexcept { return *compiled_; }

  /// All-X power-up state.
  State initial_state() const { return State(nl_->num_dffs(), V3::X); }

  /// Simulate one clock cycle from `state` with primary inputs `pi`.
  /// `pi` is indexed like Netlist::inputs().
  FrameValues step(const State& state, const std::vector<V3>& pi) const;

  /// Simulate a whole sequence from `initial`. trace.state[t] is the state
  /// entering frame t, so trace.state.size() == seq.length() + 1.
  SimTrace simulate(const TestSequence& seq, const State& initial) const;

  /// Values of every net in the last step() / frame evaluated via
  /// eval_frame(). Exposed for ATPG and unit tests.
  const std::vector<V3>& net_values() const noexcept { return values_; }

  /// Evaluate one combinational frame into the internal net-value buffer and
  /// return POs + next state. Public so the ATPG can inspect internal nets.
  FrameValues eval_frame(const State& state, const std::vector<V3>& pi) const;

 private:
  const Netlist* nl_;
  std::shared_ptr<const CompiledNetlist> compiled_;
  mutable std::vector<V3> values_;  // scratch: value per net
};

/// Evaluate a single gate over scalar V3 fanin values.
V3 eval_gate_v3(GateType type, const V3* in, std::size_t n) noexcept;

/// Evaluate a single gate over word-parallel W3T values (any width) of its
/// `n` pins, read through `in(p)`: each pin once, in pin order. The fault
/// injectors stream fanins this way and apply a pin fault as its pin is read.
template <class Word, class In>
[[gnu::always_inline]] inline W3T<Word> eval_gate_w3(GateType type, std::size_t n, In&& in) {
  using W = W3T<Word>;
  switch (type) {
    case GateType::Buf:
      return in(0);
    case GateType::Not:
      return w3_not(in(0));
    case GateType::And:
    case GateType::Nand: {
      W acc = in(0);
      for (std::size_t i = 1; i < n; ++i) acc = w3_and(acc, in(i));
      return type == GateType::Nand ? w3_not(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      W acc = in(0);
      for (std::size_t i = 1; i < n; ++i) acc = w3_or(acc, in(i));
      return type == GateType::Nor ? w3_not(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      W acc = in(0);
      for (std::size_t i = 1; i < n; ++i) acc = w3_xor(acc, in(i));
      return type == GateType::Xnor ? w3_not(acc) : acc;
    }
    case GateType::Mux2: {
      const W d0 = in(0);
      const W d1 = in(1);
      return w3_mux(d0, d1, in(2));
    }
    case GateType::Const0:
      return W::all_zero();
    case GateType::Const1:
      return W::all_one();
    case GateType::Input:
    case GateType::Dff:
      break;  // boundary values; never evaluated
  }
  return W::all_x();
}

}  // namespace uniscan
