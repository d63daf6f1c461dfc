// Scalar reference fault simulator: the oracle the parallel-fault kernel is
// tested against.
//
// One fault at a time, one good and one faulty machine, three-valued
// scalars, every gate of Netlist::topo_order() evaluated every frame. It
// reads only the Netlist and the V3 primitives of sim/logic3.hpp and shares
// no code with the kernel: no CompiledNetlist, no slot words, no batch
// programs, no cone pruning, no fixup streams. It defines what every kernel
// result means:
//
//  * detection: the first frame at which some primary output carries a
//    known good value and the opposite known value in the faulty machine;
//  * latch records: after clocking frame t, DFF j holds a known faulty value
//    opposing a known good value; the deepest such DFF (largest j) of the
//    latest frame that reaches at least the current record's depth wins;
//  * final states: both machines' DFF states after the whole sequence, and
//    for a transition fault the faulted line's last driven value (its launch
//    history).
//
// Stuck-at faults force the faulted line to a constant; a transition fault
// forces STR: and(driven(t), driven(t-1)) or STF: or(driven(t),
// driven(t-1)), with driven(-1) = X.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "fault/transition_fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/logic3.hpp"
#include "sim/sequence.hpp"

namespace uniscan::ref {

struct Result {
  bool detected = false;
  std::uint32_t time = 0;   // first detection frame
  bool latched = false;
  std::uint32_t ff_index = 0;
  std::uint32_t latch_time = 0;
  std::vector<V3> good_state;    // entering the frame after the sequence
  std::vector<V3> faulty_state;
  V3 prev_driven = V3::X;        // transition faults: last launch value
};

inline V3 eval_gate(GateType type, const std::vector<V3>& in) {
  V3 acc = in.empty() ? V3::X : in[0];
  switch (type) {
    case GateType::Buf: return acc;
    case GateType::Not: return v3_not(acc);
    case GateType::And:
    case GateType::Nand:
      for (std::size_t p = 1; p < in.size(); ++p) acc = v3_and(acc, in[p]);
      return type == GateType::Nand ? v3_not(acc) : acc;
    case GateType::Or:
    case GateType::Nor:
      for (std::size_t p = 1; p < in.size(); ++p) acc = v3_or(acc, in[p]);
      return type == GateType::Nor ? v3_not(acc) : acc;
    case GateType::Xor:
    case GateType::Xnor:
      for (std::size_t p = 1; p < in.size(); ++p) acc = v3_xor(acc, in[p]);
      return type == GateType::Xnor ? v3_not(acc) : acc;
    case GateType::Mux2: return v3_mux(in[0], in[1], in[2]);
    case GateType::Const0: return V3::Zero;
    case GateType::Const1: return V3::One;
    case GateType::Input:
    case GateType::Dff: return V3::X;
  }
  return V3::X;
}

/// Fault-free trace of `seq` from `initial` (one value per DFF): po[t] is
/// the primary-output vector of frame t, state[t] the state entering it.
struct GoodTrace {
  std::vector<std::vector<V3>> po;
  std::vector<std::vector<V3>> state;
};

inline GoodTrace good_trace(const Netlist& nl, const TestSequence& seq,
                            const std::vector<V3>& initial) {
  GoodTrace tr;
  tr.state.push_back(initial);
  std::vector<V3> val(nl.num_gates(), V3::X), in;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) val[nl.inputs()[i]] = seq.at(t, i);
    for (std::size_t j = 0; j < nl.num_dffs(); ++j) val[nl.dffs()[j]] = tr.state.back()[j];
    for (const GateId g : nl.topo_order()) {
      in.clear();
      for (const GateId f : nl.gate(g).fanins) in.push_back(val[f]);
      val[g] = eval_gate(nl.gate(g).type, in);
    }
    std::vector<V3> po, next;
    for (const GateId o : nl.outputs()) po.push_back(val[o]);
    for (const GateId ff : nl.dffs()) next.push_back(val[nl.gate(ff).fanins[0]]);
    tr.po.push_back(std::move(po));
    tr.state.push_back(std::move(next));
  }
  return tr;
}

inline bool opposed(V3 good, V3 faulty) {
  return good != V3::X && faulty != V3::X && good != faulty;
}

/// Simulate `seq` from the all-X power-up state against one fault.
inline Result simulate(const Netlist& nl, const std::variant<Fault, TransitionFault>& fault,
                       const TestSequence& seq) {
  GateId site = kNoGate;
  std::int16_t pin = kStemPin;
  if (const Fault* f = std::get_if<Fault>(&fault)) site = f->gate, pin = f->pin;
  else {
    const auto& tf = std::get<TransitionFault>(fault);
    site = tf.gate;
    pin = tf.pin;
  }
  Result r;
  V3 prev = V3::X;  // transition launch history
  V3 launch = V3::X;
  // Faulty value of the faulted line given its driven value this frame.
  const auto inject = [&](V3 driven) {
    launch = driven;
    if (const Fault* f = std::get_if<Fault>(&fault)) return f->stuck_one ? V3::One : V3::Zero;
    return std::get<TransitionFault>(fault).slow_to_rise ? v3_and(driven, prev)
                                                         : v3_or(driven, prev);
  };

  r.good_state.assign(nl.num_dffs(), V3::X);
  r.faulty_state.assign(nl.num_dffs(), V3::X);
  std::vector<V3> good(nl.num_gates(), V3::X), bad(nl.num_gates(), V3::X);
  std::vector<V3> gin, bin;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      good[nl.inputs()[i]] = bad[nl.inputs()[i]] = seq.at(t, i);
    for (std::size_t j = 0; j < nl.num_dffs(); ++j) {
      good[nl.dffs()[j]] = r.good_state[j];
      bad[nl.dffs()[j]] = r.faulty_state[j];
    }
    if (pin == kStemPin && !is_combinational(nl.gate(site).type)) bad[site] = inject(bad[site]);

    for (const GateId g : nl.topo_order()) {
      const Gate& gate = nl.gate(g);
      gin.clear();
      bin.clear();
      for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
        gin.push_back(good[gate.fanins[p]]);
        const V3 v = bad[gate.fanins[p]];
        bin.push_back(g == site && pin == static_cast<std::int16_t>(p) ? inject(v) : v);
      }
      good[g] = eval_gate(gate.type, gin);
      bad[g] = eval_gate(gate.type, bin);
      if (g == site && pin == kStemPin) bad[g] = inject(bad[g]);
    }

    bool observed = false;
    for (const GateId po : nl.outputs()) observed |= opposed(good[po], bad[po]);
    if (observed) {
      if (!r.detected) r.time = static_cast<std::uint32_t>(t);
      r.detected = true;
    }

    for (std::size_t j = 0; j < nl.num_dffs(); ++j) {
      const GateId ff = nl.dffs()[j];
      const GateId d = nl.gate(ff).fanins[0];
      r.good_state[j] = good[d];
      r.faulty_state[j] = ff == site && pin == 0 ? inject(bad[d]) : bad[d];
    }
    prev = launch;
    for (std::size_t j = 0; j < nl.num_dffs(); ++j) {
      if (!opposed(r.good_state[j], r.faulty_state[j])) continue;
      if (!r.latched || j >= r.ff_index) {
        r.latched = true;
        r.ff_index = static_cast<std::uint32_t>(j);
        r.latch_time = static_cast<std::uint32_t>(t);
      }
    }
  }
  r.prev_driven = prev;
  return r;
}

}  // namespace uniscan::ref
