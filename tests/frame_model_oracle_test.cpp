// Exactness of the FrameModel's packed evaluation.
//
//  * PackedV5Ops: the packed ops, run by the type-run kernel, against
//    eval_gate_v5, exhaustively over all nine (good, faulty) pairs on one to
//    three inputs and sampled on four and five.
//  * FrameModelOracle: seeded random walks of assignments, flips,
//    unassignments, scan-in assignments, clears and pins. After every
//    simulate() each value, the D-frontier (order included), the PO
//    detection frame, the first latched effect and any_effect() must equal
//    a full five-valued re-simulation of the window. The oracle below reads
//    only the Netlist, the model's public configuration and the V3
//    primitives of tests/reference_sim.hpp: no CompiledNetlist, no packed
//    values, no incremental bookkeeping.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "atpg/frame_model.hpp"
#include "reference_sim.hpp"
#include "scan/scan_insertion.hpp"
#include "util/rng.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"

namespace uniscan {
namespace {

constexpr V3 kAll[3] = {V3::Zero, V3::One, V3::X};

std::vector<V5> all_pairs() {
  std::vector<V5> out;
  for (V3 g : kAll)
    for (V3 f : kAll) out.push_back(V5{g, f});
  return out;
}

V5 random_pair(Rng& rng) { return V5{kAll[rng.next_below(3)], kAll[rng.next_below(3)]}; }

std::string show(const V5* in, std::size_t n) {
  std::string s;
  for (std::size_t i = 0; i < n; ++i) s += v5_to_char(in[i]);
  return s;
}

/// One gate through the type-run kernel the FrameModel runs: fanins are
/// gates 0..n-1, the evaluated gate is n.
void expect_packed_matches(GateType type, const V5* in, std::size_t n) {
  std::vector<std::uint8_t> vals(n + 1, 0);
  std::vector<std::uint32_t> fanin_off(n + 2, 0);
  std::vector<GateId> fanin_ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = detail::pack_v5(in[i]);
    fanin_ids[i] = static_cast<GateId>(i);
  }
  fanin_off[n + 1] = static_cast<std::uint32_t>(n);
  const GateId order[1] = {static_cast<GateId>(n)};
  const TypeRun run{type, 1, 0, 1};
  detail::eval_type_runs<detail::PackedV5Ops>({&run, 1}, order, fanin_off.data(),
                                              fanin_ids.data(), vals.data());
  EXPECT_EQ(detail::unpack_v5(vals[n]), eval_gate_v5(type, in, n))
      << gate_type_name(type) << "(" << show(in, n) << ")";
}

TEST(PackedV5Ops, PackRoundTripAndPredicates) {
  for (const V5 v : all_pairs()) {
    const std::uint8_t p = detail::pack_v5(v);
    EXPECT_LT(p, 16u);
    EXPECT_EQ(detail::unpack_v5(p), v);
    EXPECT_EQ(detail::p5_is_d(p), is_d_or_dbar(v)) << v5_to_char(v);
    EXPECT_EQ(detail::p5_known(p), is_fully_known(v)) << v5_to_char(v);
    for (V3 f : kAll) EXPECT_EQ(detail::unpack_v5(detail::with_faulty(p, f)), (V5{v.good, f}));
  }
  for (V3 v : kAll) EXPECT_EQ(detail::pack_both(v), detail::pack_v5(V5::both(v)));
  EXPECT_EQ(detail::pack_v5(V5::d()), 6u);
  EXPECT_EQ(detail::pack_v5(V5::dbar()), 9u);
  EXPECT_EQ(detail::pack_v5(V5::zero()), detail::kP5Zero);
  EXPECT_EQ(detail::pack_v5(V5::one()), detail::kP5One);
  EXPECT_EQ(detail::pack_v5(V5::x()), 0u);
}

TEST(PackedV5Ops, EveryGateTypeExhaustiveUpToThreeInputs) {
  const std::vector<V5> pairs = all_pairs();
  for (const V5 a : pairs) {
    expect_packed_matches(GateType::Buf, &a, 1);
    expect_packed_matches(GateType::Not, &a, 1);
  }
  const GateType multi[] = {GateType::And, GateType::Nand, GateType::Or,
                            GateType::Nor, GateType::Xor,  GateType::Xnor};
  for (const GateType t : multi) {
    for (const V5 a : pairs) {
      expect_packed_matches(t, &a, 1);
      for (const V5 b : pairs) {
        const V5 two[2] = {a, b};
        expect_packed_matches(t, two, 2);
        for (const V5 c : pairs) {
          const V5 three[3] = {a, b, c};
          expect_packed_matches(t, three, 3);
        }
      }
    }
  }
  for (const V5 a : pairs)
    for (const V5 b : pairs)
      for (const V5 s : pairs) {
        const V5 in[3] = {a, b, s};
        expect_packed_matches(GateType::Mux2, in, 3);
      }
  expect_packed_matches(GateType::Const0, nullptr, 0);
  expect_packed_matches(GateType::Const1, nullptr, 0);
}

TEST(PackedV5Ops, SampledFourAndFiveInputs) {
  Rng rng(0x5eed);
  const GateType multi[] = {GateType::And, GateType::Nand, GateType::Or,
                            GateType::Nor, GateType::Xor,  GateType::Xnor};
  for (int trial = 0; trial < 4000; ++trial) {
    V5 in[5];
    const std::size_t n = 4 + rng.next_below(2);
    for (std::size_t i = 0; i < n; ++i) in[i] = random_pair(rng);
    for (const GateType t : multi) expect_packed_matches(t, in, n);
  }
}

// ---------------------------------------------------------------------------
// Full five-valued re-simulation of a FrameModel window.

struct FrameOracle {
  std::vector<std::vector<V5>> values;  // [frame][gate]
  std::vector<std::pair<std::size_t, GateId>> frontier;
  std::optional<std::size_t> po_detect;
  std::optional<FrameModel::LatchedEffect> latch;
  bool any_effect = false;
};

/// Re-simulate every frame of `m` from scratch under its current
/// assignments. `init_good`/`init_faulty`/`prev_init` are what the test set
/// with set_initial_state() and set_initial_prev_driven().
FrameOracle resimulate(const Netlist& nl, const FrameModel& m, const State& init_good,
                       const State& init_faulty, V3 prev_init) {
  const Fault& fault = m.fault();
  const GateId site = fault.gate;
  const std::int16_t pin = fault.pin;
  const std::size_t nd = nl.num_dffs();
  FrameOracle o;
  std::vector<V3> sg(nd), sf(nd);
  for (std::size_t j = 0; j < nd; ++j) {
    sg[j] = m.state_assignable() ? m.state_assignment(j) : init_good[j];
    sf[j] = m.state_assignable() ? m.state_assignment(j) : init_faulty[j];
  }
  V3 prev = prev_init;
  std::vector<V3> in;
  for (std::size_t f = 0; f < m.num_frames(); ++f) {
    // Faulty value forced onto the faulted line given its driven value.
    const auto force = [&](V3 driven) {
      if (!m.is_transition()) return fault.stuck_one ? V3::One : V3::Zero;
      return m.slow_to_rise() ? v3_and(driven, prev) : v3_or(driven, prev);
    };
    V3 launch = V3::X;
    std::vector<V3> good(nl.num_gates(), V3::X), bad(nl.num_gates(), V3::X);
    for (std::size_t i = 0; i < nl.num_inputs(); ++i)
      good[nl.inputs()[i]] = bad[nl.inputs()[i]] = m.assignment(f, i);
    for (std::size_t j = 0; j < nd; ++j) {
      good[nl.dffs()[j]] = sg[j];
      bad[nl.dffs()[j]] = sf[j];
    }
    if (pin == kStemPin && !is_combinational(nl.gate(site).type)) {
      launch = bad[site];
      bad[site] = force(launch);
    }
    // Pin p of gate g as the faulty machine reads it.
    const auto faulty_pin = [&](GateId g, std::size_t p) {
      const V3 v = bad[nl.gate(g).fanins[p]];
      return g == site && pin == static_cast<std::int16_t>(p) ? force(v) : v;
    };
    for (const GateId g : nl.topo_order()) {
      const Gate& gate = nl.gate(g);
      in.clear();
      for (const GateId fi : gate.fanins) in.push_back(good[fi]);
      good[g] = ref::eval_gate(gate.type, in);
      in.clear();
      for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
        if (g == site && pin == static_cast<std::int16_t>(p)) launch = bad[gate.fanins[p]];
        in.push_back(faulty_pin(g, p));
      }
      bad[g] = ref::eval_gate(gate.type, in);
      if (g == site && pin == kStemPin) {
        launch = bad[g];
        bad[g] = force(launch);
      }
    }

    std::vector<V5>& row = o.values.emplace_back(nl.num_gates());
    for (GateId g = 0; g < nl.num_gates(); ++g) row[g] = V5{good[g], bad[g]};

    for (const GateId g : nl.topo_order()) {
      if (is_d_or_dbar(row[g])) {
        o.any_effect = true;
        continue;
      }
      if (is_fully_known(row[g])) continue;
      for (std::size_t p = 0; p < nl.gate(g).fanins.size(); ++p) {
        if (is_d_or_dbar(V5{good[nl.gate(g).fanins[p]], faulty_pin(g, p)})) {
          o.frontier.emplace_back(f, g);
          o.any_effect = true;
          break;
        }
      }
    }
    for (const GateId po : nl.outputs())
      if (!o.po_detect && is_d_or_dbar(row[po])) o.po_detect = f;
    for (std::size_t j = 0; j < nd; ++j) {
      const GateId ff = nl.dffs()[j];
      const GateId d = nl.gate(ff).fanins[0];
      sg[j] = good[d];
      sf[j] = bad[d];
      if (ff == site && pin == 0) {
        launch = bad[d];
        sf[j] = force(launch);
      }
    }
    if (!o.latch)
      for (std::size_t j = nd; j-- > 0;)
        if (is_d_or_dbar(V5{sg[j], sf[j]})) {
          o.latch = FrameModel::LatchedEffect{f, j};
          break;
        }
    prev = launch;
  }
  if (o.po_detect || o.latch) o.any_effect = true;
  return o;
}

void expect_matches_oracle(const Netlist& nl, const FrameModel& m, const State& good,
                           const State& faulty, V3 prev, const std::string& where) {
  const FrameOracle o = resimulate(nl, m, good, faulty, prev);
  for (std::size_t f = 0; f < m.num_frames(); ++f)
    for (GateId g = 0; g < nl.num_gates(); ++g)
      ASSERT_EQ(m.value(f, g), o.values[f][g])
          << where << " frame " << f << " gate " << nl.gate(g).name;
  ASSERT_EQ(m.d_frontier(), o.frontier) << where;
  ASSERT_EQ(m.po_detection_frame(), o.po_detect) << where;
  ASSERT_EQ(m.first_latched_effect().has_value(), o.latch.has_value()) << where;
  if (o.latch) {
    EXPECT_EQ(m.first_latched_effect()->frame, o.latch->frame) << where;
    EXPECT_EQ(m.first_latched_effect()->dff_index, o.latch->dff_index) << where;
  }
  ASSERT_EQ(m.any_effect(), o.any_effect) << where;
}

/// How often the compared results were non-trivial, so a walk that never
/// activates a fault cannot pass vacuously.
struct WalkStats {
  std::size_t frontier = 0, po = 0, latch = 0;
};

/// One random walk over `m`: every mutator of the decision variables, with
/// simulate() after most steps (skipped steps pile several edits into one
/// incremental re-simulation).
void random_walk(const Netlist& nl, FrameModel& m, const State& good, const State& faulty,
                 V3 prev, Rng& rng, int steps, const std::string& label, WalkStats& stats) {
  const std::size_t npi = nl.num_inputs(), nd = nl.num_dffs();
  const auto known = [&] { return rng.next_bool() ? V3::One : V3::Zero; };
  m.simulate();
  expect_matches_oracle(nl, m, good, faulty, prev, label + " initial");
  for (int step = 0; step < steps; ++step) {
    const std::size_t f = rng.next_below(m.num_frames());
    const std::size_t i = rng.next_below(npi);
    const std::uint64_t op = rng.next_below(100);
    if (op < 45) {
      m.assign(f, i, known());
    } else if (op < 60) {
      m.assign(f, i, V3::X);
    } else if (op < 75) {
      const V3 v = m.assignment(f, i);
      m.assign(f, i, v == V3::X ? known() : v3_not(v));
    } else if (op < 88) {
      if (nd) m.assign_state(rng.next_below(nd), rng.next_below(4) ? known() : V3::X);
    } else if (op < 93) {
      m.clear_assignments();
    } else {
      m.pin_input(i, rng.next_below(3) ? known() : V3::X);
    }
    if (rng.next_below(4) == 0) continue;
    m.simulate();
    expect_matches_oracle(nl, m, good, faulty, prev, label + " step " + std::to_string(step));
    if (::testing::Test::HasFatalFailure()) return;
    stats.frontier += !m.d_frontier().empty();
    stats.po += m.po_detection_frame().has_value();
    stats.latch += m.first_latched_effect().has_value();
  }
}

struct WalkCase {
  const char* circuit;
  std::uint64_t seed;
};

void PrintTo(const WalkCase& wc, std::ostream* os) { *os << wc.circuit << " seed " << wc.seed; }

class FrameModelOracle : public ::testing::TestWithParam<WalkCase> {
 protected:
  static Netlist load(const char* name) {
    if (std::string(name) == "s27") return make_s27();
    return load_circuit(*find_suite_entry(name));
  }
};

/// A random (good, faulty) state with some effects already latched.
void random_state(Rng& rng, std::size_t nd, State& good, State& faulty) {
  good.assign(nd, V3::X);
  faulty.assign(nd, V3::X);
  for (std::size_t j = 0; j < nd; ++j) {
    good[j] = kAll[rng.next_below(3)];
    faulty[j] = rng.next_below(5) ? good[j] : kAll[rng.next_below(3)];
  }
}

TEST_P(FrameModelOracle, RandomWalkMatchesFullResimulation) {
  const WalkCase wc = GetParam();
  const ScanCircuit sc = insert_scan(load(wc.circuit));
  const Netlist& nl = sc.netlist;
  const CompiledNetlist cnl(nl);
  Rng rng(wc.seed);

  // Sites: stems on a primary input, a DFF output and combinational gates;
  // branches on combinational pins and on a DFF's D pin.
  std::vector<std::pair<GateId, std::int16_t>> sites;
  sites.emplace_back(nl.inputs()[rng.next_below(nl.num_inputs())], kStemPin);
  const GateId ff = nl.dffs()[rng.next_below(nl.num_dffs())];
  sites.emplace_back(ff, kStemPin);
  sites.emplace_back(ff, 0);
  for (int k = 0; k < 4; ++k) {
    const GateId g = nl.topo_order()[rng.next_below(nl.topo_order().size())];
    sites.emplace_back(g, kStemPin);
    const std::size_t n = nl.gate(g).fanins.size();
    if (n) sites.emplace_back(g, static_cast<std::int16_t>(rng.next_below(n)));
  }

  WalkStats stats;
  for (const auto& [gate, pin] : sites) {
    for (int model_kind = 0; model_kind < 3; ++model_kind) {
      for (const bool assignable : {false, true}) {
        const std::size_t frames = 1 + rng.next_below(4);
        const bool transition = model_kind == 2;
        const bool stuck_one = model_kind == 1;
        std::optional<FrameModel> m;
        if (transition) m.emplace(cnl, TransitionFault{gate, pin, rng.next_bool()}, frames);
        else m.emplace(cnl, Fault{gate, pin, stuck_one}, frames);
        State good, faulty;
        random_state(rng, nl.num_dffs(), good, faulty);
        m->set_initial_state(good, faulty);
        const V3 prev = transition ? kAll[rng.next_below(3)] : V3::X;
        if (transition) m->set_initial_prev_driven(prev);
        m->set_state_assignable(assignable);
        const std::string label = std::string(wc.circuit) + " " + nl.gate(gate).name + "/" +
                                  std::to_string(pin) + (transition ? " tf" : " sa") +
                                  (assignable ? " assignable" : "");
        random_walk(nl, *m, good, faulty, prev, rng, 80, label, stats);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(stats.frontier, 0u);
  EXPECT_GT(stats.po, 0u);
  EXPECT_GT(stats.latch, 0u);
  std::printf("[ walk     ] %s: frontier %zu, po %zu, latch %zu\n", wc.circuit, stats.frontier,
              stats.po, stats.latch);
}

INSTANTIATE_TEST_SUITE_P(Circuits, FrameModelOracle,
                         ::testing::Values(WalkCase{"s27", 11}, WalkCase{"s208", 12},
                                           WalkCase{"s298", 13}, WalkCase{"b01", 14}),
                         [](const auto& info) { return std::string(info.param.circuit); });

}  // namespace
}  // namespace uniscan
