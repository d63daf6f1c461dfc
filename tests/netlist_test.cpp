#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "scan/scan_insertion.hpp"
#include "workloads/circuits.hpp"
#include "workloads/synth_gen.hpp"

namespace uniscan {
namespace {

TEST(GateTypes, ParseKeywords) {
  GateType t;
  EXPECT_TRUE(parse_gate_type("AND", t));
  EXPECT_EQ(t, GateType::And);
  EXPECT_TRUE(parse_gate_type("nand", t));
  EXPECT_EQ(t, GateType::Nand);
  EXPECT_TRUE(parse_gate_type("BUFF", t));
  EXPECT_EQ(t, GateType::Buf);
  EXPECT_TRUE(parse_gate_type("DFF", t));
  EXPECT_EQ(t, GateType::Dff);
  EXPECT_FALSE(parse_gate_type("FROB", t));
}

TEST(GateTypes, ArityRules) {
  EXPECT_EQ(gate_type_arity(GateType::Input), 0);
  EXPECT_EQ(gate_type_arity(GateType::Not), 1);
  EXPECT_EQ(gate_type_arity(GateType::Mux2), 3);
  EXPECT_EQ(gate_type_arity(GateType::And), -1);
}

TEST(Netlist, BasicConstruction) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g = nl.add_gate(GateType::And, "g", {a, b});
  nl.add_output(g);
  nl.finalize();

  EXPECT_EQ(nl.num_inputs(), 2u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.num_comb_gates(), 1u);
  EXPECT_EQ(nl.levels()[g], 1u);
  EXPECT_EQ(nl.fanout_count(a), 1u);
  EXPECT_EQ(*nl.find("g"), g);
  EXPECT_FALSE(nl.find("missing").has_value());
}

TEST(Netlist, DuplicateNameRejected) {
  Netlist nl("t");
  nl.add_input("a");
  EXPECT_THROW(nl.add_input("a"), std::runtime_error);
}

TEST(Netlist, DuplicateOutputRejected) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::Buf, "g", {a});
  nl.add_output(g);
  try {
    nl.add_output(g);
    FAIL() << "expected a duplicate-PO error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("gate 'g' declared PO twice"), std::string::npos)
        << e.what();
  }
}

TEST(Netlist, ArityViolationDetectedAtFinalize) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::Mux2, "g", {a, a});  // needs 3 pins
  nl.add_output(g);
  EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Netlist, CombinationalCycleDetected) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  // g1 and g2 feed each other.
  const GateId g1 = nl.add_gate(GateType::And, "g1", {a, kNoGate});
  const GateId g2 = nl.add_gate(GateType::Or, "g2", {g1, a});
  nl.replace_fanin(g1, 1, g2);
  nl.add_output(g2);
  EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Netlist, CycleThroughDffIsLegal) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  const GateId f = nl.add_dff("f");
  const GateId g = nl.add_gate(GateType::Xor, "g", {a, f});
  nl.set_dff_input(f, g);
  nl.add_output(g);
  EXPECT_NO_THROW(nl.finalize());
  EXPECT_EQ(nl.num_dffs(), 1u);
  EXPECT_EQ(*nl.dff_index(f), 0u);
}

TEST(Netlist, MissingOutputRejected) {
  Netlist nl("t");
  nl.add_input("a");
  EXPECT_THROW(nl.finalize(), std::runtime_error);
}

TEST(Netlist, TopoOrderRespectsDependencies) {
  const Netlist nl = make_s27();
  std::vector<int> position(nl.num_gates(), -1);
  for (std::size_t i = 0; i < nl.topo_order().size(); ++i)
    position[nl.topo_order()[i]] = static_cast<int>(i);
  for (GateId g : nl.topo_order()) {
    for (GateId fi : nl.gate(g).fanins) {
      if (!is_combinational(nl.gate(fi).type)) continue;
      EXPECT_LT(position[fi], position[g]) << "fanin must precede gate";
    }
  }
}

TEST(Netlist, LevelsAreMonotone) {
  const Netlist nl = make_s27();
  for (GateId g : nl.topo_order())
    for (GateId fi : nl.gate(g).fanins)
      EXPECT_LT(nl.levels()[fi], nl.levels()[g]);
}

/// Seeded synthetic netlists of several shapes, each also re-parsed with its
/// gate definitions reversed, so ids run against the topological order.
std::vector<Netlist> seeded_netlists() {
  std::vector<Netlist> out;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SynthSpec spec;
    spec.name = "p" + std::to_string(seed);
    spec.num_inputs = 2 + seed % 5;
    spec.num_dffs = 1 + seed % 7;
    spec.num_gates = 20 + 37 * seed;
    spec.seed = seed;
    out.push_back(generate_synthetic(spec));

    std::string head, gates;
    std::vector<std::string> lines;
    std::string text = write_bench_string(out.back());
    for (std::size_t pos = 0, eol; pos < text.size(); pos = eol + 1) {
      eol = text.find('\n', pos);
      const std::string line = text.substr(pos, eol - pos);
      if (line.find(" = ") == std::string::npos) head += line + "\n";
      else lines.push_back(line);
    }
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) gates += *it + "\n";
    out.push_back(read_bench_string(head + gates, spec.name + "_reversed"));
  }
  return out;
}

TEST(Netlist, TopoOrderIsSortedByLevelThenId) {
  for (const Netlist& nl : seeded_netlists()) {
    SCOPED_TRACE(nl.name());
    std::vector<GateId> want;
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (!is_combinational(nl.gate(g).type)) continue;
      want.push_back(g);
      std::uint32_t level = 0;
      for (GateId fi : nl.gate(g).fanins) level = std::max(level, nl.levels()[fi] + 1);
      EXPECT_EQ(nl.levels()[g], level) << nl.gate(g).name;
    }
    std::sort(want.begin(), want.end(), [&](GateId a, GateId b) {
      return nl.levels()[a] != nl.levels()[b] ? nl.levels()[a] < nl.levels()[b] : a < b;
    });
    EXPECT_EQ(nl.topo_order(), want);
  }
}

TEST(Netlist, OutputAndDffIndexMatchLinearScan) {
  std::vector<Netlist> nets = seeded_netlists();
  nets.push_back(insert_scan(nets[0]).netlist);
  nets.push_back(insert_scan(nets[3], 2).netlist);
  for (const Netlist& nl : nets) {
    SCOPED_TRACE(nl.name());
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      const auto po = std::find(nl.outputs().begin(), nl.outputs().end(), g);
      const auto ff = std::find(nl.dffs().begin(), nl.dffs().end(), g);
      if (po == nl.outputs().end()) EXPECT_FALSE(nl.output_index(g).has_value());
      else EXPECT_EQ(nl.output_index(g), static_cast<std::size_t>(po - nl.outputs().begin()));
      if (ff == nl.dffs().end()) EXPECT_FALSE(nl.dff_index(g).has_value());
      else EXPECT_EQ(nl.dff_index(g), static_cast<std::size_t>(ff - nl.dffs().begin()));
    }
    EXPECT_FALSE(nl.output_index(static_cast<GateId>(nl.num_gates())).has_value());
    EXPECT_FALSE(nl.dff_index(kNoGate).has_value());
  }
}

TEST(Netlist, S27Statistics) {
  const Netlist nl = make_s27();
  EXPECT_EQ(nl.num_inputs(), 4u);
  EXPECT_EQ(nl.num_outputs(), 1u);
  EXPECT_EQ(nl.num_dffs(), 3u);
  EXPECT_EQ(nl.num_comb_gates(), 10u);
}

TEST(Netlist, ModificationAfterFinalizeRejected) {
  Netlist nl("t");
  const GateId a = nl.add_input("a");
  const GateId g = nl.add_gate(GateType::Buf, "g", {a});
  nl.add_output(g);
  nl.finalize();
  EXPECT_THROW(nl.add_input("b"), std::runtime_error);
  EXPECT_THROW(nl.replace_fanin(g, 0, a), std::runtime_error);
}

TEST(NetlistBuilder, FluentConstruction) {
  NetlistBuilder b("demo");
  const GateId x = b.input("x");
  const GateId y = b.input("y");
  const GateId m = b.mux("m", x, y, b.input("s"));
  b.output(m);
  const Netlist nl = b.build();
  EXPECT_EQ(nl.num_inputs(), 3u);
  EXPECT_EQ(nl.gate(m).type, GateType::Mux2);
}

}  // namespace
}  // namespace uniscan
