// CompiledNetlist kernel tests: CSR/structural invariants of the compiled
// form, and the fault-simulation kernel against the scalar reference
// simulator (tests/reference_sim.hpp) for both fault models, one-shot and
// session, at every slot width and several thread counts — on the embedded
// s27 scan circuit and on fuzzed synthetic netlists, over fault lists that
// include branch faults (forced per-pin injection chains) and from the all-X
// power-up state.
#include "sim/compiled_netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/uniscan.hpp"
#include "fault/fault_list.hpp"
#include "reference_sim.hpp"
#include "sim/engine.hpp"
#include "sim/fault_sim.hpp"
#include "sim/fault_sim_session.hpp"
#include "sim/sequential_sim.hpp"
#include "sim/transition_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {
namespace {

/// Restores the process-wide slot width and thread count on scope exit so
/// tests sharing the binary don't leak settings into each other.
struct KernelConfigGuard {
  ~KernelConfigGuard() {
    set_global_slot_width(SlotWidth::Auto);
    ThreadPool::set_global_threads(1);
  }
};

Netlist fuzz_netlist(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  SynthSpec spec;
  spec.name = "kernelfuzz" + std::to_string(seed);
  spec.num_inputs = 2 + rng.next_below(6);
  spec.num_dffs = 2 + rng.next_below(8);
  spec.num_gates = 20 + rng.next_below(60);
  spec.seed = seed;
  return generate_synthetic(spec);
}

TestSequence random_sequence(const Netlist& nl, std::size_t len, std::uint64_t seed) {
  TestSequence seq(nl.num_inputs());
  Rng rng(seed);
  for (std::size_t t = 0; t < len; ++t) seq.append_x();
  seq.random_fill(rng);
  return seq;
}

void check_structure(const Netlist& nl) {
  const CompiledNetlist cnl(nl);
  ASSERT_EQ(cnl.num_gates(), nl.num_gates());

  // Fanin CSR mirrors the netlist; fanout CSR is its exact transpose, with
  // every row sorted by reader id (the counting sort guarantees it).
  std::multiset<std::pair<GateId, GateId>> want_edges, got_edges;
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    ASSERT_EQ(cnl.type(g), nl.gate(g).type);
    const auto fan = cnl.fanins(g);
    ASSERT_EQ(fan.size(), nl.gate(g).fanins.size());
    for (std::size_t p = 0; p < fan.size(); ++p) {
      ASSERT_EQ(fan[p], nl.gate(g).fanins[p]);
      want_edges.emplace(fan[p], g);
    }
    const auto fo = cnl.fanouts(g);
    ASSERT_TRUE(std::is_sorted(fo.begin(), fo.end()));
    for (const GateId r : fo) got_edges.emplace(g, r);
  }
  ASSERT_EQ(got_edges, want_edges);

  // Evaluation order: a permutation of the combinational core in
  // non-decreasing level order, covered exactly by homogeneous type runs.
  std::vector<GateId> sorted_eval = cnl.eval_order();
  std::vector<GateId> sorted_topo = nl.topo_order();
  std::sort(sorted_eval.begin(), sorted_eval.end());
  std::sort(sorted_topo.begin(), sorted_topo.end());
  ASSERT_EQ(sorted_eval, sorted_topo);

  const auto& order = cnl.eval_order();
  for (std::size_t i = 1; i < order.size(); ++i)
    ASSERT_LE(cnl.level(order[i - 1]), cnl.level(order[i]));

  std::uint32_t covered = 0;
  for (const TypeRun& r : cnl.runs()) {
    ASSERT_EQ(r.begin, covered);
    ASSERT_LT(r.begin, r.end);
    for (std::uint32_t i = r.begin; i < r.end; ++i) {
      ASSERT_EQ(cnl.type(order[i]), r.type);
      ASSERT_EQ(cnl.level(order[i]), r.level);
    }
    covered = r.end;
  }
  ASSERT_EQ(covered, order.size());
}

TEST(CompiledNetlist, StructureMatchesNetlistS27Scan) {
  check_structure(insert_scan(make_s27()).netlist);
}

TEST(CompiledNetlist, StructureMatchesNetlistFuzz) {
  for (std::uint64_t seed = 1; seed < 6; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    check_structure(fuzz_netlist(seed));
  }
}

TEST(CompiledNetlist, RequiresFinalizedNetlist) {
  Netlist nl;
  (void)nl.add_input("a");
  ASSERT_THROW(CompiledNetlist{nl}, std::invalid_argument);
}

TEST(CompiledNetlist, FullEvalMatchesPerGateReference) {
  for (std::uint64_t seed = 1; seed < 6; ++seed) {
    const Netlist nl = fuzz_netlist(seed);
    const CompiledNetlist cnl(nl);
    Rng rng(seed + 77);
    // Random three-valued boundary values (X included) for a few frames.
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<V3> kernel(nl.num_gates(), V3::X), ref(nl.num_gates(), V3::X);
      const auto rand_v3 = [&]() {
        const auto r = rng.next_below(3);
        return r == 0 ? V3::Zero : (r == 1 ? V3::One : V3::X);
      };
      for (const GateId pi : nl.inputs()) kernel[pi] = ref[pi] = rand_v3();
      for (const GateId ff : nl.dffs()) kernel[ff] = ref[ff] = rand_v3();

      cnl.eval_full_v3(kernel.data());
      V3 buf[64];
      for (const GateId g : nl.topo_order()) {
        const Gate& gate = nl.gate(g);
        for (std::size_t p = 0; p < gate.fanins.size(); ++p) buf[p] = ref[gate.fanins[p]];
        ref[g] = eval_gate_v3(gate.type, buf, gate.fanins.size());
      }
      ASSERT_EQ(kernel, ref) << "seed=" << seed << " rep=" << rep;
    }
  }
}

/// The kernel configurations every test below sweeps: thread counts times
/// slot widths (a SIMD width the CPU lacks runs the baseline kernel body).
constexpr std::size_t kThreads[] = {1, 2, 4, 8};
constexpr SlotWidth kWidths[] = {SlotWidth::W64, SlotWidth::W256, SlotWidth::W512};

std::string config_name(std::size_t threads, SlotWidth width) {
  return "threads=" + std::to_string(threads) + " width=" + std::to_string(slot_width_bits(width));
}

Netlist kernel_netlist(std::uint64_t seed) {
  return seed == 0 ? insert_scan(make_s27()).netlist : fuzz_netlist(seed);
}

void expect_matches_reference(const std::vector<DetectionRecord>& got,
                              const std::vector<LatchRecord>& latch,
                              const std::vector<ref::Result>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].detected, want[i].detected) << "fault " << i;
    if (want[i].detected) {
      ASSERT_EQ(got[i].time, want[i].time) << "fault " << i;
    }
    ASSERT_EQ(latch[i].latched, want[i].latched) << "fault " << i;
    if (want[i].latched) {
      ASSERT_EQ(latch[i].ff_index, want[i].ff_index) << "fault " << i;
      ASSERT_EQ(latch[i].time, want[i].latch_time) << "fault " << i;
    }
  }
}

class KernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEquivalence, StuckAtMatchesReference) {
  KernelConfigGuard guard;
  const std::uint64_t seed = GetParam();
  const Netlist nl = kernel_netlist(seed);
  // Uncollapsed list: keeps every branch fault so the per-pin forced
  // injection chains are exercised, several faults per gate included.
  const FaultList fl = FaultList::uncollapsed(nl);
  const TestSequence seq = random_sequence(nl, 40, seed * 31 + 7);

  std::vector<ref::Result> want;
  for (const Fault& f : fl.faults()) want.push_back(ref::simulate(nl, f, seq));

  for (const SlotWidth width : kWidths) {
    for (const std::size_t threads : kThreads) {
      SCOPED_TRACE(config_name(threads, width));
      set_global_slot_width(width);
      ThreadPool::set_global_threads(threads);
      FaultSimulator sim(nl);
      std::vector<LatchRecord> latch;
      expect_matches_reference(sim.run(seq, fl.faults(), &latch), latch, want);
    }
  }
}

TEST_P(KernelEquivalence, TransitionMatchesReference) {
  KernelConfigGuard guard;
  const std::uint64_t seed = GetParam();
  const Netlist nl = kernel_netlist(seed);
  const std::vector<TransitionFault> faults = enumerate_transition_faults(nl);
  const TestSequence seq = random_sequence(nl, 40, seed * 37 + 3);

  std::vector<ref::Result> want;
  for (const TransitionFault& f : faults) want.push_back(ref::simulate(nl, f, seq));

  for (const SlotWidth width : kWidths) {
    for (const std::size_t threads : kThreads) {
      SCOPED_TRACE(config_name(threads, width));
      set_global_slot_width(width);
      ThreadPool::set_global_threads(threads);
      TransitionFaultSimulator sim(nl);
      std::vector<LatchRecord> latch;
      expect_matches_reference(sim.run(seq, faults, &latch), latch, want);
    }
  }
}

/// Sessions carry machine states across chunks: every undetected fault's
/// (good, faulty) state pair — and a transition fault's launch history —
/// must equal the reference machines' after the whole sequence, even under
/// pruning (unsampled DFFs reconstruct from the good machine).
TEST_P(KernelEquivalence, SessionStatesMatchReference) {
  KernelConfigGuard guard;
  const std::uint64_t seed = GetParam();
  const Netlist nl = kernel_netlist(seed);
  const FaultList fl = FaultList::uncollapsed(nl);
  const std::vector<TransitionFault> tfaults = enumerate_transition_faults(nl);
  const TestSequence chunk1 = random_sequence(nl, 12, seed * 41 + 1);
  const TestSequence chunk2 = random_sequence(nl, 12, seed * 41 + 2);
  TestSequence whole = chunk1;
  whole.append_sequence(chunk2);

  std::vector<ref::Result> want, twant;
  for (const Fault& f : fl.faults()) want.push_back(ref::simulate(nl, f, whole));
  for (const TransitionFault& f : tfaults) twant.push_back(ref::simulate(nl, f, whole));

  for (const SlotWidth width : kWidths) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(config_name(threads, width));
      set_global_slot_width(width);
      ThreadPool::set_global_threads(threads);
      FaultSimSession ses(nl, fl.faults());
      TransitionSimSession tses(nl, tfaults);
      for (const TestSequence* chunk : {&chunk1, &chunk2}) {
        ses.advance(*chunk);
        tses.advance(*chunk);
      }
      if (!want.empty()) {
        ASSERT_EQ(ses.good_state(), want[0].good_state);
      }
      State good, faulty;
      for (std::size_t i = 0; i < fl.size(); ++i) {
        ASSERT_EQ(ses.is_detected(i), want[i].detected) << "fault " << i;
        if (want[i].detected) {
          ASSERT_EQ(ses.detections()[i].time, want[i].time) << "fault " << i;
          continue;
        }
        ses.pair_state(i, good, faulty);
        ASSERT_EQ(good, want[i].good_state) << "fault " << i;
        ASSERT_EQ(faulty, want[i].faulty_state) << "fault " << i;
      }
      V3 prev = V3::X;
      for (std::size_t i = 0; i < tfaults.size(); ++i) {
        ASSERT_EQ(tses.is_detected(i), twant[i].detected) << "transition fault " << i;
        if (twant[i].detected) continue;
        tses.pair_state(i, good, faulty, &prev);
        ASSERT_EQ(good, twant[i].good_state) << "transition fault " << i;
        ASSERT_EQ(faulty, twant[i].faulty_state) << "transition fault " << i;
        ASSERT_EQ(prev, twant[i].prev_driven) << "transition fault " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalence, ::testing::Range<std::uint64_t>(0, 5));

/// From the all-X power-up state with all-X inputs nothing is detectable or
/// latched — the reference says so, and every width and thread count must
/// agree (optimistic-X propagation through the type runs and fixups).
TEST(KernelEquivalence, AllXSequenceMatchesReference) {
  KernelConfigGuard guard;
  const Netlist nl = insert_scan(make_s27()).netlist;
  const FaultList fl = FaultList::uncollapsed(nl);
  TestSequence seq(nl.num_inputs());
  for (int t = 0; t < 10; ++t) seq.append_x();

  std::vector<ref::Result> want;
  for (const Fault& f : fl.faults()) {
    want.push_back(ref::simulate(nl, f, seq));
    ASSERT_FALSE(want.back().detected);
    ASSERT_FALSE(want.back().latched);
  }
  for (const SlotWidth width : kWidths) {
    for (const std::size_t threads : kThreads) {
      SCOPED_TRACE(config_name(threads, width));
      set_global_slot_width(width);
      ThreadPool::set_global_threads(threads);
      FaultSimulator sim(nl);
      std::vector<LatchRecord> latch;
      expect_matches_reference(sim.run(seq, fl.faults(), &latch), latch, want);
    }
  }
}

/// Pruned batch programs must cover exactly the gates a batch can disturb
/// plus their support, and the good-machine (empty) batch must never prune.
TEST(CompiledNetlist, BuildProgramConeInvariants) {
  const Netlist nl = fuzz_netlist(3);
  const CompiledNetlist cnl(nl);

  // Empty site list: pruning is disabled even when requested.
  const BatchProgram good = cnl.build_program({}, {}, true);
  ASSERT_FALSE(good.pruned);
  ASSERT_EQ(good.eval.size(), cnl.eval_order().size());
  ASSERT_EQ(good.samp_dff.size(), nl.num_dffs());
  ASSERT_EQ(good.obs_po.size(), nl.num_outputs());

  // Single-site program: every evaluated gate's fanins are evaluated,
  // loaded, or sampled — no gate reads a stale value.
  const GateId site = nl.topo_order().front();
  const BatchProgram p = cnl.build_program(std::span<const GateId>(&site, 1), {}, true);
  ASSERT_TRUE(p.pruned);
  std::vector<std::uint8_t> have(nl.num_gates(), 0);
  for (const GateId pi : nl.inputs()) have[pi] = 1;
  for (const std::uint32_t j : p.samp_dff) have[nl.dffs()[j]] = 1;
  for (const GateId g : p.eval) have[g] = 1;
  for (const GateId g : p.eval)
    for (const GateId f : cnl.fanins(g)) ASSERT_TRUE(have[f]) << "gate " << g << " reads " << f;
  for (const std::uint32_t j : p.samp_dff) {
    if (cnl.dff_d()[j] != kNoGate) {
      ASSERT_TRUE(have[cnl.dff_d()[j]]) << "dff " << j;
    }
  }
  // Observable sets are subsets of the full ones.
  ASSERT_LE(p.obs_po.size(), nl.num_outputs());
  ASSERT_LE(p.latch_dff.size(), p.samp_dff.size());
}

}  // namespace
}  // namespace uniscan
