// Fuzz-style property sweeps: random synthetic circuits through the whole
// stack, asserting the invariants that must hold for ANY circuit.
//
// Reproducibility audit: every random choice in this file — circuit shape,
// circuit contents, scan-chain count, loaded states, ATPG restarts — derives
// from the gtest parameter seed and NOTHING else (no time, no global RNG
// state), so a failing case is replayed exactly by its printed seed /
// --gtest_filter suffix. Each test opens with a SCOPED_TRACE carrying the
// seed and derived spec, so any assertion that fires logs the full recipe.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/uniscan.hpp"
#include "reference_sim.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {
namespace {

std::string fuzz_repro(std::uint64_t seed, const SynthSpec& spec) {
  return "fuzz seed=" + std::to_string(seed) + " circuit=" + spec.name +
         " (pi=" + std::to_string(spec.num_inputs) + " ff=" + std::to_string(spec.num_dffs) +
         " gates=" + std::to_string(spec.num_gates) +
         "); deterministic in the seed — rerun with --gtest_filter='*Seeds/*/" +
         std::to_string(seed - 1) + "' to replay exactly";
}

// The same file builds twice: the default (tier1) matrix in uniscan_tests,
// and a wider seed matrix in uniscan_slow_tests (-DUNISCAN_SLOW_FUZZ,
// ctest label `slow`).
#ifdef UNISCAN_SLOW_FUZZ
constexpr std::uint64_t kPipelineSeedEnd = 33;
constexpr std::uint64_t kScanChainSeedEnd = 33;
constexpr std::uint64_t kBaselineSeedEnd = 21;
#else
constexpr std::uint64_t kPipelineSeedEnd = 9;
constexpr std::uint64_t kScanChainSeedEnd = 9;
constexpr std::uint64_t kBaselineSeedEnd = 6;
#endif

SynthSpec fuzz_spec(std::uint64_t seed) {
  Rng rng(seed * 7919 + 13);
  SynthSpec spec;
  spec.name = "fuzz" + std::to_string(seed);
  spec.num_inputs = 2 + rng.next_below(6);
  spec.num_dffs = 2 + rng.next_below(8);
  spec.num_gates = 20 + rng.next_below(60);
  spec.seed = seed;
  return spec;
}

class FuzzPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzPipeline, EndToEndInvariants) {
  const SynthSpec spec = fuzz_spec(GetParam());
  SCOPED_TRACE(fuzz_repro(GetParam(), spec));
  const Netlist c = generate_synthetic(spec);
  const ScanCircuit sc = insert_scan(c);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  ASSERT_GT(fl.size(), 0u);

  // Generation: reported detections must match independent simulation.
  AtpgOptions opt;
  opt.seed = GetParam();
  const AtpgResult atpg = generate_tests(sc, fl, opt);
  FaultSimulator sim(sc.netlist);
  const auto check = sim.run(atpg.sequence, fl.faults());
  std::size_t detected = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    ASSERT_EQ(check[i].detected, atpg.detection[i].detected) << spec.name << " fault " << i;
    detected += check[i].detected;
  }
  ASSERT_EQ(detected, atpg.detected);

  // Every detection the generator claims must replay under the scalar
  // reference simulator (no batching, no cone pruning), at the time the
  // kernel reports.
  for (std::size_t i = 0; i < fl.size(); ++i) {
    if (!atpg.detection[i].detected) continue;
    const ref::Result r = ref::simulate(sc.netlist, fl[i], atpg.sequence);
    ASSERT_TRUE(r.detected) << spec.name << " fault " << i;
    ASSERT_EQ(r.time, check[i].time) << spec.name << " fault " << i;
  }

#ifdef UNISCAN_SLOW_FUZZ
  // Fuzz the determinism contract too: re-running the generator at an odd
  // thread count must be bit-identical on every random circuit.
  {
    ThreadPool::set_global_threads(3);
    const AtpgResult redo = generate_tests(sc, fl, opt);
    ThreadPool::set_global_threads(1);
    ASSERT_EQ(redo.sequence, atpg.sequence) << spec.name;
    ASSERT_EQ(redo.detected, atpg.detected) << spec.name;
    ASSERT_EQ(redo.gate_evals, atpg.gate_evals) << spec.name;
  }
#endif

  // Compaction: never longer, never loses a detection.
  const CompactionResult rest = restoration_compact(sc.netlist, atpg.sequence, fl.faults());
  ASSERT_LE(rest.sequence.length(), atpg.sequence.length());
  const auto after = sim.run(rest.sequence, fl.faults());
  for (std::size_t i = 0; i < fl.size(); ++i) {
    if (check[i].detected) {
      ASSERT_TRUE(after[i].detected) << spec.name << " fault " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline,
                         ::testing::Range<std::uint64_t>(1, kPipelineSeedEnd));

class FuzzScanChain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzScanChain, LoadUnloadIdentityAnyChainCount) {
  const SynthSpec spec = fuzz_spec(GetParam() + 100);
  SCOPED_TRACE(fuzz_repro(GetParam(), spec));
  const Netlist c = generate_synthetic(spec);
  Rng rng(GetParam());
  const std::size_t chains = 1 + rng.next_below(std::min<std::size_t>(c.num_dffs(), 4));
  const ScanCircuit sc = insert_scan(c, chains);
  const SequentialSimulator sim(sc.netlist);

  // Load a random state, then unload while observing every chain's scan_out:
  // the observed stream must equal the loaded slice (shifted out in order).
  State target(sc.netlist.num_dffs());
  for (auto& v : target) v = rng.next_bool() ? V3::One : V3::Zero;
  const TestSequence load = make_scan_load_all(sc, target, rng);
  SimTrace lt = sim.simulate(load, sim.initial_state());
  ASSERT_EQ(lt.state.back(), target) << spec.name << " chains=" << chains;

  // Unload: max-chain-length shift cycles.
  TestSequence unload(sc.netlist.num_inputs());
  for (std::size_t k = 0; k < sc.max_chain_length(); ++k) {
    std::vector<V3> vec(sc.netlist.num_inputs(), V3::Zero);
    vec[sc.scan_sel_index()] = V3::One;
    unload.append(std::move(vec));
  }
  const SimTrace ut = sim.simulate(unload, target);
  // During unload cycle k, chain c's scan_out shows cell (len-1-k) of its
  // loaded slice (the tail cell leaves first).
  std::size_t base = 0;
  for (const ScanChain& chain : sc.nets.chains) {
    const std::size_t len = chain.cells.size();
    for (std::size_t k = 0; k < len; ++k) {
      ASSERT_EQ(ut.po[k][chain.scan_out_index], target[base + len - 1 - k])
          << spec.name << " chains=" << chains << " k=" << k;
    }
    base += len;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzScanChain,
                         ::testing::Range<std::uint64_t>(1, kScanChainSeedEnd));

class FuzzBaselineTranslate : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzBaselineTranslate, BaselineBookkeepingIsExactTranslation) {
  const SynthSpec spec = fuzz_spec(GetParam() + 200);
  SCOPED_TRACE(fuzz_repro(GetParam(), spec));
  const Netlist c = generate_synthetic(spec);
  const ScanCircuit sc = insert_scan(c);
  const FaultList fl = FaultList::collapsed(sc.netlist);
  BaselineOptions opt;
  opt.seed = GetParam();
  const BaselineResult r = generate_baseline_tests(sc, fl, opt);

  // Structure: length matches the conventional application-cycle count and
  // the scan_sel column follows load/functional/unload periods.
  ASSERT_EQ(r.translated.length(), r.application_cycles());
  FaultSimulator sim(sc.netlist);
  const auto det = sim.run(r.translated, fl.faults());
  std::size_t detected = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    ASSERT_EQ(det[i].detected, r.detection[i].detected);
    detected += det[i].detected;
  }
  ASSERT_EQ(detected, r.detected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBaselineTranslate,
                         ::testing::Range<std::uint64_t>(1, kBaselineSeedEnd));

// Corpus-derived fuzz: the seed picks a fast-tier corpus circuit (real
// .bench parse path, hash-verified) and drives a capped-effort generation
// run twice — the detection records must match independent simulation, and
// the second run must be BIT-IDENTICAL to the first, which is exactly the
// property that makes a failure reproducible from the logged seed alone.
class FuzzCorpus : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzCorpus, CorpusCaseReproducibleFromSeed) {
  const std::uint64_t seed = GetParam();
  const CorpusRegistry& reg = CorpusRegistry::global();
  const auto fast = reg.tier(CorpusTier::Fast);
  if (fast.empty()) GTEST_SKIP() << "corpus manifest not present at " << reg.dir();
  const CorpusEntry& entry = fast[seed % fast.size()];
  SCOPED_TRACE("fuzz seed=" + std::to_string(seed) + " -> corpus circuit " + entry.name +
               " (tier fast, " + reg.circuit_path(entry) +
               "); deterministic in the seed — rerun with --gtest_filter='*FuzzCorpus*/" +
               std::to_string(seed - 1) + "' to replay exactly");

  const Netlist c = reg.load(entry);
  const ScanCircuit sc = insert_scan(c);
  const FaultList fl = FaultList::collapsed(sc.netlist);

  AtpgOptions opt;
  opt.seed = seed;
  opt.max_backtracks = 10;
  opt.sat_mode = SatMode::Off;
  opt.max_random_chunks = 4;
  opt.window_schedule = {4};
  const AtpgResult first = generate_tests(sc, fl, opt);

  FaultSimulator sim(sc.netlist);
  const auto check = sim.run(first.sequence, fl.faults());
  for (std::size_t i = 0; i < fl.size(); ++i)
    ASSERT_EQ(check[i].detected, first.detection[i].detected) << "fault " << i;

  const AtpgResult again = generate_tests(sc, fl, opt);
  ASSERT_EQ(again.sequence, first.sequence) << "same seed must replay bit-identically";
  ASSERT_EQ(again.detected, first.detected);
  ASSERT_EQ(again.gate_evals, first.gate_evals);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzCorpus,
                         ::testing::Range<std::uint64_t>(1, kBaselineSeedEnd));

}  // namespace
}  // namespace uniscan
