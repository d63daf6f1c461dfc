#include "workloads/synth_gen.hpp"

#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace uniscan {

namespace {

/// Working representation while the circuit is being shaped: gate i reads
/// from `fanins(i)`, where ids < num_leaves refer to PIs/FF outputs and ids
/// >= num_leaves refer to earlier gates. Fanin lists are one flat array
/// (CSR): gate i's run is [fanin_off[i], fanin_off[i + 1]).
struct Draft {
  std::size_t num_leaves = 0;  // PIs + FFs
  std::vector<GateType> types;
  std::vector<std::uint32_t> fanin_off{0};
  std::vector<std::uint32_t> fanin_ids;

  std::span<std::uint32_t> fanins(std::size_t g) {
    return {fanin_ids.data() + fanin_off[g], fanin_ids.data() + fanin_off[g + 1]};
  }
  std::span<const std::uint32_t> fanins(std::size_t g) const {
    return {fanin_ids.data() + fanin_off[g], fanin_ids.data() + fanin_off[g + 1]};
  }
};

/// Rounds of the toggle profile; each signal holds one word per round, so a
/// signal's words fill one cache line and all rounds evaluate in one pass.
constexpr std::size_t kRounds = 8;
struct alignas(64) RoundWords {
  std::uint64_t w[kRounds];
};

/// `acc` op= `in`, round by round.
template <class Op>
void combine(RoundWords& acc, const RoundWords& in, Op op) {
  for (std::size_t r = 0; r < kRounds; ++r) acc.w[r] = op(acc.w[r], in.w[r]);
}

/// 64-way random-pattern toggle profile over kRounds rounds. Leaves (PIs and
/// FF outputs) get fresh random words each round — the full controllability
/// a scan chain provides; all leaf words are drawn up front, round by round,
/// in the order a round-at-a-time evaluation would draw them. Returns
/// per-gate flags: 1 when the gate saw both a 0 and a 1.
std::vector<std::uint8_t> toggle_profile(const Draft& d, Rng& rng,
                                         std::vector<RoundWords>& values) {
  const std::size_t n = d.types.size();
  values.resize(d.num_leaves + n);
  for (std::size_t r = 0; r < kRounds; ++r)
    for (std::size_t i = 0; i < d.num_leaves; ++i) values[i].w[r] = rng.next();

  std::vector<std::uint8_t> toggled(n, 0);
  for (std::size_t g = 0; g < n; ++g) {
    const auto fan = d.fanins(g);
    RoundWords acc = values[fan[0]];
    const GateType t = d.types[g];
    bool invert = false;
    switch (t) {
      case GateType::Not: invert = true; break;
      case GateType::And:
      case GateType::Nand:
        for (std::size_t i = 1; i < fan.size(); ++i) combine(acc, values[fan[i]], std::bit_and<>{});
        invert = t == GateType::Nand;
        break;
      case GateType::Or:
      case GateType::Nor:
        for (std::size_t i = 1; i < fan.size(); ++i) combine(acc, values[fan[i]], std::bit_or<>{});
        invert = t == GateType::Nor;
        break;
      case GateType::Xor:
      case GateType::Xnor:
        for (std::size_t i = 1; i < fan.size(); ++i) combine(acc, values[fan[i]], std::bit_xor<>{});
        invert = t == GateType::Xnor;
        break;
      default: break;  // BUF (and anything else) passes pin 0 through
    }
    bool saw0 = false, saw1 = false;
    for (std::size_t r = 0; r < kRounds; ++r) {
      if (invert) acc.w[r] = ~acc.w[r];
      saw0 |= acc.w[r] != ~0ULL;
      saw1 |= acc.w[r] != 0;
    }
    values[d.num_leaves + g] = acc;
    toggled[g] = saw0 && saw1;
  }
  return toggled;
}

/// Rewrite gates that never toggled: parity functions of independent signals
/// are essentially never constant, so stuck gates become XOR/XNOR (or NOT
/// for single-input ones) and get a fresh pin-0 source.
void repair_constants(Draft& d, Rng& rng) {
  std::vector<RoundWords> values;  // scratch of toggle_profile, reused each round
  for (int round = 0; round < 6; ++round) {
    const std::vector<std::uint8_t> toggled = toggle_profile(d, rng, values);
    bool any = false;
    for (std::size_t g = 0; g < d.types.size(); ++g) {
      if (toggled[g]) continue;
      any = true;
      const auto fan = d.fanins(g);
      if (fan.size() == 1) {
        d.types[g] = GateType::Buf;
        // Re-source from a random earlier signal.
        fan[0] = static_cast<std::uint32_t>(rng.next_below(d.num_leaves + g));
      } else {
        d.types[g] = rng.next_bool() ? GateType::Xor : GateType::Xnor;
        fan[0] = static_cast<std::uint32_t>(rng.next_below(d.num_leaves + g));
      }
    }
    if (!any) break;
  }
}

GateType pick_type(Rng& rng) {
  // Weighted toward the NAND/NOR/AND/OR mix typical of the ISCAS suites.
  const std::uint64_t r = rng.next_below(100);
  if (r < 22) return GateType::Nand;
  if (r < 42) return GateType::Nor;
  if (r < 58) return GateType::And;
  if (r < 74) return GateType::Or;
  if (r < 86) return GateType::Not;
  if (r < 94) return GateType::Xor;
  return GateType::Buf;
}

std::size_t pick_arity(GateType t, Rng& rng) {
  if (t == GateType::Not || t == GateType::Buf) return 1;
  if (t == GateType::Xor) return 2;
  // 2..4, biased to 2.
  const std::uint64_t r = rng.next_below(10);
  if (r < 6) return 2;
  if (r < 9) return 3;
  return 4;
}

}  // namespace

Netlist generate_synthetic(const SynthSpec& spec) {
  if (spec.num_inputs == 0 || spec.num_dffs == 0)
    throw std::invalid_argument("generate_synthetic: need at least one PI and one DFF");
  const std::size_t min_gates = spec.num_inputs + 2 * spec.num_dffs + 2;
  const std::size_t num_gates = std::max(spec.num_gates, min_gates);

  Rng rng(spec.seed ^ 0x9e3779b97f4a7c15ULL);

  Draft d;
  d.num_leaves = spec.num_inputs + spec.num_dffs;

  const auto pick_fanin = [&](std::size_t created) -> std::size_t {
    // Bias toward recently created gates (builds depth); with probability
    // ~1/4 reach anywhere (builds reconvergence and keeps PIs/FFs in play).
    const std::size_t limit = d.num_leaves + created;
    if (limit > 8 && rng.next_below(4) != 0) {
      const std::size_t window = std::min<std::size_t>(limit, 24);
      return limit - 1 - rng.next_below(window);
    }
    return rng.next_below(limit);
  };

  d.types.reserve(num_gates);
  d.fanin_off.reserve(num_gates + 1);
  std::vector<std::uint32_t> fanins;
  for (std::size_t i = 0; i < num_gates; ++i) {
    GateType t = pick_type(rng);
    const std::size_t arity = pick_arity(t, rng);
    fanins.clear();

    // Guarantee consumption: the first num_inputs gates each consume a
    // distinct PI; the next num_dffs gates each consume a distinct FF.
    if (i < d.num_leaves) fanins.push_back(static_cast<std::uint32_t>(i));

    // Reject candidates directly related to an already chosen signal:
    // one-hop reconvergence like AND(x, NOR(x, y)) creates constant nodes
    // and with them untestable faults, which real ISCAS circuits mostly lack.
    const auto related = [&](std::size_t a, std::size_t b) {
      if (a == b) return true;
      if (a >= d.num_leaves)
        for (std::size_t fi : d.fanins(a - d.num_leaves))
          if (fi == b) return true;
      if (b >= d.num_leaves)
        for (std::size_t fi : d.fanins(b - d.num_leaves))
          if (fi == a) return true;
      return false;
    };
    for (int attempts = 0; fanins.size() < arity && attempts < 24; ++attempts) {
      const std::size_t cand = pick_fanin(i);
      bool bad = false;
      for (std::size_t f : fanins) bad |= related(f, cand);
      if (!bad) fanins.push_back(static_cast<std::uint32_t>(cand));
    }
    if (fanins.empty())
      fanins.push_back(static_cast<std::uint32_t>(rng.next_below(d.num_leaves + i)));
    if (fanins.size() == 1 && t != GateType::Not && t != GateType::Buf)
      t = rng.next_bool() ? GateType::Not : GateType::Buf;

    d.types.push_back(t);
    d.fanin_ids.insert(d.fanin_ids.end(), fanins.begin(), fanins.end());
    d.fanin_off.push_back(static_cast<std::uint32_t>(d.fanin_ids.size()));
  }

  // Remove constant nodes (the dominant source of redundant faults).
  repair_constants(d, rng);

  // Materialize the netlist.
  Netlist nl(spec.name);
  nl.reserve(d.num_leaves + d.types.size());
  std::vector<GateId> ids;  // draft signal id -> netlist gate id
  ids.reserve(d.num_leaves + d.types.size());
  for (std::size_t i = 0; i < spec.num_inputs; ++i)
    ids.push_back(nl.add_input(numbered("I", i)));
  std::vector<GateId> ffs;
  for (std::size_t i = 0; i < spec.num_dffs; ++i) {
    ffs.push_back(nl.add_dff(numbered("F", i)));
    ids.push_back(ffs.back());
  }
  for (std::size_t g = 0; g < d.types.size(); ++g) {
    std::vector<GateId> gate_fanins;
    for (std::size_t f : d.fanins(g)) gate_fanins.push_back(ids[f]);
    ids.push_back(nl.add_gate(d.types[g], numbered("g", g), std::move(gate_fanins)));
  }

  // FF D inputs: each FF reads a gate from the last half of the list so
  // state depends on deep logic (feedback through the core).
  const std::size_t first_gate = d.num_leaves;
  for (std::size_t i = 0; i < spec.num_dffs; ++i) {
    const std::size_t lo = d.types.size() / 2;
    const std::size_t pick = lo + rng.next_below(d.types.size() - lo);
    nl.set_dff_input(ffs[i], ids[first_gate + pick]);
  }

  // Primary outputs: every gate with no fanout becomes a PO (keeps the
  // circuit fully observable-by-construction and free of dead logic).
  std::vector<std::uint32_t> fanout_count(nl.num_gates(), 0);
  for (GateId g = 0; g < nl.num_gates(); ++g)
    for (GateId fi : nl.gate(g).fanins) ++fanout_count[fi];
  bool any_po = false;
  for (std::size_t g = 0; g < d.types.size(); ++g) {
    const GateId id = ids[first_gate + g];
    if (fanout_count[id] == 0) {
      nl.add_output(id);
      any_po = true;
    }
  }
  if (!any_po) nl.add_output(ids.back());

  nl.finalize();
  return nl;
}

}  // namespace uniscan
