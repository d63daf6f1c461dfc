#include "fault/fault_list.hpp"

#include <algorithm>
#include <numeric>

#include "obs/counters.hpp"

namespace uniscan {

namespace {

/// Index space for union-find: each enumerated line has two fault slots
/// (s-a-0, s-a-1) addressed as 2*line + stuck.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

struct Line {
  GateId gate;
  std::int16_t pin;
};

struct Enumeration {
  std::vector<Line> lines;
  // line index of the stem of gate g
  std::vector<std::size_t> stem_of;
  // branch_of[pin_base[g] + p]: line index of branch (g, p), or kFolded if
  // the branch is folded into its driver's stem
  std::vector<std::size_t> pin_base;
  std::vector<std::size_t> branch_of;
};

constexpr std::size_t kFolded = static_cast<std::size_t>(-1);

Enumeration enumerate_lines(const Netlist& nl, bool fold_single_fanout_branches) {
  Enumeration e;
  const std::size_t n = nl.num_gates();
  e.stem_of.resize(n);
  e.pin_base.resize(n + 1);
  for (GateId g = 0; g < n; ++g) e.pin_base[g + 1] = e.pin_base[g] + nl.gate(g).fanins.size();
  e.lines.reserve(n + e.pin_base[n]);
  for (GateId g = 0; g < n; ++g) {
    e.stem_of[g] = e.lines.size();
    e.lines.push_back(Line{g, kStemPin});
  }
  e.branch_of.assign(e.pin_base[n], kFolded);
  for (GateId g = 0; g < n; ++g) {
    const Gate& gate = nl.gate(g);
    for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
      const GateId driver = gate.fanins[p];
      if (fold_single_fanout_branches && nl.fanout_count(driver) == 1) continue;
      e.branch_of[e.pin_base[g] + p] = e.lines.size();
      e.lines.push_back(Line{g, static_cast<std::int16_t>(p)});
    }
  }
  return e;
}

/// Fault slot id for (line, stuck value).
constexpr std::size_t slot(std::size_t line, bool stuck_one) {
  return 2 * line + (stuck_one ? 1 : 0);
}

}  // namespace

FaultList FaultList::uncollapsed(const Netlist& nl) {
  FaultList fl;
  // Enumerate every line, including single-fanout branches.
  const Enumeration e = enumerate_lines(nl, /*fold_single_fanout_branches=*/false);
  for (const Line& line : e.lines) {
    fl.faults_.push_back(Fault{line.gate, line.pin, false});
    fl.faults_.push_back(Fault{line.gate, line.pin, true});
  }
  fl.uncollapsed_count_ = fl.faults_.size();
  return fl;
}

FaultList FaultList::collapsed(const Netlist& nl) {
  const Enumeration e = enumerate_lines(nl, /*fold_single_fanout_branches=*/true);
  const std::size_t num_slots = 2 * e.lines.size();
  UnionFind uf(num_slots);

  // Helper: fault slot of the line feeding pin p of gate g. If the branch
  // was folded (single fanout), that is the driver's stem.
  const auto input_slot = [&](GateId g, std::size_t p, bool stuck_one) {
    const std::size_t branch = e.branch_of[e.pin_base[g] + p];
    if (branch != kFolded) return slot(branch, stuck_one);
    return slot(e.stem_of[nl.gate(g).fanins[p]], stuck_one);
  };

  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const Gate& gate = nl.gate(g);
    const std::size_t n = gate.fanins.size();
    const auto out0 = slot(e.stem_of[g], false);
    const auto out1 = slot(e.stem_of[g], true);
    switch (gate.type) {
      case GateType::Buf:
        uf.unite(input_slot(g, 0, false), out0);
        uf.unite(input_slot(g, 0, true), out1);
        break;
      case GateType::Not:
        uf.unite(input_slot(g, 0, false), out1);
        uf.unite(input_slot(g, 0, true), out0);
        break;
      case GateType::And:
        for (std::size_t p = 0; p < n; ++p) uf.unite(input_slot(g, p, false), out0);
        break;
      case GateType::Nand:
        for (std::size_t p = 0; p < n; ++p) uf.unite(input_slot(g, p, false), out1);
        break;
      case GateType::Or:
        for (std::size_t p = 0; p < n; ++p) uf.unite(input_slot(g, p, true), out1);
        break;
      case GateType::Nor:
        for (std::size_t p = 0; p < n; ++p) uf.unite(input_slot(g, p, true), out0);
        break;
      default:
        break;  // XOR/XNOR/MUX/DFF/INPUT/CONST: no gate-level equivalences
    }
  }

  // One representative per class: the one whose root it is (smallest slot).
  FaultList fl;
  fl.uncollapsed_count_ = 2 * (nl.num_gates() + e.pin_base.back());
  for (std::size_t s = 0; s < num_slots; ++s) {
    if (uf.find(s) != s) continue;
    const Line& line = e.lines[s / 2];
    fl.faults_.push_back(Fault{line.gate, line.pin, (s & 1) != 0});
  }
  // Attribute the collapse's work to the stage that ran it: before this
  // counter the `faults` stage reported all-zero rows even though collapsing
  // is the bulk of its time.
  obs::count(obs::Counter::FaultsCollapsed, fl.uncollapsed_count_ - fl.faults_.size());
  return fl;
}

FaultList FaultList::prefix(std::size_t n) const {
  FaultList fl;
  fl.uncollapsed_count_ = uncollapsed_count_;
  fl.faults_.assign(faults_.begin(),
                    faults_.begin() + static_cast<std::ptrdiff_t>(std::min(n, faults_.size())));
  return fl;
}

}  // namespace uniscan
