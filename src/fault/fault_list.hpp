// Fault universe enumeration and structural equivalence collapsing.
//
// Enumeration covers every line of the netlist: one stem per gate output
// (including primary inputs and DFF outputs) and one branch per gate input
// pin whose driving net has more than one fanout (single-fanout branches are
// structurally equivalent to their stems and are never enumerated).
//
// Collapsing applies the classical gate rules with union-find:
//   AND : in s-a-0 == out s-a-0        NAND: in s-a-0 == out s-a-1
//   OR  : in s-a-1 == out s-a-1        NOR : in s-a-1 == out s-a-0
//   BUF : in s-a-v == out s-a-v        NOT : in s-a-v == out s-a-(1-v)
// DFF boundaries are not collapsed across (detection times differ at
// power-up under the unknown initial state).
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace uniscan {

using FaultId = std::uint32_t;

class FaultList {
 public:
  /// Build the collapsed fault list for `nl` (must be finalized).
  static FaultList collapsed(const Netlist& nl);

  /// Build the full uncollapsed list (for tests and cross-checks).
  static FaultList uncollapsed(const Netlist& nl);

  std::size_t size() const noexcept { return faults_.size(); }
  const Fault& operator[](FaultId id) const { return faults_[id]; }
  const std::vector<Fault>& faults() const noexcept { return faults_; }

  /// Total number of faults before collapsing (for reporting).
  std::size_t uncollapsed_count() const noexcept { return uncollapsed_count_; }

  /// The first `n` faults of this list (everything when n >= size()). The
  /// collapsed order is deterministic, so a prefix is a stable bounded
  /// target set (the corpus digest harness caps large-tier ATPG cost with
  /// it). uncollapsed_count() is preserved for reporting.
  FaultList prefix(std::size_t n) const;

 private:
  std::vector<Fault> faults_;
  std::size_t uncollapsed_count_ = 0;
};

}  // namespace uniscan
