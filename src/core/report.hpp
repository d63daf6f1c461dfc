// Plain-text table rendering for the experiment binaries; mirrors the look
// of the paper's tables.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "atpg/verdict.hpp"
#include "core/pipeline.hpp"
#include "scan/scan_insertion.hpp"
#include "sim/sequence.hpp"

namespace uniscan {

/// Column-aligned text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Add a data row (must match the header width).
  void add_row(std::vector<std::string> cells);

  /// Render with right-aligned numeric cells and a separator under the header.
  void print(std::ostream& out) const;
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Column-aligned table that prints each row the moment it is added, for
/// suite runs that stream results as circuits complete. Column widths are
/// fixed up front (header width vs. a per-column minimum), so rows render
/// identically whether the run finishes or is cut short by --time-budget;
/// an oversized cell widens its own row rather than re-flowing the table.
/// The header + rule are printed by the constructor; every add_row flushes.
class StreamTable {
 public:
  StreamTable(std::ostream& out, std::vector<std::string> header,
              std::vector<std::size_t> min_widths = {});

  /// Print a data row immediately (must match the header width).
  void add_row(const std::vector<std::string>& cells);

 private:
  std::ostream& out_;
  std::vector<std::size_t> width_;
};

/// Format a double like the paper's coverage column ("99.63").
std::string format_pct(double v);

/// One-line rendering of what the SAT second chance contributed, printed by
/// the ATPG table binaries under their suite totals:
///   "sat[second-chance]: attempts=5 detected=1 proved_redundant=2 ..."
std::string format_sat_summary(const SatSummary& s);

/// Render a unified test sequence like the paper's Tables 1/3/4: one row per
/// time unit with original inputs, then scan_sel, then scan_inp.
std::string format_sequence_table(const ScanCircuit& sc, const TestSequence& seq);

/// Emit an annotated per-cycle tester program: inputs, expected primary
/// output values (from good-machine simulation; 'x' = don't compare), and
/// scan-operation annotations. This is the artifact a test engineer would
/// load; the expected outputs make every cycle a measurement point, which is
/// what gives the unified sequences their observation power.
std::string format_tester_program(const ScanCircuit& sc, const TestSequence& seq);

}  // namespace uniscan
