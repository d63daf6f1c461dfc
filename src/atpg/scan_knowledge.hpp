// Functional-level scan knowledge (paper Section 2).
//
// The test generator treats C_scan as an ordinary sequential circuit, but it
// knows two things a generic generator does not:
//  * an effect latched in chain cell p can be carried to scan_out by holding
//    scan_sel = 1 (the flush sequence), and
//  * any state s can be justified by a full-length scan load with
//    scan_sel = 1 and scan_inp fed with s reversed.
#pragma once

#include <cstddef>
#include <optional>

#include "scan/scan_insertion.hpp"
#include "sim/sequence.hpp"
#include "sim/sequential_sim.hpp"
#include "util/rng.hpp"

namespace uniscan {

/// Chain coordinates of DFF `dff_index` (Netlist::dffs() order): which chain
/// and which cell. Chains partition the DFFs contiguously in order.
struct ChainPosition {
  std::size_t chain = 0;
  std::size_t cell = 0;
};
ChainPosition chain_position(const ScanCircuit& sc, std::size_t dff_index);

/// Vectors needed to move an effect from chain cell `cell_pos` (0-based)
/// through the chain tail and observe it on scan_out: one shift per
/// remaining cell plus the observation frame.
inline std::size_t flush_length(const ScanChain& chain, std::size_t cell_pos) {
  return chain.cells.size() - cell_pos;
}

/// Build `shifts` vectors with scan_sel = 1. Original primary inputs and
/// scan_inp are filled randomly (the paper fills them randomly as well).
TestSequence make_flush_sequence(const ScanCircuit& sc, std::size_t chain_index,
                                 std::size_t shifts, Rng& rng);

/// Build the scan-load sequence that brings chain `chain_index` to `state`
/// (state[j] is the target value of chain cell j): chain-length vectors with
/// scan_sel = 1 and scan_inp carrying `state` in reverse order. Other
/// primary inputs are filled randomly.
TestSequence make_scan_load_sequence(const ScanCircuit& sc, std::size_t chain_index,
                                     const State& state, Rng& rng);

/// Build the scan-load for ALL chains at once: max-chain-length vectors with
/// scan_sel = 1; each chain's scan_inp feeds its slice of `state` (indexed
/// like Netlist::dffs()) so that after the load every flip-flop holds its
/// target value. X entries (and shifts that fall off a shorter chain) are
/// filled randomly.
TestSequence make_scan_load_all(const ScanCircuit& sc, const State& state, Rng& rng);

/// Append to `seq` the flush that carries an effect latched in DFF
/// `dff_index` to scan_out (make_flush_sequence over the tail of its chain).
void append_flush(const ScanCircuit& sc, TestSequence& seq, std::size_t dff_index, Rng& rng);

/// A complete scan test on C_scan: the scan load of `scan_in`
/// (make_scan_load_all), then `body`, then — when the effect was only
/// latched into DFF `*latched_dff` rather than observed at a PO — its flush
/// (append_flush). Draws from `rng` in that order.
TestSequence make_scan_test(const ScanCircuit& sc, const State& scan_in, const TestSequence& body,
                            std::optional<std::size_t> latched_dff, Rng& rng);

}  // namespace uniscan
