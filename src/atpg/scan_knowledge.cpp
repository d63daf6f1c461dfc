#include "atpg/scan_knowledge.hpp"

#include <stdexcept>

namespace uniscan {

namespace {

std::vector<V3> random_vector(const ScanCircuit& sc, Rng& rng) {
  std::vector<V3> vec(sc.netlist.num_inputs());
  for (auto& v : vec) v = rng.next_bool() ? V3::One : V3::Zero;
  return vec;
}

}  // namespace

ChainPosition chain_position(const ScanCircuit& sc, std::size_t dff_index) {
  std::size_t base = 0;
  for (std::size_t c = 0; c < sc.nets.chains.size(); ++c) {
    const std::size_t len = sc.nets.chains[c].cells.size();
    if (dff_index < base + len) return {c, dff_index - base};
    base += len;
  }
  return {0, 0};
}

TestSequence make_flush_sequence(const ScanCircuit& sc, std::size_t chain_index,
                                 std::size_t shifts, Rng& rng) {
  const ScanChain& chain = sc.nets.chains.at(chain_index);
  (void)chain;
  TestSequence seq(sc.netlist.num_inputs());
  for (std::size_t k = 0; k < shifts; ++k) {
    auto vec = random_vector(sc, rng);
    vec[sc.scan_sel_index()] = V3::One;
    seq.append(std::move(vec));
  }
  return seq;
}

TestSequence make_scan_load_sequence(const ScanCircuit& sc, std::size_t chain_index,
                                     const State& state, Rng& rng) {
  const ScanChain& chain = sc.nets.chains.at(chain_index);
  const std::size_t n = chain.cells.size();
  if (state.size() != n)
    throw std::invalid_argument("make_scan_load_sequence: state width != chain length");

  TestSequence seq(sc.netlist.num_inputs());
  for (std::size_t k = 0; k < n; ++k) {
    auto vec = random_vector(sc, rng);
    vec[sc.scan_sel_index()] = V3::One;
    // The value fed at shift k ends up in cell n-1-k after n shifts, so the
    // state is fed in reverse order (the paper's Section-2 example).
    vec[chain.scan_inp_index] = state[n - 1 - k];
    seq.append(std::move(vec));
  }
  return seq;
}

TestSequence make_scan_load_all(const ScanCircuit& sc, const State& state, Rng& rng) {
  if (state.size() != sc.netlist.num_dffs())
    throw std::invalid_argument("make_scan_load_all: state width != DFF count");
  const std::size_t total = sc.max_chain_length();

  TestSequence seq(sc.netlist.num_inputs());
  for (std::size_t t = 0; t < total; ++t) {
    auto vec = random_vector(sc, rng);
    vec[sc.scan_sel_index()] = V3::One;
    // Chains are contiguous slices of the DFF list (insert_scan invariant).
    std::size_t base = 0;
    for (const ScanChain& chain : sc.nets.chains) {
      const std::size_t len = chain.cells.size();
      // The value fed at time t lands in cell (total-1-t) after `total`
      // shifts; earlier feeds fall off the chain end and do not matter.
      const std::size_t target = total - 1 - t;
      if (target < len) {
        const V3 v = state[base + target];
        if (v != V3::X) vec[chain.scan_inp_index] = v;
      }
      base += len;
    }
    seq.append(std::move(vec));
  }
  return seq;
}

void append_flush(const ScanCircuit& sc, TestSequence& seq, std::size_t dff_index, Rng& rng) {
  const ChainPosition pos = chain_position(sc, dff_index);
  seq.append_sequence(make_flush_sequence(
      sc, pos.chain, flush_length(sc.nets.chains[pos.chain], pos.cell), rng));
}

TestSequence make_scan_test(const ScanCircuit& sc, const State& scan_in, const TestSequence& body,
                            std::optional<std::size_t> latched_dff, Rng& rng) {
  TestSequence seq = make_scan_load_all(sc, scan_in, rng);
  seq.append_sequence(body);
  if (latched_dff) append_flush(sc, seq, *latched_dff, rng);
  return seq;
}

}  // namespace uniscan
