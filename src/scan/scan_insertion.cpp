#include "scan/scan_insertion.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace uniscan {

std::size_t ScanCircuit::max_chain_length() const {
  std::size_t m = 0;
  for (const auto& ch : nets.chains) m = std::max(m, ch.cells.size());
  return m;
}

ScanCircuit insert_scan(const Netlist& c, std::size_t num_chains) {
  if (!c.is_finalized()) throw std::invalid_argument("insert_scan: netlist not finalized");
  if (c.num_dffs() == 0) throw std::invalid_argument("insert_scan: circuit has no flip-flops");
  if (num_chains == 0 || num_chains > c.num_dffs())
    throw std::invalid_argument("insert_scan: bad chain count");

  Netlist out(c.name() + "_scan");

  // Copy all gates in id order so that new ids equal old ids. Fanins may
  // reference gates not yet copied; that is fine because ids are stable.
  for (GateId g = 0; g < c.num_gates(); ++g) {
    const Gate& gate = c.gate(g);
    switch (gate.type) {
      case GateType::Input:
        out.add_input(gate.name);
        break;
      case GateType::Dff:
        out.add_dff(gate.name, gate.fanins[0]);
        break;
      default:
        out.add_gate(gate.type, gate.name, gate.fanins);
        break;
    }
  }
  for (GateId po : c.outputs()) out.add_output(po);

  ScanNets nets;
  const GateId scan_sel = out.add_input("scan_sel");
  nets.scan_sel_index = out.num_inputs() - 1;

  // Split the FFs into `num_chains` contiguous, balanced chains.
  const std::size_t n = c.num_dffs();
  const std::size_t base_len = n / num_chains;
  const std::size_t extra = n % num_chains;
  std::size_t next_ff = 0;
  for (std::size_t ci = 0; ci < num_chains; ++ci) {
    ScanChain chain;
    const std::size_t len = base_len + (ci < extra ? 1 : 0);
    const std::string suffix = num_chains == 1 ? std::string{} : numbered("_", ci);

    const GateId scan_inp = out.add_input("scan_inp" + suffix);
    chain.scan_inp_index = out.num_inputs() - 1;

    GateId prev = scan_inp;
    for (std::size_t k = 0; k < len; ++k) {
      const GateId ff = c.dffs()[next_ff++];
      const GateId functional_d = c.gate(ff).fanins[0];
      const GateId mux = out.add_gate(GateType::Mux2, "scan_mux_" + c.gate(ff).name,
                                      {functional_d, prev, scan_sel});
      out.set_dff_input(ff, mux);
      chain.cells.push_back(ff);
      prev = ff;
    }

    // scan_out is the Q of the last cell. If that net already is a PO, tap
    // it through a buffer so the PO list stays duplicate-free.
    GateId scan_out_net = prev;
    if (out.output_index(scan_out_net).has_value())
      scan_out_net = out.add_gate(GateType::Buf, "scan_out_buf" + suffix, {prev});
    out.add_output(scan_out_net);
    chain.scan_out_index = out.num_outputs() - 1;

    nets.chains.push_back(std::move(chain));
  }

  out.finalize();
  return ScanCircuit{std::move(out), std::move(nets)};
}

}  // namespace uniscan
