// Umbrella header: the public API of the uniscan library.
//
// uniscan reproduces "A New Approach to Test Generation and Test Compaction
// for Scan Circuits" (Pomeranz & Reddy, DATE 2003): scan lines are treated
// as ordinary circuit inputs/outputs, test generation and static compaction
// run on the resulting sequential circuit, and limited scan operations fall
// out for free.
//
// Typical use:
//   Netlist c = read_bench_file("s298.bench");      // or make_s27()
//   ScanCircuit sc = insert_scan(c);
//   AtpgResult r = generate_tests(sc);              // Section-2 generator
//   FaultList fl = FaultList::collapsed(sc.netlist);
//   auto restored = restoration_compact(sc.netlist, r.sequence, fl.faults());
//   auto omitted  = omission_compact(sc.netlist, restored.sequence, fl.faults());
// or one call:
//   auto report = run_generate_and_compact(c);
#pragma once

#include "atpg/podem.hpp"
#include "atpg/scan_knowledge.hpp"
#include "atpg/seq_atpg.hpp"
#include "baseline/comb_atpg.hpp"
#include "baseline/scan_testset_gen.hpp"
#include "compact/omission.hpp"
#include "compact/restoration.hpp"
#include "core/pipeline.hpp"
#include "corpus/corpus.hpp"
#include "corpus/golden.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "fault/fault_list.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan_insertion.hpp"
#include "scan/scan_test.hpp"
#include "atpg/redundancy.hpp"
#include "atpg/transition_atpg.hpp"
#include "sim/transition_sim.hpp"
#include "sim/fault_sim.hpp"
#include "sim/fault_sim_session.hpp"
#include "sim/sequence.hpp"
#include "sim/sequence_io.hpp"
#include "sim/sequential_sim.hpp"
#include "translate/translation.hpp"
#include "workloads/circuits.hpp"
#include "workloads/suite.hpp"
#include "workloads/synth_gen.hpp"
