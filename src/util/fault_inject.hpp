// Deterministic failure injection for robustness tests and CI.
//
// UNISCAN_FAULT_INJECT holds one spec of the form
//
//   <circuit>:<stage>
//
// A matching call site throws a std::runtime_error the moment it starts;
// every other circuit and stage runs untouched. <circuit> and <stage> match
// exactly, or by prefix when they end in "*" ("*" alone matches anything).
// Unset (the normal case), the hook is a single getenv.
//
// The pipeline fires it per (circuit, stage) pair (load/scan/faults/atpg/...).
// This exists so the suite-isolation tests and the CI robustness job can
// prove that one poisoned circuit never takes down a suite run — the
// exception travels the exact path a real parse error or ATPG blowup would.
#pragma once

#include <string>

namespace uniscan {

/// Throws std::runtime_error when the UNISCAN_FAULT_INJECT spec matches
/// `<circuit>:<stage>`; returns quietly otherwise.
void maybe_inject_fault(const std::string& circuit, const std::string& stage);

}  // namespace uniscan
