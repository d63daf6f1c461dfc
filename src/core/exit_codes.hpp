// Process exit-code taxonomy, shared by uniscan_cli and every table binary
// (asserted in cli_test.cpp). One vocabulary so scripts and CI can branch on
// WHAT went wrong, not which binary said it:
//
//   0  success (including graceful deadline degradation — partial but
//      verified results are success, per DESIGN.md §5f)
//   1  runtime error (bad input file, malformed circuit, ...)
//   2  usage error (unknown flag/command)
//   3  internal error (unexpected exception escaping main)
//   4  suite ran but some rows failed (isolated per-circuit failures; only
//      the table binaries run suites)
#pragma once

namespace uniscan {

inline constexpr int kExitOk = 0;
inline constexpr int kExitError = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitInternal = 3;
inline constexpr int kExitHadFailures = 4;

}  // namespace uniscan
