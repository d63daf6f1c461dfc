// Golden-digest regression harness over the corpus (DESIGN.md §5i).
//
// For one circuit, run the paper pipeline under a fixed, tier-scaled effort
// profile, render every behavior-bearing outcome into one canonical text
// record (fault partition, per-fault detection flags, sequence lengths,
// compaction outcomes, the final sequence's vectors), and SHA-256 it. The
// digest is the circuit's behavioral fingerprint: bit-identical across
// --threads 1/2/4/8, every built slot width, and every simulation engine
// (the determinism contracts of DESIGN.md §5d/§5e/§5h), so "did PR N change
// behavior on s5378?" is a one-line compare against
// corpus/golden/<ckt>.ans.sha instead of a full-output diff — the
// `.ans.sha` + judge.sh workflow of the Fault_Simulation exemplar.
//
// Digest profiles are part of the digest definition: changing them (or any
// canonicalized field) bumps kDigestFormatVersion and regenerates every
// golden file (UNISCAN_REGEN_GOLDEN=1, mirroring the trace-golden tier).
#pragma once

#include <string>

#include "atpg/seq_atpg.hpp"
#include "corpus/corpus.hpp"
#include "netlist/netlist.hpp"

namespace uniscan {

/// Bumped when the canonical record's fields or the tier profiles change.
inline constexpr int kDigestFormatVersion = 1;

struct DigestOptions {
  AtpgOptions atpg;
  /// Target only the first N collapsed faults (0 = all). Bounds ATPG cost on
  /// large-tier rows; the prefix is deterministic (collapsed order).
  std::size_t max_faults = 0;
  bool run_restoration = true;
  bool run_omission = true;
};

/// The fixed per-tier effort profile. fast = the full pipeline; mid drops
/// omission (the trial loop dominates wall time) and the SAT second chance
/// and caps PODEM's backtracks; large additionally drops restoration and bounds the
/// fault universe. `num_gates` further scales mid rows past
/// kMidGateBudget down to large-row effort — per-PODEM-call and
/// per-fault-sim cost grows with the netlist, so a flat fault budget
/// would make the biggest mid rows dominate the whole sweep.
inline constexpr std::size_t kMidGateBudget = 4000;
DigestOptions digest_profile(CorpusTier tier, std::size_t num_gates = 0);

struct CircuitDigest {
  std::string circuit;
  std::string canonical_text;  // the full canonical record (debugging aid)
  std::string sha_hex;         // SHA-256 of canonical_text, 64 hex chars
};

/// Run the pipeline on `c` under `opt` and canonicalize the results.
CircuitDigest compute_circuit_digest(const Netlist& c, const DigestOptions& opt);

/// Load a corpus entry (hash-verified) and digest it under its tier profile.
CircuitDigest compute_corpus_digest(const CorpusRegistry& reg, const CorpusEntry& e);

/// Read a `.ans.sha` file: one line, 64 hex chars (trailing whitespace
/// tolerated). Returns "" when the file does not exist; throws on a
/// malformed file.
std::string read_golden_sha(const std::string& path);

/// Write `hex` as a single-line `.ans.sha` file (parent dir must exist).
void write_golden_sha(const std::string& path, const std::string& hex);

}  // namespace uniscan
