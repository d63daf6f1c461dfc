// Benchmark corpus registry (DESIGN.md §5i).
//
// The corpus is a data directory (default `corpus/` next to the binaries,
// overridable with UNISCAN_CORPUS_DIR) holding:
//
//   manifest.tsv          one line per circuit: name, tier, source, PI/FF/
//                         gate profile, pinned SHA-256 of the canonical
//                         .bench text, upstream URL
//   circuits/<name>.bench checked-in or fetched circuit files
//   golden/<name>.ans.sha one-line SHA-256 of the circuit's canonical
//                         pipeline result (corpus/golden.hpp)
//
// Sources:
//   embedded  the netlist compiled into the library (s27)
//   file      a real upstream circuit; must be fetched (tools/fetch_corpus)
//             before it can be loaded
//   synth     a deterministic profile-matched stand-in; loadable with or
//             without a materialized file (the in-memory generation produces
//             byte-identical .bench text, so the manifest hash pin applies
//             either way)
//
// Tiers scale the suite: `fast` rows run in the default experiment runs and
// tier-1 tests, `mid` rows back the corpus digest sweep (ctest label `slow`),
// `large` rows are nightly/fetch material.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "workloads/suite.hpp"
#include "workloads/synth_gen.hpp"

namespace uniscan {

enum class CorpusTier { Fast, Mid, Large };

const char* corpus_tier_name(CorpusTier t) noexcept;
bool parse_corpus_tier(std::string_view s, CorpusTier& out) noexcept;

struct CorpusEntry {
  std::string name;
  CorpusTier tier = CorpusTier::Fast;
  std::string source;  // "embedded" | "file" | "synth"
  std::size_t num_inputs = 0;
  std::size_t num_dffs = 0;
  std::size_t num_gates = 0;
  std::string sha256;  // pinned hash of the canonical .bench text ("-" in the file = unpinned)
  std::string url;     // upstream origin for tools/fetch_corpus ("-" = none)
};

/// Parses `<dir>/manifest.tsv` once and answers name/tier queries. Loading
/// verifies circuit content against the manifest pin, so a silently edited
/// or truncated corpus file fails loudly instead of producing a digest
/// mismatch three layers later.
class CorpusRegistry {
 public:
  /// Read `<dir>/manifest.tsv`. Throws std::runtime_error on a malformed
  /// manifest (bad tier, bad field count, duplicate name — with line numbers).
  explicit CorpusRegistry(std::string dir);

  /// Registry over default_dir(), constructed on first use. Missing manifest
  /// yields an empty registry (the synthetic paper suite still works).
  static const CorpusRegistry& global();

  /// UNISCAN_CORPUS_DIR env var when set, else the compiled-in source-tree
  /// corpus directory (UNISCAN_CORPUS_DIR compile definition), else "corpus".
  static std::string default_dir();

  const std::string& dir() const noexcept { return dir_; }
  const std::vector<CorpusEntry>& entries() const noexcept { return entries_; }
  std::vector<CorpusEntry> tier(CorpusTier t) const;
  const CorpusEntry* find(std::string_view name) const noexcept;

  std::string circuit_path(const CorpusEntry& e) const;
  std::string golden_path(const CorpusEntry& e) const;
  bool has_file(const CorpusEntry& e) const;

  /// Canonical .bench text of the circuit: the file's bytes when the file
  /// exists, else the deterministic in-memory stand-in for `synth` entries.
  /// With `verify`, a manifest hash pin that does not match throws with both
  /// hashes in the message. `file` entries with no file throw a hint to run
  /// tools/fetch_corpus.
  std::string bench_text(const CorpusEntry& e, bool verify = true) const;

  /// bench_text parsed into a finalized netlist (embedded entries load the
  /// compiled-in netlist directly).
  Netlist load(const CorpusEntry& e, bool verify = true) const;

  /// The deterministic stand-in .bench text for a synth entry: profile-exact
  /// (PI/FF/gate counts) and stable across builds, so its hash can be pinned
  /// in the manifest. Byte-identical to what `corpus_tool synth` writes.
  static std::string synth_bench_text(const CorpusEntry& e);

  /// The generator spec behind synth_bench_text: the row's profile and a
  /// seed derived from its name. Throws for a row that is not synth.
  static SynthSpec synth_spec(const CorpusEntry& e);

  /// Corpus rows as suite entries (tier filter optional), ready for the
  /// table binaries' pipeline runners. Every row carries its circuit path +
  /// hash pin so load_circuit() goes through the real .bench parser.
  /// `file` rows that have not been fetched are omitted (not runnable).
  std::vector<SuiteEntry> suite_entries(std::optional<CorpusTier> t = std::nullopt) const;

 private:
  std::string dir_;
  std::vector<CorpusEntry> entries_;
};

}  // namespace uniscan
