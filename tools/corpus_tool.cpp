// Corpus maintenance tool (DESIGN.md §5i).
//
//   corpus_tool list   [tier]          enumerate registry rows + file status
//   corpus_tool verify [tier]          hash-check every loadable circuit
//   corpus_tool synth  <name>|<tier>|all   materialize stand-in .bench files
//   corpus_tool hash   [tier]          print "name<TAB>sha256" of canonical text
//   corpus_tool digest <name> [--text] compute the golden digest (print hex)
//   corpus_tool regen-golden <name>|<tier>   recompute golden/<ckt>.ans.sha
//   corpus_tool check-golden <name>|<tier>   compare digests against golden
//
// Common flags: --corpus-dir=DIR (default: UNISCAN_CORPUS_DIR env or the
// compiled-in source corpus), --threads=N (sizes the global pool; results
// are bit-identical at any value, DESIGN.md §5d).
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/exit_codes.hpp"
#include "corpus/corpus.hpp"
#include "corpus/golden.hpp"
#include "util/sha256.hpp"
#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"

using namespace uniscan;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: corpus_tool [--corpus-dir=DIR] [--threads=N] <command> [args]\n"
               "commands: list|verify|hash [tier], synth <name>|<tier>|all,\n"
               "          digest <name> [--text], regen-golden <sel>, check-golden <sel>\n");
  return kExitUsage;
}

/// Resolve a selector ("all", a tier name, or a circuit name) to entries.
std::vector<CorpusEntry> select(const CorpusRegistry& reg, const std::string& sel) {
  if (sel.empty() || sel == "all") return reg.entries();
  CorpusTier tier;
  if (parse_corpus_tier(sel, tier)) return reg.tier(tier);
  if (const CorpusEntry* e = reg.find(sel)) return {*e};
  std::fprintf(stderr, "corpus_tool: unknown tier or circuit '%s'\n", sel.c_str());
  std::exit(2);
}

int cmd_list(const CorpusRegistry& reg, const std::string& sel) {
  for (const CorpusEntry& e : select(reg, sel)) {
    std::printf("%-10s %-5s %-8s pi=%-4zu ff=%-5zu gates=%-6zu %s%s\n", e.name.c_str(),
                corpus_tier_name(e.tier), e.source.c_str(), e.num_inputs, e.num_dffs, e.num_gates,
                reg.has_file(e) ? "file" : (e.source == "file" ? "NOT-FETCHED" : "in-memory"),
                read_golden_sha(reg.golden_path(e)).empty() ? "" : " +golden");
  }
  return 0;
}

int cmd_verify(const CorpusRegistry& reg, const std::string& sel) {
  int bad = 0;
  for (const CorpusEntry& e : select(reg, sel)) {
    if (e.source == "file" && !reg.has_file(e)) {
      std::printf("%-10s SKIP (not fetched)\n", e.name.c_str());
      continue;
    }
    try {
      const Netlist nl = reg.load(e);
      std::printf("%-10s OK (%zu gates)\n", e.name.c_str(), nl.num_gates());
    } catch (const std::exception& ex) {
      std::printf("%-10s FAIL: %s\n", e.name.c_str(), ex.what());
      ++bad;
    }
  }
  return bad == 0 ? 0 : 1;
}

int cmd_hash(const CorpusRegistry& reg, const std::string& sel) {
  for (const CorpusEntry& e : select(reg, sel)) {
    if (e.source == "file" && !reg.has_file(e)) continue;
    std::printf("%s\t%s\n", e.name.c_str(), sha256_hex(reg.bench_text(e, false)).c_str());
  }
  return 0;
}

int cmd_synth(const CorpusRegistry& reg, const std::string& sel) {
  std::filesystem::create_directories(std::filesystem::path(reg.dir()) / "circuits");
  for (const CorpusEntry& e : select(reg, sel)) {
    if (e.source != "synth") continue;
    const std::string path = reg.circuit_path(e);
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "corpus_tool: cannot write %s\n", path.c_str());
      return 1;
    }
    out << CorpusRegistry::synth_bench_text(e);
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

int cmd_digest(const CorpusRegistry& reg, const std::string& name, bool print_text) {
  const CorpusEntry* e = reg.find(name);
  if (!e) {
    std::fprintf(stderr, "corpus_tool: unknown circuit '%s'\n", name.c_str());
    return 2;
  }
  const CircuitDigest d = compute_corpus_digest(reg, *e);
  if (print_text) std::fputs(d.canonical_text.c_str(), stdout);
  std::printf("%s  %s\n", d.sha_hex.c_str(), d.circuit.c_str());
  return 0;
}

int cmd_golden(const CorpusRegistry& reg, const std::string& sel, bool regen) {
  std::filesystem::create_directories(std::filesystem::path(reg.dir()) / "golden");
  int bad = 0;
  for (const CorpusEntry& e : select(reg, sel)) {
    if (e.source == "file" && !reg.has_file(e)) continue;
    const std::string path = reg.golden_path(e);
    const CircuitDigest d = compute_corpus_digest(reg, e);
    if (regen) {
      write_golden_sha(path, d.sha_hex);
      std::printf("%-10s %s (written)\n", e.name.c_str(), d.sha_hex.c_str());
      continue;
    }
    const std::string want = read_golden_sha(path);
    if (want.empty()) {
      std::printf("%-10s NO-GOLDEN (%s)\n", e.name.c_str(), d.sha_hex.c_str());
      ++bad;
    } else if (want != d.sha_hex) {
      std::printf("%-10s MISMATCH got %s want %s\n", e.name.c_str(), d.sha_hex.c_str(),
                  want.c_str());
      ++bad;
    } else {
      std::printf("%-10s OK %s\n", e.name.c_str(), d.sha_hex.c_str());
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus_dir;
  std::size_t threads = 1;
  std::vector<std::string> rest;
  bool print_text = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--corpus-dir=", 0) == 0) corpus_dir = arg.substr(13);
    else if (arg.rfind("--threads=", 0) == 0) {
      const auto n = flag_uint(arg, ThreadPool::kMaxThreads);
      if (!n) return kExitUsage;
      threads = *n;
    } else if (arg == "--text") print_text = true;
    else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return kExitUsage;
    } else rest.push_back(arg);
  }
  if (rest.empty()) return usage();
  ThreadPool::set_global_threads(threads == 0 ? 1 : threads);
  const CorpusRegistry owned(corpus_dir.empty() ? CorpusRegistry::default_dir() : corpus_dir);
  const CorpusRegistry& reg = owned;

  const std::string& cmd = rest[0];
  const std::string sel = rest.size() > 1 ? rest[1] : std::string();
  try {
    if (cmd == "list") return cmd_list(reg, sel);
    if (cmd == "verify") return cmd_verify(reg, sel);
    if (cmd == "hash") return cmd_hash(reg, sel);
    if (cmd == "synth") return cmd_synth(reg, sel.empty() ? "all" : sel);
    if (cmd == "digest" && !sel.empty()) return cmd_digest(reg, sel, print_text);
    if (cmd == "regen-golden" && !sel.empty()) return cmd_golden(reg, sel, /*regen=*/true);
    if (cmd == "check-golden" && !sel.empty()) return cmd_golden(reg, sel, /*regen=*/false);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "corpus_tool: %s\n", ex.what());
    return 1;
  }
  return usage();
}
