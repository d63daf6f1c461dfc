// Golden-digest regression over the benchmark corpus (DESIGN.md §5i).
//
// Tier-1 (uniscan_tests): SHA-256 unit vectors, registry/manifest checks,
// and the digest invariance matrix on s1423 — the same circuit digested at
// 1/2/4 threads and with the slot width capped at 64 and 256 bits must
// produce ONE hash (the determinism contracts of DESIGN.md §5d/§5h/§5j
// collapsed into a single comparison). The fast tier is also checked
// against its checked-in corpus/golden/<ckt>.ans.sha files.
//
// Slow (uniscan_slow_tests, -DUNISCAN_SLOW_CORPUS, ctest label `slow`):
// the full fast+mid sweep against the golden files plus the full
// width-cap × thread matrix on the mid-tier anchors (s1423, s5378).
//
// Refresh goldens after an intentional behavior change with
//   UNISCAN_REGEN_GOLDEN=1 ./uniscan_tests --gtest_filter='CorpusDigest.*'
// (mirroring the trace-golden tier). Changing a digest profile or the
// canonical record bumps kDigestFormatVersion in corpus/golden.hpp.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "corpus/golden.hpp"
#include "sim/engine.hpp"
#include "util/sha256.hpp"
#include "util/thread_pool.hpp"

namespace uniscan {
namespace {

/// The digest of `e` with the slot width capped at `cap` (a W512 cap leaves
/// the CPU's native width) and a pool of `threads`; restores one thread on
/// exit so test order cannot leak configuration.
std::string digest_under(const CorpusRegistry& reg, const CorpusEntry& e, SlotWidth cap,
                         std::size_t threads) {
  const detail::SlotWidthCap width(cap);
  ThreadPool::set_global_threads(threads);
  std::string sha = compute_corpus_digest(reg, e).sha_hex;
  ThreadPool::set_global_threads(1);
  return sha;
}

/// Compare one circuit's digest against its golden file; with
/// UNISCAN_REGEN_GOLDEN set, rewrite the golden instead.
void check_against_golden(const CorpusRegistry& reg, const CorpusEntry& e) {
  const CircuitDigest d = compute_corpus_digest(reg, e);
  const std::string path = reg.golden_path(e);
  if (std::getenv("UNISCAN_REGEN_GOLDEN")) {
    write_golden_sha(path, d.sha_hex);
    return;
  }
  const std::string want = read_golden_sha(path);
  ASSERT_FALSE(want.empty()) << "no golden digest for " << e.name << " at " << path
                             << " (generate with UNISCAN_REGEN_GOLDEN=1 or corpus_tool)";
  EXPECT_EQ(d.sha_hex, want) << e.name << ": pipeline behavior changed; if intentional, "
                             << "regenerate with UNISCAN_REGEN_GOLDEN=1 and bump "
                             << "kDigestFormatVersion when the record format changed";
}

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Sha256 h;
  h.update(std::string_view(msg).substr(0, 13));
  h.update(std::string_view(msg).substr(13, 700));
  h.update(std::string_view(msg).substr(713));
  EXPECT_EQ(h.hex(), sha256_hex(msg));
}

TEST(CorpusRegistry, ManifestLoadsAndFindsAnchors) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  ASSERT_FALSE(reg.entries().empty()) << "corpus manifest missing at " << reg.dir();
  for (const char* name : {"s1423", "s5378", "s9234", "s13207"}) {
    const CorpusEntry* e = reg.find(name);
    ASSERT_NE(e, nullptr) << name;
    EXPECT_FALSE(e->sha256.empty()) << name << " must carry a hash pin";
    EXPECT_TRUE(reg.has_file(*e)) << name << " must be checked in";
  }
  EXPECT_GE(reg.tier(CorpusTier::Fast).size(), 10u);
  EXPECT_GE(reg.tier(CorpusTier::Mid).size(), 10u);
  EXPECT_FALSE(reg.tier(CorpusTier::Large).empty());
}

TEST(CorpusRegistry, HashPinsVerifyAndMismatchThrows) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  const CorpusEntry* e = reg.find("s1423");
  ASSERT_NE(e, nullptr);
  EXPECT_NO_THROW(reg.bench_text(*e, /*verify=*/true));
  CorpusEntry tampered = *e;
  tampered.sha256 = std::string(64, '0');
  EXPECT_THROW(reg.bench_text(tampered, /*verify=*/true), std::runtime_error);
}

// The manifest pin is the synthetic generator's byte-level oracle: every
// synth row of every tier, large included, regenerated in memory must hash
// to its pin, and its canonical text (a checked-in file where there is one)
// must pass the load-time pin check, as `corpus_tool verify all` does in CI.
TEST(CorpusRegistry, EverySynthRowReproducesItsPin) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  std::size_t rows = 0, large = 0;
  for (const CorpusEntry& e : reg.entries()) {
    if (e.source != "synth") continue;
    ASSERT_FALSE(e.sha256.empty()) << e.name << " must carry a hash pin";
    EXPECT_EQ(sha256_hex(CorpusRegistry::synth_bench_text(e)), e.sha256) << e.name;
    EXPECT_NO_THROW(reg.bench_text(e, /*verify=*/true)) << e.name;
    ++rows;
    if (e.tier == CorpusTier::Large) ++large;
  }
  EXPECT_GT(rows, 0u);
  EXPECT_EQ(large, reg.tier(CorpusTier::Large).size()) << "every large row is synth";
}

TEST(CorpusRegistry, SuiteEntriesCarryCorpusBinding) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  const auto rows = reg.suite_entries(CorpusTier::Mid);
  ASSERT_FALSE(rows.empty());
  for (const SuiteEntry& s : rows) {
    EXPECT_TRUE(s.from_corpus) << s.name;
    EXPECT_FALSE(s.bench_path.empty()) << s.name;
  }
}

TEST(CorpusGolden, ReadWriteRoundTrip) {
  const std::string path = ::testing::TempDir() + "roundtrip.ans.sha";
  const std::string hex(64, 'a');
  write_golden_sha(path, hex);
  EXPECT_EQ(read_golden_sha(path), hex);
  EXPECT_EQ(read_golden_sha(path + ".missing"), "");
  write_golden_sha(path, "not-a-digest");
  EXPECT_THROW(read_golden_sha(path), std::runtime_error);
  std::remove(path.c_str());
}

#ifndef UNISCAN_SLOW_CORPUS

// ---- tier-1: invariance matrix on the s1423 anchor + fast-tier goldens ----

TEST(CorpusDigest, S1423InvariantAcrossThreadsAndWidths) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  const CorpusEntry* e = reg.find("s1423");
  ASSERT_NE(e, nullptr);
  const std::string ref = digest_under(reg, *e, SlotWidth::W512, 1);
  EXPECT_EQ(digest_under(reg, *e, SlotWidth::W512, 4), ref) << "threads changed the digest";
  EXPECT_EQ(digest_under(reg, *e, SlotWidth::W64, 4), ref) << "64-bit slots changed the digest";
  EXPECT_EQ(digest_under(reg, *e, SlotWidth::W256, 2), ref)
      << "256-bit slots changed the digest";
}

TEST(CorpusDigest, FastTierMatchesGolden) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  for (const CorpusEntry& e : reg.tier(CorpusTier::Fast)) {
    SCOPED_TRACE(e.name);
    check_against_golden(reg, e);
  }
}

TEST(CorpusDigest, S1423MatchesGolden) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  const CorpusEntry* e = reg.find("s1423");
  ASSERT_NE(e, nullptr);
  check_against_golden(reg, *e);
}

#else  // UNISCAN_SLOW_CORPUS

// ---- slow: the full fast+mid golden sweep + a wider matrix on the anchors --

TEST(CorpusDigestSlow, FastAndMidTiersMatchGolden) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  for (const CorpusEntry& e : reg.entries()) {
    if (e.tier == CorpusTier::Large) continue;  // nightly / corpus_tool territory
    SCOPED_TRACE(e.name);
    check_against_golden(reg, e);
  }
}

TEST(CorpusDigestSlow, AnchorsInvariantAcrossFullMatrix) {
  const CorpusRegistry& reg = CorpusRegistry::global();
  constexpr std::array<std::size_t, 4> kThreads = {1, 2, 4, 8};
  constexpr std::array<SlotWidth, 3> kWidths = {SlotWidth::W64, SlotWidth::W256,
                                                SlotWidth::W512};

  // s1423: every width cap at every thread count.
  {
    const CorpusEntry* e = reg.find("s1423");
    ASSERT_NE(e, nullptr);
    const std::string ref = digest_under(reg, *e, SlotWidth::W512, 1);
    for (const SlotWidth width : kWidths)
      for (const std::size_t threads : kThreads)
        EXPECT_EQ(digest_under(reg, *e, width, threads), ref)
            << "s1423 width cap=" << slot_width_bits(width) << " threads=" << threads;
  }

  // s5378: the matrix extremes.
  {
    const CorpusEntry* e = reg.find("s5378");
    ASSERT_NE(e, nullptr);
    const std::string ref = digest_under(reg, *e, SlotWidth::W512, 1);
    EXPECT_EQ(digest_under(reg, *e, SlotWidth::W512, 8), ref);
    EXPECT_EQ(digest_under(reg, *e, SlotWidth::W64, 2), ref);
  }
}

#endif  // UNISCAN_SLOW_CORPUS

}  // namespace
}  // namespace uniscan
