// Seeded fuzz tier for the .useq and .utst readers: valid round-trip text is
// mutated (characters flipped, lines dropped or repeated, header counts
// edited) and every mutant must either parse, and then round-trip, or throw
// std::runtime_error naming the source and the line. No other exception
// type may escape, whatever the header claims.
//
// Every mutation derives from the gtest parameter seed alone, so a failing
// case replays exactly from its --gtest_filter suffix. The same file builds
// twice: a few seeds in uniscan_tests (tier1) and a wider range in
// uniscan_slow_tests (-DUNISCAN_SLOW_FUZZ, ctest label `slow`).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/sequence_io.hpp"
#include "util/rng.hpp"

namespace uniscan {
namespace {

#ifdef UNISCAN_SLOW_FUZZ
constexpr std::uint64_t kSeedEnd = 41;
#else
constexpr std::uint64_t kSeedEnd = 5;
#endif
constexpr int kMutantsPerSeed = 1000;

V3 random_v3(Rng& rng) {
  static constexpr V3 kValues[] = {V3::Zero, V3::One, V3::X};
  return kValues[rng.next_below(3)];
}

std::vector<V3> random_row(Rng& rng, std::size_t width) {
  std::vector<V3> row(width);
  for (V3& v : row) v = random_v3(rng);
  return row;
}

std::string random_sequence_text(Rng& rng) {
  TestSequence seq(rng.next_below(7));
  for (std::size_t t = rng.next_below(9); t-- > 0;) seq.append(random_row(rng, seq.num_inputs()));
  return write_sequence_string(seq);
}

std::string random_test_set_text(Rng& rng) {
  ScanTestSet set;
  set.num_original_inputs = rng.next_below(5);
  set.chain_length = rng.next_below(5);
  const std::size_t scan_width = set.chain_length + rng.next_below(3);
  for (std::size_t i = 1 + rng.next_below(4); i-- > 0;) {
    ScanTest t{random_row(rng, scan_width), {}};
    for (std::size_t v = 1 + rng.next_below(3); v-- > 0;)
      t.vectors.push_back(random_row(rng, set.num_original_inputs));
    set.tests.push_back(std::move(t));
  }
  return write_test_set_string(set);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// One to three random edits of `text`.
std::string mutate(Rng& rng, const std::string& text) {
  static constexpr char kChars[] = "01xX2-+ \t#\nv9tesqu";
  static const char* const kCounts[] = {"-1", "-3", "+2", "0", "007", "4 junk", "4junk", "",
                                        "99999999999999", "18446744073709551615",
                                        "18446744073709551616", "1e3"};
  std::vector<std::string> lines = split_lines(text);
  for (std::size_t edits = 1 + rng.next_below(3); edits-- > 0;) {
    if (lines.empty()) lines.emplace_back();
    std::string& line = lines[rng.next_below(lines.size())];
    switch (rng.next_below(5)) {
      case 0:  // flip a character
        if (!line.empty())
          line[rng.next_below(line.size())] = kChars[rng.next_below(sizeof kChars - 1)];
        break;
      case 1:  // drop a line
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
        break;
      case 2: {  // repeat a line
        const std::size_t i = rng.next_below(lines.size());
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        break;
      }
      default: {  // replace a header count (the header is the first line)
        std::istringstream is(lines[0]);
        std::vector<std::string> words;
        for (std::string w; is >> w;) words.push_back(w);
        if (words.size() > 2) {
          words[2 + rng.next_below(words.size() - 2)] =
              kCounts[rng.next_below(std::size(kCounts))];
          lines[0].clear();
          for (const std::string& w : words) lines[0] += w + " ";
        }
        break;
      }
    }
  }
  return join_lines(lines);
}

/// Runs `read` on `text` and checks the reader's error contract; returns
/// whether it parsed.
template <class Read>
bool parses_or_names_line(const std::string& text, const char* source, Read&& read) {
  try {
    read(text);
    return true;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string("in ") + source + " at line "), std::string::npos)
        << what << "\n--- input ---\n" << text;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-runtime_error escaped: " << e.what() << "\n--- input ---\n" << text;
  } catch (...) {
    ADD_FAILURE() << "non-standard exception escaped\n--- input ---\n" << text;
  }
  return false;
}

TestSequence read_useq(const std::string& text) {
  std::istringstream is(text);
  return read_sequence(is, "fuzz.useq");
}

ScanTestSet read_utst(const std::string& text) {
  std::istringstream is(text);
  return read_test_set(is, "fuzz.utst");
}

class SequenceIoFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SequenceIoFuzz, MutatedSequencesParseOrNameTheirLine) {
  Rng rng(GetParam() * 7919 + 101);
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string text = mutate(rng, random_sequence_text(rng));
    if (!parses_or_names_line(text, "fuzz.useq", read_useq)) continue;
    const TestSequence seq = read_useq(text);
    EXPECT_EQ(read_sequence_string(write_sequence_string(seq)), seq) << text;
  }
}

TEST_P(SequenceIoFuzz, MutatedTestSetsParseOrNameTheirLine) {
  Rng rng(GetParam() * 7919 + 202);
  for (int i = 0; i < kMutantsPerSeed; ++i) {
    const std::string text = mutate(rng, random_test_set_text(rng));
    if (!parses_or_names_line(text, "fuzz.utst", read_utst)) continue;
    const ScanTestSet set = read_utst(text);
    const ScanTestSet back = read_test_set_string(write_test_set_string(set));
    EXPECT_EQ(back.num_original_inputs, set.num_original_inputs) << text;
    EXPECT_EQ(back.chain_length, set.chain_length) << text;
    ASSERT_EQ(back.tests.size(), set.tests.size()) << text;
    for (std::size_t t = 0; t < set.tests.size(); ++t) {
      EXPECT_EQ(back.tests[t].scan_in, set.tests[t].scan_in) << text;
      EXPECT_EQ(back.tests[t].vectors, set.tests[t].vectors) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequenceIoFuzz, ::testing::Range<std::uint64_t>(1, kSeedEnd));

}  // namespace
}  // namespace uniscan
