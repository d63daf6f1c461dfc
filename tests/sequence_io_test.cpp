#include "sim/sequence_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace uniscan {
namespace {

TEST(SequenceIo, RoundTrip) {
  TestSequence seq = TestSequence::from_rows(4, {"01x1", "1110", "xxxx"});
  const TestSequence back = read_sequence_string(write_sequence_string(seq));
  EXPECT_EQ(seq, back);
}

TEST(SequenceIo, EmptySequenceRoundTrips) {
  const TestSequence seq(7);
  const TestSequence back = read_sequence_string(write_sequence_string(seq));
  EXPECT_EQ(back.num_inputs(), 7u);
  EXPECT_EQ(back.length(), 0u);
}

TEST(SequenceIo, CommentsAndBlanksIgnored) {
  const auto text = "# header comment\nuseq v1 2\n\n01  # trailing\n# mid comment\n1x\n";
  const TestSequence seq = read_sequence_string(text);
  ASSERT_EQ(seq.length(), 2u);
  EXPECT_EQ(seq.at(1, 1), V3::X);
}

TEST(SequenceIo, RejectsBadHeader) {
  EXPECT_THROW(read_sequence_string("frob v1 3\n000\n"), std::runtime_error);
  EXPECT_THROW(read_sequence_string("useq v2 3\n000\n"), std::runtime_error);
  EXPECT_THROW(read_sequence_string(""), std::runtime_error);
}

/// The message `read` throws, or "" when it does not throw.
template <class Read>
std::string error_of(Read&& read) {
  try {
    read();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

std::string sequence_error(const std::string& text) {
  return error_of([&] {
    std::istringstream is(text);
    read_sequence(is, "t.useq");
  });
}

std::string test_set_error(const std::string& text) {
  return error_of([&] {
    std::istringstream is(text);
    read_test_set(is, "t.utst");
  });
}

// Header counts are plain non-negative decimals with nothing after them,
// and no buffer is sized from one: a signed, trailing-junk or huge count
// gives a file:line error, never a wrapped size or an allocation failure.
TEST(SequenceIo, HeaderCountsAreStrictDecimals) {
  const std::string bad_header =
      "sequence parse error in t.useq at line 1: expected header 'useq v1 <num_inputs>'";
  EXPECT_EQ(sequence_error("useq v1 -3\n000\n"), bad_header);
  EXPECT_EQ(sequence_error("useq v1 +3\n000\n"), bad_header);
  EXPECT_EQ(sequence_error("useq v1 4 junk\n0000\n"), bad_header);
  EXPECT_EQ(sequence_error("useq v1 4junk\n0000\n"), bad_header);
  EXPECT_EQ(sequence_error("useq v1\n"), bad_header);
  EXPECT_EQ(sequence_error("useq v1 99999999999999999999999\n"), bad_header);
  EXPECT_EQ(sequence_error("useq v1 99999999999999\n0101\n"),
            "sequence parse error in t.useq at line 2: expected 99999999999999 values, got 4");
  EXPECT_EQ(read_sequence_string("useq\tv1  2 \n01\n").length(), 1u);
}

TEST(SequenceIo, RejectsBadRows) {
  EXPECT_THROW(read_sequence_string("useq v1 3\n01\n"), std::runtime_error);
  EXPECT_THROW(read_sequence_string("useq v1 3\n012\n"), std::runtime_error);
}

TEST(SequenceIo, FileRoundTrip) {
  TestSequence seq = TestSequence::from_rows(3, {"101", "x0x"});
  const std::string path = ::testing::TempDir() + "seq_io_test.useq";
  write_sequence_file(path, seq);
  EXPECT_EQ(read_sequence_file(path), seq);
  std::remove(path.c_str());
}

TEST(SequenceIo, MissingFileThrows) {
  EXPECT_THROW(read_sequence_file("/nonexistent/x.useq"), std::runtime_error);
}

TEST(SequenceIo, FileParseErrorsNameTheFile) {
  const std::string path = ::testing::TempDir() + "broken.useq";
  {
    std::ofstream f(path);
    f << "useq v1 3\n01q\n";
  }
  try {
    read_sequence_file(path);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(SequenceIo, CrlfLineEndingsTolerated) {
  const TestSequence seq = read_sequence_string("useq v1 2\r\n01\r\n1x\r\n");
  ASSERT_EQ(seq.length(), 2u);
  EXPECT_EQ(seq.at(1, 1), V3::X);
}

TEST(SequenceIo, BadRowErrorEchoesACappedExcerpt) {
  const std::string junk(300, 'q');
  try {
    read_sequence_string("useq v1 300\n" + junk + "\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_LT(what.size(), 200u) << what;
    EXPECT_NE(what.find("..."), std::string::npos) << what;
  }
}

ScanTestSet demo_set() {
  ScanTestSet set;
  set.num_original_inputs = 3;
  set.chain_length = 2;
  set.tests.push_back({{V3::One, V3::Zero}, {{V3::Zero, V3::One, V3::X}}});
  set.tests.push_back(
      {{V3::X, V3::One}, {{V3::One, V3::One, V3::One}, {V3::Zero, V3::Zero, V3::Zero}}});
  return set;
}

TEST(TestSetIo, RoundTrip) {
  const ScanTestSet set = demo_set();
  const ScanTestSet back = read_test_set_string(write_test_set_string(set));
  ASSERT_EQ(back.tests.size(), 2u);
  EXPECT_EQ(back.num_original_inputs, 3u);
  EXPECT_EQ(back.chain_length, 2u);
  EXPECT_EQ(back.tests[0].scan_in, set.tests[0].scan_in);
  EXPECT_EQ(back.tests[1].vectors, set.tests[1].vectors);
}

TEST(TestSetIo, RejectsVectorBeforeTest) {
  EXPECT_THROW(read_test_set_string("utst v1 3 2\n000\n"), std::runtime_error);
}

TEST(TestSetIo, RejectsScanInNarrowerThanChain) {
  EXPECT_THROW(read_test_set_string("utst v1 3 2\ntest 1\n000\n"), std::runtime_error);
}

TEST(TestSetIo, MultiChainScanInWiderThanChainAccepted) {
  // With multiple chains scan_in covers every flip-flop while chain_length
  // is only the (max) shift count.
  const ScanTestSet set = read_test_set_string("utst v1 3 2\ntest 1010\n000\n");
  EXPECT_EQ(set.tests[0].scan_in.size(), 4u);
}

TEST(TestSetIo, RejectsInconsistentScanInWidths) {
  EXPECT_THROW(read_test_set_string("utst v1 3 2\ntest 10\n000\ntest 101\n111\n"),
               std::runtime_error);
}

TEST(TestSetIo, RejectsTestWithoutVectors) {
  EXPECT_THROW(read_test_set_string("utst v1 3 2\ntest 10\n"), std::runtime_error);
}

TEST(TestSetIo, HeaderCountsAreStrictDecimals) {
  const std::string bad_header =
      "sequence parse error in t.utst at line 1: expected header "
      "'utst v1 <num_inputs> <chain_length>'";
  EXPECT_EQ(test_set_error("utst v1 2 -1\ntest 1\n00\n"), bad_header);
  EXPECT_EQ(test_set_error("utst v1 -2 1\ntest 1\n00\n"), bad_header);
  EXPECT_EQ(test_set_error("utst v1 2 1 junk\ntest 1\n00\n"), bad_header);
  EXPECT_EQ(test_set_error("utst v1 2\ntest 1\n00\n"), bad_header);
  EXPECT_EQ(test_set_error("utst v1 99999999999999 1\ntest 1\n00\n"),
            "sequence parse error in t.utst at line 3: expected 99999999999999 values, got 2");
}

// An empty test is reported at its own `test` line, with the source.
TEST(TestSetIo, TestWithoutVectorsNamesItsLine) {
  EXPECT_EQ(test_set_error("utst v1 3 2\ntest 10\n"),
            "sequence parse error in t.utst at line 2: test 1 has no vectors");
  EXPECT_EQ(test_set_error("utst v1 3 2\ntest 10\n000\n# gap\ntest 01\ntest 11\n111\n"),
            "sequence parse error in t.utst at line 5: test 2 has no vectors");
}

// A circuit without flip-flops writes an empty scan-in as a bare `test`.
TEST(TestSetIo, EmptyScanInRoundTrips) {
  ScanTestSet set;
  set.num_original_inputs = 2;
  set.tests.push_back({{}, {{V3::One, V3::Zero}}});
  const ScanTestSet back = read_test_set_string(write_test_set_string(set));
  ASSERT_EQ(back.tests.size(), 1u);
  EXPECT_TRUE(back.tests[0].scan_in.empty());
  EXPECT_EQ(back.tests[0].vectors, set.tests[0].vectors);
}

TEST(TestSetIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "testset_io_test.utst";
  write_test_set_file(path, demo_set());
  const ScanTestSet back = read_test_set_file(path);
  EXPECT_EQ(back.tests.size(), 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uniscan
