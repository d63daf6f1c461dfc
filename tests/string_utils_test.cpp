#include "util/string_utils.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace uniscan {
namespace {

TEST(StringUtils, TrimStripsAsciiWhitespaceOnBothEnds) {
  EXPECT_EQ(trim("  a b \t\r\n"), "a b");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringUtils, SplitTrimsAndKeepsEmptyElements) {
  EXPECT_EQ(split("a, b ,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  // Empty elements survive so the .bench parser can report "AND(a,,b)".
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split(" , ", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("one", ','), (std::vector<std::string>{"one"}));
}

TEST(StringUtils, StartsWithIsCaseSensitive) {
  EXPECT_TRUE(starts_with("INPUT(a)", "INPUT"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("input(a)", "INPUT"));
  EXPECT_FALSE(starts_with("IN", "INPUT"));
}

TEST(StringUtils, ToUpperChangesOnlyAsciiLetters) {
  EXPECT_EQ(to_upper("nand2_x"), "NAND2_X");
  EXPECT_EQ(to_upper("Dff"), "DFF");
  EXPECT_EQ(to_upper(""), "");
}

TEST(StringUtils, NumberedAppendsDecimal) {
  EXPECT_EQ(numbered("I", 3), "I3");
  EXPECT_EQ(numbered("g", 0), "g0");
  EXPECT_EQ(numbered("", 42), "42");
  EXPECT_EQ(numbered("net_", std::numeric_limits<std::uint64_t>::max()),
            "net_18446744073709551615");
}

TEST(StringUtils, ExcerptCapsLongInput) {
  EXPECT_EQ(excerpt("short"), "short");
  const std::string exact(48, 'x');
  EXPECT_EQ(excerpt(exact), exact);
  EXPECT_EQ(excerpt(exact + "y"), exact + "...");
  EXPECT_EQ(excerpt("abcdef", 3), "abc...");
  EXPECT_EQ(excerpt("", 0), "");
}

TEST(FlagUint, AcceptsPlainDecimalUpToMax) {
  EXPECT_EQ(flag_uint("--seed=0"), 0u);
  EXPECT_EQ(flag_uint("--seed=7919"), 7919u);
  EXPECT_EQ(flag_uint("--seed=18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(flag_uint("--threads=1024", 1024), 1024u);
}

TEST(FlagUint, RejectsPartialSignedBlankAndOutOfRange) {
  for (const char* arg : {"--seed=banana", "--seed=12x", "--seed=", "--seed", "--seed= 3",
                          "--seed=-3", "--seed=+3", "--seed=1.5",
                          "--seed=18446744073709551616"})
    EXPECT_FALSE(flag_uint(arg).has_value()) << arg;
  EXPECT_FALSE(flag_uint("--threads=1025", 1024).has_value());
  EXPECT_FALSE(flag_uint("--threads=99999999999", 1024).has_value());
}

TEST(FlagNumber, AcceptsNonNegativeDecimal) {
  EXPECT_EQ(flag_number("--time-budget=0"), 0.0);
  EXPECT_EQ(flag_number("--time-budget=2.5"), 2.5);
  EXPECT_EQ(flag_number("--time-budget=30"), 30.0);
}

TEST(FlagNumber, RejectsPartialNegativeAndNonFinite) {
  for (const char* arg : {"--time-budget=soon", "--time-budget=1s", "--time-budget=",
                          "--time-budget=-1", "--time-budget=inf", "--time-budget=nan",
                          "--time-budget=1e400"})
    EXPECT_FALSE(flag_number(arg).has_value()) << arg;
}

}  // namespace
}  // namespace uniscan
