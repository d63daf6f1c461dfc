#include "util/string_utils.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace uniscan {
namespace {

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
