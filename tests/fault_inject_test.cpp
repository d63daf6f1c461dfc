// Unit tests of the UNISCAN_FAULT_INJECT spec grammar (util/fault_inject):
// one `<circuit>:<stage>` spec, each field exact or a `*` prefix wildcard.
// The suite-isolation and counter tests drive the hook through whole suite
// runs; these pin down which (circuit, stage) pairs a spec hits.
#include "util/fault_inject.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace uniscan {
namespace {

/// Scoped UNISCAN_FAULT_INJECT value; unset on exit.
class FaultInject : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv("UNISCAN_FAULT_INJECT"); }
  static void set(const char* spec) { ::setenv("UNISCAN_FAULT_INJECT", spec, 1); }
  static bool fires(const std::string& circuit, const std::string& stage) {
    try {
      maybe_inject_fault(circuit, stage);
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  }
};

TEST_F(FaultInject, UnsetOrEmptyIsInert) {
  ::unsetenv("UNISCAN_FAULT_INJECT");
  EXPECT_FALSE(fires("s27", "atpg"));
  set("");
  EXPECT_FALSE(fires("s27", "atpg"));
}

TEST_F(FaultInject, ExactSpecHitsOnlyItsPair) {
  set("s27:atpg");
  EXPECT_TRUE(fires("s27", "atpg"));
  EXPECT_FALSE(fires("s27", "load"));
  EXPECT_FALSE(fires("s208", "atpg"));
  // Exact means exact: neither a longer name nor a prefix of it matches.
  EXPECT_FALSE(fires("s270", "atpg"));
  EXPECT_FALSE(fires("s2", "atpg"));
  EXPECT_FALSE(fires("s27", "atpg2"));
}

TEST_F(FaultInject, MessageNamesSpecStageAndCircuit) {
  set("s27:scan");
  try {
    maybe_inject_fault("s27", "scan");
    FAIL() << "spec did not fire";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "injected fault (UNISCAN_FAULT_INJECT=s27:scan) in stage 'scan' of circuit 's27'");
  }
}

TEST_F(FaultInject, CircuitPrefixWildcard) {
  set("s2*:faults");
  EXPECT_TRUE(fires("s27", "faults"));
  EXPECT_TRUE(fires("s208", "faults"));
  EXPECT_TRUE(fires("s2", "faults"));
  EXPECT_FALSE(fires("s386", "faults"));
  EXPECT_FALSE(fires("s27", "atpg"));
}

TEST_F(FaultInject, StagePrefixWildcard) {
  set("b01:omi*");
  EXPECT_TRUE(fires("b01", "omission"));
  EXPECT_FALSE(fires("b01", "restoration"));
  EXPECT_FALSE(fires("b02", "omission"));
}

TEST_F(FaultInject, LoneStarsMatchEverything) {
  set("*:*");
  EXPECT_TRUE(fires("s27", "load"));
  EXPECT_TRUE(fires("", ""));
  set("*:atpg");
  EXPECT_TRUE(fires("anything", "atpg"));
  EXPECT_FALSE(fires("anything", "scan"));
}

TEST_F(FaultInject, SpecWithoutColonIsInert) {
  set("s27");
  EXPECT_FALSE(fires("s27", "atpg"));
  EXPECT_FALSE(fires("s27", "s27"));
  set("*");
  EXPECT_FALSE(fires("s27", "atpg"));
}

TEST_F(FaultInject, StageIsTheFieldAfterTheLastColon) {
  // Circuit names may themselves contain colons.
  set("lib:s27:atpg");
  EXPECT_TRUE(fires("lib:s27", "atpg"));
  EXPECT_FALSE(fires("lib", "s27:atpg"));
  EXPECT_FALSE(fires("s27", "atpg"));
}

TEST_F(FaultInject, CountSuffixIsNotSpecial) {
  // `circuit:stage:<count>` is not part of the grammar: the count is read as
  // the stage, so the spec matches no real pipeline stage of `s27`.
  set("s27:atpg:2");
  EXPECT_FALSE(fires("s27", "atpg"));
  EXPECT_TRUE(fires("s27:atpg", "2"));
}

TEST_F(FaultInject, SemicolonIsNotASpecSeparator) {
  set("s27:atpg;s208:load");
  EXPECT_FALSE(fires("s27", "atpg"));
  EXPECT_FALSE(fires("s208", "load"));
  EXPECT_TRUE(fires("s27:atpg;s208", "load"));
}

TEST_F(FaultInject, EnvironmentReadOnEveryCall) {
  set("s27:atpg");
  EXPECT_TRUE(fires("s27", "atpg"));
  set("s27:load");
  EXPECT_FALSE(fires("s27", "atpg"));
  EXPECT_TRUE(fires("s27", "load"));
  ::unsetenv("UNISCAN_FAULT_INJECT");
  EXPECT_FALSE(fires("s27", "load"));
}

}  // namespace
}  // namespace uniscan
