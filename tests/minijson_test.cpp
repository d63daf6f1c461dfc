// Tests of the minimal JSON reader/writer (serve/minijson) that perfbench
// uses to read trace events and write its result lines: scalar kinds,
// escapes, raw nested values, the writer's format, and a diagnostic (never a
// crash) for every kind of malformed object.
#include "serve/minijson.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace uniscan::serve {
namespace {

using Kind = JsonValue::Kind;

JsonObject parse_ok(std::string_view text) {
  std::string error;
  auto obj = parse_json_object(text, &error);
  EXPECT_TRUE(obj.has_value()) << text << ": " << error;
  return obj.value_or(JsonObject{});
}

TEST(MiniJson, ParsesEveryScalarKind) {
  const JsonObject o =
      parse_ok(R"({"s":"text","i":-42,"d":2.5,"e":1e3,"t":true,"f":false,"n":null})");
  ASSERT_EQ(o.size(), 7u);
  EXPECT_EQ(o.at("s").kind, Kind::String);
  EXPECT_EQ(o.at("s").s, "text");
  EXPECT_EQ(o.at("i").kind, Kind::Int);
  EXPECT_EQ(o.at("i").i, -42);
  EXPECT_EQ(o.at("d").kind, Kind::Double);
  EXPECT_EQ(o.at("d").d, 2.5);
  EXPECT_EQ(o.at("e").kind, Kind::Double);
  EXPECT_EQ(o.at("e").d, 1000.0);
  EXPECT_EQ(o.at("t").kind, Kind::Bool);
  EXPECT_TRUE(o.at("t").b);
  EXPECT_EQ(o.at("f").kind, Kind::Bool);
  EXPECT_FALSE(o.at("f").b);
  EXPECT_EQ(o.at("n").kind, Kind::Null);
}

TEST(MiniJson, AcceptsEveryJsonNumberForm) {
  const JsonObject o =
      parse_ok(R"({"z":0,"nz":-0,"f":0.25,"nf":-10.5,"e":1E+2,"ne":-1.5e-3,"big":12e2})");
  EXPECT_EQ(o.at("z").i, 0);
  EXPECT_EQ(o.at("nz").kind, Kind::Int);
  EXPECT_EQ(o.at("f").d, 0.25);
  EXPECT_EQ(o.at("nf").d, -10.5);
  EXPECT_EQ(o.at("e").d, 100.0);
  EXPECT_DOUBLE_EQ(o.at("ne").d, -0.0015);
  EXPECT_EQ(o.at("big").d, 1200.0);
}

TEST(MiniJson, EmptyObjectAndSurroundingWhitespace) {
  EXPECT_TRUE(parse_ok("{}").empty());
  EXPECT_TRUE(parse_ok(" \t{ }\n").empty());
  const JsonObject o = parse_ok("\n{ \"a\" :\t1 ,\r\n \"b\" : \"x\" }  ");
  EXPECT_EQ(o.at("a").i, 1);
  EXPECT_EQ(o.at("b").s, "x");
}

TEST(MiniJson, NestedValuesKeptAsRawText) {
  const JsonObject o = parse_ok(R"({"args":{"n":[1,2,{"k":3}]},"list":[ "a" , [] ],"x":7})");
  EXPECT_EQ(o.at("args").kind, Kind::Raw);
  EXPECT_EQ(o.at("args").s, R"({"n":[1,2,{"k":3}]})");
  EXPECT_EQ(o.at("list").kind, Kind::Raw);
  EXPECT_EQ(o.at("list").s, R"([ "a" , [] ])");
  EXPECT_EQ(o.at("x").i, 7);
}

TEST(MiniJson, RawValueIgnoresBracketsInsideStrings) {
  const JsonObject o = parse_ok(R"({"r":["]}", "\"[{", 1],"after":true})");
  EXPECT_EQ(o.at("r").s, R"(["]}", "\"[{", 1])");
  EXPECT_TRUE(o.at("after").b);
}

TEST(MiniJson, StringEscapesDecoded) {
  const JsonObject o = parse_ok(R"({"s":"q\" b\\ s\/ \b\f\n\r\t end"})");
  EXPECT_EQ(o.at("s").s, "q\" b\\ s/ \b\f\n\r\t end");
}

TEST(MiniJson, UnicodeEscapesEncodeUtf8) {
  const JsonObject o = parse_ok(R"({"one":"\u0041","two":"\u00e9","three":"\u20AC"})");
  EXPECT_EQ(o.at("one").s, "A");
  EXPECT_EQ(o.at("two").s, "\xC3\xA9");
  EXPECT_EQ(o.at("three").s, "\xE2\x82\xAC");
}

TEST(MiniJson, LaterDuplicateKeyWins) {
  const JsonObject o = parse_ok(R"({"k":1,"k":"two"})");
  ASSERT_EQ(o.size(), 1u);
  EXPECT_EQ(o.at("k").kind, Kind::String);
  EXPECT_EQ(o.at("k").s, "two");
}

TEST(MiniJson, IntegersOutsideInt64BecomeDoubles) {
  const JsonObject o = parse_ok(R"({"max":9223372036854775807,"big":92233720368547758070})");
  EXPECT_EQ(o.at("max").kind, Kind::Int);
  EXPECT_EQ(o.at("max").i, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(o.at("big").kind, Kind::Double);
  EXPECT_DOUBLE_EQ(o.at("big").d, 92233720368547758070.0);
}

TEST(MiniJson, AccessorsConvertOrFallBack) {
  const JsonObject o = parse_ok(R"({"i":3,"d":2.75,"s":"x","b":true,"n":null})");
  EXPECT_EQ(o.at("i").as_int(), 3);
  EXPECT_EQ(o.at("i").as_double(), 3.0);
  EXPECT_EQ(o.at("d").as_int(), 2);
  EXPECT_EQ(o.at("d").as_double(), 2.75);
  EXPECT_EQ(o.at("s").as_string(), "x");
  EXPECT_TRUE(o.at("b").as_bool());
  // A value of another kind yields the caller's fallback.
  EXPECT_EQ(o.at("s").as_int(-1), -1);
  EXPECT_EQ(o.at("b").as_double(0.5), 0.5);
  EXPECT_EQ(o.at("i").as_string("none"), "none");
  EXPECT_TRUE(o.at("n").as_bool(true));
}

TEST(MiniJson, ErrorOutputIsOptional) {
  EXPECT_FALSE(parse_json_object("{\"a\":}").has_value());
  EXPECT_FALSE(parse_json_object("").has_value());
}

TEST(MiniJson, WriterEmitsFieldsInAppendOrder) {
  JsonWriter w;
  EXPECT_EQ(w.str(), "{}");
  w.field("workload", "stuck_gen");
  w.field("n", 3);
  w.field("big", std::uint64_t{18446744073709551615u});
  w.field("neg", std::int64_t{-5});
  w.field("secs", 1.23456);
  w.field("ok", true);
  w.raw_field("rows", "[1,2]");
  w.field("quote\"key", std::string_view("line\nbreak"));
  EXPECT_EQ(w.str(),
            R"({"workload":"stuck_gen","n":3,"big":18446744073709551615,"neg":-5,)"
            R"("secs":1.235,"ok":true,"rows":[1,2],"quote\"key":"line\nbreak"})");
}

TEST(MiniJson, WriterOutputParsesBack) {
  JsonWriter w;
  w.field("name", "a \"b\" \\ c\t");
  w.field("count", 12);
  w.field("cpu_s", 0.5);
  w.field("pass", false);
  w.raw_field("nested", R"({"k":[1,"}"]})");
  const JsonObject o = parse_ok(w.str());
  EXPECT_EQ(o.at("name").s, "a \"b\" \\ c\t");
  EXPECT_EQ(o.at("count").i, 12);
  EXPECT_EQ(o.at("cpu_s").d, 0.5);
  EXPECT_FALSE(o.at("pass").as_bool(true));
  EXPECT_EQ(o.at("nested").s, R"({"k":[1,"}"]})");
}

// ---- malformed objects: each is refused with a diagnostic --------------

struct MalformedCase {
  const char* name;
  const char* text;
  const char* error;  // expected substring of the diagnostic
};

// Names the case in test listings (ctest shows the printed parameter).
void PrintTo(const MalformedCase& c, std::ostream* os) { *os << c.name; }

class MiniJsonMalformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MiniJsonMalformed, RefusedWithDiagnostic) {
  const MalformedCase& c = GetParam();
  std::string error;
  EXPECT_FALSE(parse_json_object(c.text, &error).has_value()) << c.text;
  EXPECT_NE(error.find(c.error), std::string::npos) << c.text << ": " << error;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MiniJsonMalformed,
    ::testing::Values(
        MalformedCase{"Empty", "", "expected '{'"},
        MalformedCase{"Array", "[1]", "expected '{'"},
        MalformedCase{"OpenBraceOnly", "{", "expected '\"'"},
        MalformedCase{"UnquotedKey", "{a:1}", "expected '\"' at offset 1"},
        MalformedCase{"MissingColon", R"({"a" 1})", "expected ':'"},
        MalformedCase{"MissingValue", R"({"a":})", "expected value"},
        MalformedCase{"MissingCloseBrace", R"({"a":1)", "expected ',' or '}'"},
        MalformedCase{"MissingComma", R"({"a":1 "b":2})", "expected ',' or '}'"},
        MalformedCase{"TrailingComma", R"({"a":1,})", "expected '\"'"},
        MalformedCase{"TrailingCharacters", R"({"a":1} x)", "trailing characters"},
        MalformedCase{"UnterminatedString", R"({"a":"abc})", "unterminated string"},
        MalformedCase{"BadEscape", R"({"a":"\q"})", "bad escape"},
        MalformedCase{"BadUnicodeEscape", R"({"a":"\u12g4"})", "bad \\u escape"},
        MalformedCase{"TruncatedUnicodeEscape", R"({"a":"\u12)", "truncated \\u escape"},
        MalformedCase{"UnterminatedArray", R"({"a":[1,2)", "unterminated array/object"},
        MalformedCase{"MismatchedBracket", R"({"a":[1,2}})", "mismatched '}'"},
        MalformedCase{"MismatchedNestedBracket", R"({"a":{"b":[1}]})", "mismatched '}'"},
        MalformedCase{"LoneMinus", R"({"a":-})", "bad number '-'"},
        MalformedCase{"TwoDecimalPoints", R"({"a":1.2.3})", "bad number '1.2.3'"},
        MalformedCase{"MinusInsideNumber", R"({"a":1-2})", "bad number '1-2'"},
        MalformedCase{"LeadingPlus", R"({"a":+1})", "bad number '+1'"},
        MalformedCase{"LeadingZero", R"({"a":01})", "bad number '01'"},
        MalformedCase{"BareDecimalPoint", R"({"a":1.})", "bad number '1.'"},
        MalformedCase{"EmptyExponent", R"({"a":1e})", "bad number '1e'"},
        MalformedCase{"BareWord", R"({"a":yes})", "expected value"}),
    [](const ::testing::TestParamInfo<MalformedCase>& info) { return info.param.name; });

}  // namespace
}  // namespace uniscan::serve
