// Minimal JSON: a parser for one flat JSON object per line and a small
// writer. Its one user is perfbench (perfbench/uniscan_perfbench.cpp), which
// reads trace events and writes its result lines with it; the directory name
// is historical. Values are scalars (string/number/bool/null); nested
// arrays/objects are preserved as raw JSON text (a forgiving parser never
// dies on extras). No external dependencies, by repo policy.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace uniscan::serve {

struct JsonValue {
  enum class Kind { Null, Bool, Int, Double, String, Raw };
  Kind kind = Kind::Null;
  bool b = false;
  std::int64_t i = 0;
  double d = 0;
  std::string s;  // String: decoded text; Raw: verbatim JSON

  std::string as_string(const std::string& fallback = {}) const {
    return kind == Kind::String ? s : fallback;
  }
  std::int64_t as_int(std::int64_t fallback = 0) const {
    if (kind == Kind::Int) return i;
    if (kind == Kind::Double) return static_cast<std::int64_t>(d);
    return fallback;
  }
  double as_double(double fallback = 0) const {
    if (kind == Kind::Double) return d;
    if (kind == Kind::Int) return static_cast<double>(i);
    return fallback;
  }
  bool as_bool(bool fallback = false) const { return kind == Kind::Bool ? b : fallback; }
};

/// Keys in first-seen order are irrelevant to the protocol; std::map gives
/// deterministic iteration for error messages and tests.
using JsonObject = std::map<std::string, JsonValue>;

/// Parse one JSON object. Returns nullopt and fills `error` (if non-null) on
/// malformed input; trailing garbage after the closing brace is an error.
std::optional<JsonObject> parse_json_object(std::string_view text, std::string* error = nullptr);

/// JSON string escaping (shared with the writer; mirrors bench_common's).
std::string json_escape(std::string_view s);

/// Incremental writer for one flat JSON object, emitted in append order.
class JsonWriter {
 public:
  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, const char* value) { field(key, std::string_view(value)); }
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, std::uint64_t value);
  void field(std::string_view key, int value) { field(key, static_cast<std::int64_t>(value)); }
  void field(std::string_view key, double value);
  void field(std::string_view key, bool value);
  /// Verbatim JSON (pre-rendered array/object).
  void raw_field(std::string_view key, std::string_view raw_json);

  std::string str() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_;
};

}  // namespace uniscan::serve
