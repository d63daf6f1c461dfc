#include "serve/minijson.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/string_utils.hpp"

namespace uniscan::serve {

namespace {

/// JSON's number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
bool is_json_number(std::string_view t) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) ++i;
    return i > from;
  };
  if (i < t.size() && t[i] == '-') ++i;
  if (i < t.size() && t[i] == '0') ++i;
  else if (!digits()) return false;
  if (i < t.size() && t[i] == '.' && (++i, !digits())) return false;
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == t.size();
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty()) error = msg + " at offset " + std::to_string(pos);
    return false;
  }
  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }
  bool eof() const { return pos >= text.size(); }
  char peek() const { return text[pos]; }

  bool parse_string(std::string& out) {
    if (eof() || text[pos] != '"') return fail("expected '\"'");
    ++pos;
    out.clear();
    while (!eof()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (eof()) break;
      const char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // UTF-8 encode (BMP only; protocol strings are ASCII in practice).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  /// Skip one balanced array/object and return its raw text. Each closing
  /// bracket must match the innermost open one.
  bool skip_raw(std::string& out) {
    const std::size_t start = pos;
    std::string closers;  // the closing bracket each open one expects
    bool in_str = false;
    while (!eof()) {
      const char c = text[pos];
      if (in_str) {
        if (c == '\\') {
          ++pos;
          if (eof()) break;
        } else if (c == '"') {
          in_str = false;
        }
      } else if (c == '"') {
        in_str = true;
      } else if (c == '[' || c == '{') {
        closers.push_back(c == '[' ? ']' : '}');
      } else if (c == ']' || c == '}') {
        if (closers.back() != c) return fail(std::string("mismatched '") + c + "'");
        closers.pop_back();
        if (closers.empty()) {
          ++pos;
          out = std::string(text.substr(start, pos - start));
          return true;
        }
      }
      ++pos;
    }
    return fail("unterminated array/object");
  }

  bool parse_value(JsonValue& v) {
    skip_ws();
    if (eof()) return fail("expected value");
    const char c = peek();
    if (c == '"') {
      v.kind = JsonValue::Kind::String;
      return parse_string(v.s);
    }
    if (c == '[' || c == '{') {
      v.kind = JsonValue::Kind::Raw;
      return skip_raw(v.s);
    }
    if (text.substr(pos, 4) == "true") {
      v.kind = JsonValue::Kind::Bool;
      v.b = true;
      pos += 4;
      return true;
    }
    if (text.substr(pos, 5) == "false") {
      v.kind = JsonValue::Kind::Bool;
      v.b = false;
      pos += 5;
      return true;
    }
    if (text.substr(pos, 4) == "null") {
      v.kind = JsonValue::Kind::Null;
      pos += 4;
      return true;
    }
    // number: the token runs over every character a number may contain and
    // must then be one complete JSON number.
    const std::size_t start = pos;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) || peek() == '.' ||
                      peek() == 'e' || peek() == 'E' || peek() == '-' || peek() == '+'))
      ++pos;
    if (pos == start) return fail("expected value");
    const std::string_view num = text.substr(start, pos - start);
    if (!is_json_number(num)) return fail("bad number '" + std::string(num) + "'");
    const char* end = num.data() + num.size();
    if (num.find_first_of(".eE") == std::string_view::npos) {
      const auto [p, ec] = std::from_chars(num.data(), end, v.i);
      if (ec == std::errc() && p == end) {
        v.kind = JsonValue::Kind::Int;
        return true;
      }
    }
    const auto [p, ec] = std::from_chars(num.data(), end, v.d);
    if (ec != std::errc() || p != end) return fail("bad number '" + std::string(num) + "'");
    v.kind = JsonValue::Kind::Double;
    return true;
  }
};

}  // namespace

std::optional<JsonObject> parse_json_object(std::string_view text, std::string* error) {
  Parser p{text, 0, {}};
  JsonObject obj;
  p.skip_ws();
  if (p.eof() || p.peek() != '{') {
    if (error) *error = "expected '{'";
    return std::nullopt;
  }
  ++p.pos;
  p.skip_ws();
  if (!p.eof() && p.peek() == '}') {
    ++p.pos;
  } else {
    while (true) {
      p.skip_ws();
      std::string key;
      if (!p.parse_string(key)) break;
      p.skip_ws();
      if (p.eof() || p.peek() != ':') {
        p.fail("expected ':'");
        break;
      }
      ++p.pos;
      JsonValue v;
      if (!p.parse_value(v)) break;
      obj[key] = std::move(v);
      p.skip_ws();
      if (!p.eof() && p.peek() == ',') {
        ++p.pos;
        continue;
      }
      if (!p.eof() && p.peek() == '}') {
        ++p.pos;
        break;
      }
      p.fail("expected ',' or '}'");
      break;
    }
  }
  if (!p.error.empty()) {
    if (error) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (!p.eof()) {
    if (error) *error = "trailing characters after object";
    return std::nullopt;
  }
  return obj;
}

void JsonWriter::key(std::string_view k) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"";
  body_ += json_escape(k);
  body_ += "\":";
}

void JsonWriter::field(std::string_view k, std::string_view value) {
  key(k);
  body_ += "\"";
  body_ += json_escape(value);
  body_ += "\"";
}

void JsonWriter::field(std::string_view k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonWriter::field(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
}

void JsonWriter::field(std::string_view k, double value) {
  key(k);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", value);
  body_ += buf;
}

void JsonWriter::field(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
}

void JsonWriter::raw_field(std::string_view k, std::string_view raw_json) {
  key(k);
  body_ += raw_json;
}

}  // namespace uniscan::serve
