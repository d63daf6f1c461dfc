#include "util/string_utils.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace uniscan {

namespace {

/// std::isspace and std::toupper in the "C" locale, without the libc call
/// per character (the .bench parser runs these over every byte it reads).
constexpr bool ascii_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}
constexpr char ascii_upper(char c) noexcept {
  return c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c;
}

}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && ascii_space(s[begin])) ++begin;
  while (end > begin && ascii_space(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view s, std::string_view upper) noexcept {
  if (s.size() != upper.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (ascii_upper(s[i]) != upper[i]) return false;
  return true;
}

std::string numbered(std::string_view prefix, std::uint64_t n) {
  std::string out(prefix);
  out += std::to_string(n);
  return out;
}

std::string excerpt(std::string_view s, std::size_t max_len) {
  if (s.size() <= max_len) return std::string(s);
  return std::string(s.substr(0, max_len)) + "...";
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

namespace {

/// Split "--name=value" at the first '='.
std::pair<std::string_view, std::string_view> flag_parts(std::string_view arg) noexcept {
  const std::size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return {arg, {}};
  return {arg.substr(0, eq), arg.substr(eq + 1)};
}

void report_bad_flag(std::string_view name, std::string_view value, const std::string& want) {
  std::fprintf(stderr, "invalid value for %.*s: '%s' (expected %s)\n",
               static_cast<int>(name.size()), name.data(), excerpt(value).c_str(), want.c_str());
}

}  // namespace

std::optional<std::uint64_t> flag_uint(std::string_view arg, std::uint64_t max) {
  const auto [name, value] = flag_parts(arg);
  std::uint64_t v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc() || ptr != end || v > max) {
    report_bad_flag(name, value, "an integer in [0, " + std::to_string(max) + "]");
    return std::nullopt;
  }
  return v;
}

std::optional<double> flag_number(std::string_view arg) {
  const auto [name, value] = flag_parts(arg);
  double v = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  if (value.empty() || ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0) {
    report_bad_flag(name, value, "a non-negative number");
    return std::nullopt;
  }
  return v;
}

}  // namespace uniscan
