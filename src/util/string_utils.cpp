#include "util/string_utils.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace uniscan {

std::string_view trim(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
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
