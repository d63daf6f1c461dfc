// Small string helpers used by the .bench parser and table writers.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace uniscan {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// True if `s` starts with `prefix` (case-sensitive).
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// True if `s` equals `upper` ignoring ASCII case; `upper` is upper-case
/// ("nAnD" matches "NAND"). Compares in place, without a folded copy.
bool iequals(std::string_view s, std::string_view upper) noexcept;

/// `prefix` followed by the decimal `n` ("I", 3 -> "I3"). Appends rather
/// than writing `"I" + std::to_string(n)`, whose inlined insert GCC 12
/// misreports under -Wrestrict.
std::string numbered(std::string_view prefix, std::uint64_t n);

/// Copy of `s` capped at `max_len` characters for error messages: longer
/// input is cut and suffixed with "..." so a corrupt multi-megabyte line
/// cannot explode a diagnostic.
std::string excerpt(std::string_view s, std::size_t max_len = 48);

/// `s` escaped for a JSON string literal: quotes, backslashes and control
/// characters (\n, \r, \t by name, the rest as \u00XX). Shared by every
/// JSON writer (bench JSON, trace, CLI errors, perfbench lines).
std::string json_escape(std::string_view s);

/// Strict value of a numeric command-line flag. `arg` is the whole
/// "--name=value" argument. flag_uint accepts only an unsigned decimal
/// integer in [0, max]; flag_number only a finite non-negative decimal
/// number. A sign, blank, trailing character or out-of-range value is
/// rejected: the error, naming the flag, goes to stderr and the result is
/// nullopt (the tools then exit with kExitUsage).
std::optional<std::uint64_t> flag_uint(
    std::string_view arg, std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
std::optional<double> flag_number(std::string_view arg);

}  // namespace uniscan
