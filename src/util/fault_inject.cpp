#include "util/fault_inject.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace uniscan {

namespace {

/// Field match: exact, or prefix when the pattern ends in `*` (so `*` alone
/// matches everything).
bool field_matches(std::string_view pattern, const std::string& value) {
  if (!pattern.empty() && pattern.back() == '*') {
    pattern.remove_suffix(1);
    return std::string_view(value).substr(0, pattern.size()) == pattern;
  }
  return pattern == value;
}

}  // namespace

void maybe_inject_fault(const std::string& circuit, const std::string& stage) {
  // Read the environment on every call: the tests flip the variable between
  // suite runs inside one process, so a cached value would go stale.
  const char* env = std::getenv("UNISCAN_FAULT_INJECT");
  if (!env || !*env) return;
  // The stage is the field after the LAST colon, so odd circuit names keep
  // working. A spec without a colon is inert, never fatal.
  const std::string_view spec(env);
  const auto colon = spec.rfind(':');
  if (colon == std::string_view::npos) return;
  if (!field_matches(spec.substr(0, colon), circuit)) return;
  if (!field_matches(spec.substr(colon + 1), stage)) return;
  throw std::runtime_error("injected fault (UNISCAN_FAULT_INJECT=" + std::string(spec) +
                           ") in stage '" + stage + "' of circuit '" + circuit + "'");
}

}  // namespace uniscan
