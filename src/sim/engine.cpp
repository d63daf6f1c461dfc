#include "sim/engine.hpp"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <string>

namespace uniscan {

namespace {
std::atomic<SlotWidth> g_width{SlotWidth::Auto};
std::atomic<bool> g_repack{true};

/// Value of environment variable `name`; nullptr when unset or empty.
const char* env_value(const char* name) noexcept {
  const char* e = std::getenv(name);
  return e && *e ? e : nullptr;
}

/// UNISCAN_REPACK override: 0 = forced off ("0"/"off"), 1 = forced on
/// ("1"/"on"), -1 = no override (unset, or malformed — engine_env_error()).
int parse_repack(const char* e) noexcept {
  if (!e) return -1;
  if (std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0) return 0;
  if (std::strcmp(e, "1") == 0 || std::strcmp(e, "on") == 0) return 1;
  return -1;
}

/// The UNISCAN_REPACK override, parsed once.
int env_repack() noexcept {
  static const int v = parse_repack(env_value("UNISCAN_REPACK"));
  return v;
}

/// UNISCAN_SLOT_WIDTH override, parsed once. Auto means "no override" (both
/// when the variable is unset and when it holds "auto" or garbage).
SlotWidth env_slot_width() noexcept {
  static const SlotWidth w = [] {
    SlotWidth out = SlotWidth::Auto;
    if (const char* e = env_value("UNISCAN_SLOT_WIDTH")) parse_slot_width(e, out);
    return out;
  }();
  return w;
}

}  // namespace

SlotWidth native_slot_width() noexcept {
#if defined(__x86_64__)
  static const SlotWidth w = __builtin_cpu_supports("avx512f") ? SlotWidth::W512
                             : __builtin_cpu_supports("avx2")  ? SlotWidth::W256
                                                               : SlotWidth::W64;
  return w;
#else
  return SlotWidth::W64;
#endif
}

void set_global_slot_width(SlotWidth w) noexcept {
  g_width.store(w, std::memory_order_relaxed);
}

SlotWidth global_slot_width() noexcept { return g_width.load(std::memory_order_relaxed); }

SlotWidth resolved_slot_width() noexcept {
  SlotWidth w = env_slot_width();
  if (w == SlotWidth::Auto) w = g_width.load(std::memory_order_relaxed);
  if (w == SlotWidth::Auto) w = native_slot_width();
  return w;
}

bool parse_slot_width(std::string_view name, SlotWidth& out) noexcept {
  if (name == "64") out = SlotWidth::W64;
  else if (name == "256") out = SlotWidth::W256;
  else if (name == "512") out = SlotWidth::W512;
  else if (name == "auto") out = SlotWidth::Auto;
  else return false;
  return true;
}

std::string engine_env_error() {
  SlotWidth w;
  if (const char* e = env_value("UNISCAN_SLOT_WIDTH"); e && !parse_slot_width(e, w))
    return std::string("invalid UNISCAN_SLOT_WIDTH=") + e + " (64|256|512|auto)";
  if (const char* e = env_value("UNISCAN_REPACK"); e && parse_repack(e) < 0)
    return std::string("invalid UNISCAN_REPACK=") + e + " (0|1|off|on)";
  return {};
}

unsigned slot_width_bits(SlotWidth w) noexcept { return static_cast<unsigned>(w); }

void set_global_repack(bool on) noexcept { g_repack.store(on, std::memory_order_relaxed); }

bool global_repack() noexcept {
  const int env = env_repack();
  if (env >= 0) return env != 0;
  return g_repack.load(std::memory_order_relaxed);
}

bool slot_width_is_auto() noexcept {
  return env_slot_width() == SlotWidth::Auto &&
         g_width.load(std::memory_order_relaxed) == SlotWidth::Auto;
}

SlotWidth efficient_slot_width(std::size_t live, SlotWidth widest) noexcept {
  // Per-batch advance cost in permille of a 64-bit batch. Wider words touch
  // more bytes per gate but amortize the per-batch fixed work (program walk,
  // forced-gate fixups) over more faults; the ratios below match the
  // measured per-batch overheads of the AVX2/AVX-512 kernels closely enough
  // to pick the right word, and being *fixed* keeps the choice a pure
  // function of the live count.
  struct Candidate {
    SlotWidth width;
    std::size_t cost;
  };
  static constexpr Candidate kCandidates[] = {
      {SlotWidth::W64, 1000}, {SlotWidth::W256, 1300}, {SlotWidth::W512, 1700}};
  SlotWidth best = SlotWidth::W64;
  std::size_t best_cost = ~std::size_t{0};
  for (const Candidate& c : kCandidates) {
    if (slot_width_bits(c.width) > slot_width_bits(widest)) break;
    const std::size_t per = slot_width_bits(c.width) - 1;
    const std::size_t batches = (live + per - 1) / per;
    const std::size_t cost = batches * c.cost;
    if (cost < best_cost) {  // strict: ties keep the narrower word
      best = c.width;
      best_cost = cost;
    }
  }
  return best;
}

SlotWidth resolved_slot_width_for(std::size_t n) noexcept {
  if (!global_repack() || !slot_width_is_auto()) return resolved_slot_width();
  return efficient_slot_width(n, native_slot_width());
}

}  // namespace uniscan
