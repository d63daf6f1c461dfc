#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>

namespace uniscan {

namespace {
std::atomic<SlotWidth> g_cap{SlotWidth::W512};
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

SlotWidth widest_slot_width() noexcept {
  return std::min(native_slot_width(), g_cap.load(std::memory_order_relaxed));
}

unsigned slot_width_bits(SlotWidth w) noexcept { return static_cast<unsigned>(w); }

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

namespace detail {

SlotWidthCap::SlotWidthCap(SlotWidth cap) noexcept
    : prev_(g_cap.exchange(cap, std::memory_order_relaxed)) {}

SlotWidthCap::~SlotWidthCap() { g_cap.store(prev_, std::memory_order_relaxed); }

}  // namespace detail

}  // namespace uniscan
