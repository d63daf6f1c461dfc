// Slot-word width of the parallel-fault simulators. The engine resolves it
// from the CPU and from the fault population a simulator carries; it changes
// only how much work a run does, never its results.
#pragma once

#include <cstddef>
#include <cstdint>

namespace uniscan {

/// Slot-word width of the parallel-fault simulators: how many machines one
/// W3T word carries (64/256/512, i.e. 63/255/511 faults per batch).
enum class SlotWidth : std::uint16_t { W64 = 64, W256 = 256, W512 = 512 };

/// The widest width this CPU runs natively: 512 with AVX-512F, 256 with
/// AVX2, else 64 (CPUID read once). Every binary carries the wide kernel
/// entries (sim/fault_sim.cpp), so no build flag is involved.
SlotWidth native_slot_width() noexcept;

/// The widest word the simulators use: native_slot_width(), lowered while a
/// detail::SlotWidthCap is alive. Read at runner/session construction.
SlotWidth widest_slot_width() noexcept;

/// Bit width of a SlotWidth (64/256/512).
unsigned slot_width_bits(SlotWidth w) noexcept;

/// Cheapest slot width for `live` concurrently-simulated faults, never wider
/// than `widest`: minimizes batches(width) x per-batch-advance cost under a
/// fixed cost model (a wide word costs more per advance than a narrow one,
/// but far less than proportionally). Ties pick the narrower word. Pure —
/// the repack layer's determinism rests on it. The one-shot simulators and
/// the streaming sessions (at construction and at every repack, DESIGN.md
/// §5j) size their word with it.
SlotWidth efficient_slot_width(std::size_t live, SlotWidth widest) noexcept;

namespace detail {
/// Test seam: while alive, caps widest_slot_width() at `cap` (narrowing
/// below the cap still applies), so width-equivalence tests and width
/// ablations can run the narrower kernels on a wide CPU. Restores the
/// previous cap on destruction. Process-wide; no front end reaches it.
class SlotWidthCap {
 public:
  explicit SlotWidthCap(SlotWidth cap) noexcept;
  ~SlotWidthCap();
  SlotWidthCap(const SlotWidthCap&) = delete;
  SlotWidthCap& operator=(const SlotWidthCap&) = delete;

 private:
  SlotWidth prev_;
};
}  // namespace detail

}  // namespace uniscan
