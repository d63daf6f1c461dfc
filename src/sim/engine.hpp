// Process-wide simulation-kernel configuration: the slot-word width of the
// parallel-fault simulators and live-fault repacking. Both change only how
// much work a run does, never its results. The settings are process-wide
// (like ThreadPool::global()) so the bench binaries can select them with a
// flag without threading a config through every layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace uniscan {

/// Slot-word width of the parallel-fault simulators: how many machines one
/// W3T word carries (64/256/512, i.e. 63/255/511 faults per batch). Auto
/// resolves to native_slot_width(). The width is read once at
/// runner/session construction.
enum class SlotWidth : std::uint16_t { Auto = 0, W64 = 64, W256 = 256, W512 = 512 };

/// The widest width this CPU runs natively: 512 with AVX-512F, 256 with
/// AVX2, else 64 (CPUID read once). Every binary carries the wide kernel
/// entries (sim/fault_sim.cpp), so no build flag is involved.
SlotWidth native_slot_width() noexcept;

/// Select the slot width used by runners and sessions built from now on.
/// The UNISCAN_SLOT_WIDTH environment variable (read once, at first use)
/// overrides this setting — it exists so CI can force a width across a
/// whole test binary without threading a flag through every harness.
void set_global_slot_width(SlotWidth w) noexcept;
SlotWidth global_slot_width() noexcept;

/// The width runners built now would use: env override, else the configured
/// width, with Auto resolved to native_slot_width().
/// Never returns Auto.
SlotWidth resolved_slot_width() noexcept;

/// Parse "64" / "256" / "512" / "auto"; returns false on other input.
bool parse_slot_width(std::string_view name, SlotWidth& out) noexcept;

/// Diagnostic for a malformed UNISCAN_SLOT_WIDTH or UNISCAN_REPACK value
/// (naming the variable and its value); empty when both are unset or
/// well-formed. The library ignores a malformed override, so front ends
/// check this at startup and exit 2 on a non-empty result.
std::string engine_env_error();

/// Bit width of a resolved SlotWidth (64/256/512).
unsigned slot_width_bits(SlotWidth w) noexcept;

/// Live-fault repacking (DESIGN.md §5j): when enabled, the streaming
/// sessions periodically repack their surviving faults into dense batches
/// and — when the width is Auto — narrow the slot word to the cheapest one
/// for the live population; the one-shot simulators size their word to the
/// fault count the same way. Results are bit-identical either way; only the
/// amount of work changes. The UNISCAN_REPACK environment variable (read
/// once: "0"/"off" disables, "1"/"on" enables) overrides this setting so CI
/// can pin a whole binary. Read at session construction and at every
/// advance-boundary repack decision.
void set_global_repack(bool on) noexcept;
bool global_repack() noexcept;

/// True when no explicit width was requested (env and global both Auto):
/// the auto-narrowing paths may pick per-population widths.
bool slot_width_is_auto() noexcept;

/// Cheapest slot width for `live` concurrently-simulated faults, never wider
/// than `widest`: minimizes batches(width) x per-batch-advance cost under a
/// fixed cost model (a wide word costs more per advance than a narrow one,
/// but far less than proportionally). Ties pick the narrower word. Pure —
/// the repack layer's determinism rests on it.
SlotWidth efficient_slot_width(std::size_t live, SlotWidth widest) noexcept;

/// The width a simulator should use for `n` concurrent faults: an explicit
/// env/global width is honored exactly; under Auto with repacking enabled
/// the width is efficient_slot_width(n, auto); with repacking disabled this
/// is resolved_slot_width() (the historical behavior, the --repack=off
/// baseline).
SlotWidth resolved_slot_width_for(std::size_t n) noexcept;

}  // namespace uniscan
