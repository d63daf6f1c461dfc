// Checkpointed incremental resimulation support.
//
// A SimBatchStateT<Word> is the complete resumable state of one fault batch
// (up to kBits-1 faults, one per slot of the Word) of a parallel-fault
// simulation: the machine-pair state of every DFF, the live/detected
// bookkeeping, and (for the transition model) the per-fault launch history.
// Simulating frames [0, f) of a sequence and saving the state, then later
// resuming at f, is bit-identical to simulating from frame 0 — the
// invariant the compaction engine relies on. SimBatchState is the 64-slot
// instantiation the good-machine paths use.
//
// A CheckpointStoreT keeps per-batch snapshots taken every `interval`
// frames while simulating the currently accepted sequence. Erasing vector t
// leaves frames [0, t) unchanged, so a trial restarts from the nearest
// snapshot at frame <= t instead of frame 0; on an accepted erasure every
// snapshot past t is dropped (the suffix shifted) and the rest stay valid.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "sim/logic3.hpp"
#include "sim/slot_word.hpp"

namespace uniscan {

/// Resumable per-batch simulation state. `frame` is the number of frames
/// already consumed, i.e. `state` is the DFF state *entering* frame `frame`.
template <class Word>
struct SimBatchStateT {
  static constexpr unsigned kSlots = WordTraits<Word>::kBits;

  std::size_t frame = 0;
  Word live{};            // slots (bits 1..kSlots-1) still being watched
  Word detected_slots{};  // slots observed at a PO at least once
  std::vector<W3T<Word>> state;  // one machine-pair word per DFF
  std::array<std::uint32_t, kSlots> detect_time{};   // first observation frame
  std::array<std::uint32_t, kSlots> detect_count{};  // observations (n-detect cap)
  std::vector<V3> prev_driven;  // transition model: per-slot launch history
};

using SimBatchState = SimBatchStateT<std::uint64_t>;

/// Per-pool-worker net-value scratch of the batch runners, one buffer per
/// slot width so a width switch between calls never reinterprets stale
/// bytes.
struct SlotScratch {
  std::vector<W3T<std::uint64_t>> w64;
  std::vector<W3T<Simd256>> w256;
  std::vector<W3T<Simd512>> w512;

  template <class Word>
  std::vector<W3T<Word>>& get() noexcept {
    if constexpr (std::is_same_v<Word, Simd256>) return w256;
    else if constexpr (std::is_same_v<Word, Simd512>) return w512;
    else return w64;
  }
};

template <class Word>
class CheckpointStoreT {
 public:
  /// `num_batches` fault batches, snapshots every `interval` frames.
  /// interval == 0 disables capture (lookups always miss).
  CheckpointStoreT(std::size_t num_batches, std::size_t interval)
      : interval_(interval), snaps_(num_batches) {}

  std::size_t interval() const noexcept { return interval_; }
  std::size_t num_batches() const noexcept { return snaps_.size(); }

  /// Should a snapshot be captured at `frame`? (Frame 0 is the power-up
  /// state — never worth storing.)
  bool want(std::size_t frame) const noexcept {
    return interval_ != 0 && frame != 0 && frame % interval_ == 0;
  }

  /// Latest snapshot of `batch` with frame <= `frame`, or nullptr.
  const SimBatchStateT<Word>* best_at_or_before(std::size_t batch, std::size_t frame) const {
    const auto& v = snaps_[batch];
    const SimBatchStateT<Word>* best = nullptr;
    for (const auto& s : v) {
      if (s.frame > frame) break;  // ascending order
      best = &s;
    }
    return best;
  }

  /// Store a snapshot (no-op if one for s.frame already exists). Snapshots
  /// for distinct batches may be saved concurrently; a single batch is only
  /// ever written by one thread at a time.
  void save(std::size_t batch, const SimBatchStateT<Word>& s) {
    auto& v = snaps_[batch];
    std::size_t pos = v.size();
    while (pos > 0 && v[pos - 1].frame >= s.frame) {
      if (v[pos - 1].frame == s.frame) return;
      --pos;
    }
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(pos), s);
  }

  /// Drop every snapshot with frame > `frame` (all batches) — called when a
  /// vector erasure at `frame` is accepted and the suffix shifts down.
  void invalidate_after(std::size_t frame) {
    for (auto& v : snaps_) {
      while (!v.empty() && v.back().frame > frame) v.pop_back();
    }
  }

  /// Total stored snapshots (diagnostics).
  std::size_t size() const noexcept {
    std::size_t n = 0;
    for (const auto& v : snaps_) n += v.size();
    return n;
  }

 private:
  std::size_t interval_;
  std::vector<std::vector<SimBatchStateT<Word>>> snaps_;
};

using CheckpointStore = CheckpointStoreT<std::uint64_t>;

}  // namespace uniscan
