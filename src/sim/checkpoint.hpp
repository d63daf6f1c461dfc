// Checkpointed incremental resimulation support.
//
// A SimBatchStateT<Word> is the complete resumable state of one fault batch
// (up to kBits-1 faults, one per slot of the Word) of a parallel-fault
// simulation: the machine-pair state of every DFF, the live/detected
// bookkeeping, and (for the transition model) the per-fault launch history.
// Simulating frames [0, f) of a sequence and saving the state, then later
// resuming at f, is bit-identical to simulating from frame 0 — the
// invariant the compaction engine relies on.
//
// A CheckpointStoreT holds lean snapshots of one batch's run at ascending
// frames: only the words of the DFFs the batch samples, each a 2-bit code
// or a reference into the batch's pool of distinct words, and the launch
// history, without the per-slot detection arrays. The omission engine
// (compact/compact_impl.hpp, DESIGN.md §5c) keeps one per batch over the
// whole sequence: it resumes trials from them, stops a trial when its state
// matches one, and copies them across when it catches a trace up with the
// erasures committed since it was recorded.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
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

/// The distinct machine-pair words of one batch's snapshots, each stored
/// once and referred to by index. A batch's fault effects recur: during scan
/// shifts they march down the chain word by word, so a trace holds an order
/// of magnitude fewer distinct words than snapshot words.
template <class Word>
class WordPoolT {
 public:
  /// Index of `w`, added if new.
  std::uint32_t intern(const W3T<Word>& w) {
    if (2 * (words_.size() + 1) > table_.size())
      rehash(std::max<std::size_t>(64, 2 * table_.size()));
    for (std::size_t h = hash(w) & (table_.size() - 1);; h = (h + 1) & (table_.size() - 1)) {
      if (table_[h] == 0) {
        words_.push_back(w);
        table_[h] = static_cast<std::uint32_t>(words_.size());
        return table_[h] - 1;
      }
      if (words_[table_[h] - 1] == w) return table_[h] - 1;
    }
  }

  const W3T<Word>& operator[](std::uint32_t i) const noexcept { return words_[i]; }
  std::size_t size() const noexcept { return words_.size(); }

 private:
  static std::size_t hash(const W3T<Word>& w) noexcept {
    std::uint64_t lanes[sizeof(W3T<Word>) / sizeof(std::uint64_t)];
    std::memcpy(lanes, &w, sizeof lanes);
    std::uint64_t h = 0;
    for (const std::uint64_t x : lanes) h = (h ^ x) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h ^ (h >> 29));
  }

  void rehash(std::size_t size) {
    table_.assign(size, 0);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      std::size_t h = hash(words_[i]) & (size - 1);
      while (table_[h] != 0) h = (h + 1) & (size - 1);
      table_[h] = static_cast<std::uint32_t>(i + 1);
    }
  }

  std::vector<W3T<Word>> words_;
  std::vector<std::uint32_t> table_;  // open addressing: word index + 1, 0 free
};

template <class Word>
class CheckpointStoreT {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Snapshots of the DFFs listed in `dffs` (the ones a batch samples) and
  /// of `driven_size` launch-history values.
  CheckpointStoreT(std::vector<std::uint32_t> dffs, std::size_t driven_size)
      : dffs_(std::move(dffs)),
        stride_((dffs_.size() + driven_size + 3) / 4),
        pool_(std::make_shared<WordPoolT<Word>>()) {}

  std::size_t size() const noexcept { return frames_.size(); }
  std::size_t frame(std::size_t i) const noexcept { return frames_[i]; }

  /// Index of the latest snapshot at a frame <= `frame`, or npos.
  std::size_t best_at_or_before(std::size_t frame) const noexcept {
    const std::size_t i = first_after(frame);
    return i == 0 ? npos : i - 1;
  }

  /// Index of the first snapshot at a frame > `frame`, or size().
  std::size_t first_after(std::size_t frame) const noexcept {
    return static_cast<std::size_t>(
        std::upper_bound(frames_.begin(), frames_.end(), frame) - frames_.begin());
  }

  /// Append the state of `s` at frame s.frame, which must lie past every
  /// stored frame: snapshots are only ever taken in simulation order, so
  /// the store stays sorted without shuffling.
  void push_back(const SimBatchStateT<Word>& s) {
    const std::size_t at = codes_.size();
    codes_.resize(at + stride_, 0);
    std::size_t k = 0;
    for (const std::uint32_t j : dffs_) put(at, k++, encode(s.state[j], refs_));
    for (const V3 v : s.prev_driven) put(at, k++, static_cast<std::uint8_t>(v));
    frames_.push_back(static_cast<std::uint32_t>(s.frame));
    ends_.push_back(static_cast<std::uint32_t>(refs_.size()));
  }

  /// Load snapshot `i` into `s` (DFF words, launch history and frame); the
  /// detection bookkeeping of `s` is left to the caller.
  void restore(std::size_t i, SimBatchStateT<Word>& s) const {
    const std::uint16_t* r = refs_.data() + begin(i);
    std::size_t k = 0;
    for (const std::uint32_t j : dffs_) s.state[j] = decode(code(i, k++), r);
    for (V3& v : s.prev_driven) v = static_cast<V3>(code(i, k++));
    s.frame = frames_[i];
  }

  /// True iff `s` holds exactly the DFF words and launch history of
  /// snapshot `i` (frames aside): from equal states, equal vectors give
  /// equal futures.
  bool matches(std::size_t i, const SimBatchStateT<Word>& s) const noexcept {
    const std::uint16_t* r = refs_.data() + begin(i);
    std::size_t k = 0;
    for (const std::uint32_t j : dffs_)
      if (!(s.state[j] == decode(code(i, k++), r))) return false;
    for (const V3 v : s.prev_driven)
      if (static_cast<std::uint8_t>(v) != code(i, k++)) return false;
    return true;
  }

  /// Append snapshot `i` of `other`, which shares this store's layout and
  /// word pool (see reset_like), relabelled to frame `frame`; frames must
  /// ascend as in push_back.
  void append(const CheckpointStoreT& other, std::size_t i, std::size_t frame) {
    codes_.insert(codes_.end(), other.codes_.begin() + static_cast<std::ptrdiff_t>(i * stride_),
                  other.codes_.begin() + static_cast<std::ptrdiff_t>((i + 1) * stride_));
    refs_.insert(refs_.end(), other.refs_.begin() + static_cast<std::ptrdiff_t>(other.begin(i)),
                 other.refs_.begin() + static_cast<std::ptrdiff_t>(other.ends_[i]));
    frames_.push_back(static_cast<std::uint32_t>(frame));
    ends_.push_back(static_cast<std::uint32_t>(refs_.size()));
  }

  /// Empty the store and give it the layout and word pool of `other`.
  void reset_like(const CheckpointStoreT& other) {
    dffs_ = other.dffs_;
    stride_ = other.stride_;
    pool_ = other.pool_;
    live_words_ = other.live_words_;
    frames_.clear();
    ends_.clear();
    codes_.clear();
    refs_.clear();
  }

  /// Words that only dropped snapshots used stay in the pool. Once it has
  /// doubled since the last rebuild, re-intern this store's live words into
  /// a fresh pool (stores sharing the old one must be reset before reuse).
  void shrink_pool() {
    if (pool_->size() <= 2 * live_words_) return;
    const auto old_pool = std::move(pool_);
    pool_ = std::make_shared<WordPoolT<Word>>();
    std::vector<std::uint16_t> refs;
    refs.reserve(refs_.size());
    const std::uint16_t* r = refs_.data();
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      for (std::size_t k = 0; k < dffs_.size(); ++k) {
        const std::uint8_t c = code(i, k);
        if (c < kNear) continue;
        put(i * stride_, k, encode((*old_pool)[c == kNear ? *r : r[0] | std::uint32_t{r[1]} << 16],
                                   refs));
        r += c == kNear ? 1 : 2;
      }
      ends_[i] = static_cast<std::uint32_t>(refs.size());
    }
    refs_ = std::move(refs);
    live_words_ = std::max<std::size_t>(pool_->size(), kMinLiveWords);
  }

 private:
  // Each DFF word is stored as a 2-bit code: every slot 0, every slot 1, or
  // a reference into the batch's word pool by one or two 16-bit halves.
  // Launch-history values use the same 2-bit fields.
  enum : std::uint8_t { kAllZero = 0, kAllOne = 1, kNear = 2, kFar = 3 };

  std::uint8_t encode(const W3T<Word>& w, std::vector<std::uint16_t>& refs) {
    if (w == W3T<Word>::all_zero()) return kAllZero;
    if (w == W3T<Word>::all_one()) return kAllOne;
    const std::uint32_t i = pool_->intern(w);
    refs.push_back(static_cast<std::uint16_t>(i));
    if (i <= 0xFFFF) return kNear;
    refs.push_back(static_cast<std::uint16_t>(i >> 16));
    return kFar;
  }

  W3T<Word> decode(std::uint8_t c, const std::uint16_t*& r) const noexcept {
    switch (c) {
      case kAllZero: return W3T<Word>::all_zero();
      case kAllOne: return W3T<Word>::all_one();
      case kNear: return (*pool_)[*r++];
      default: {
        const std::uint32_t lo = *r++;
        return (*pool_)[lo | static_cast<std::uint32_t>(*r++) << 16];
      }
    }
  }

  void put(std::size_t at, std::size_t k, std::uint8_t c) noexcept {
    std::uint8_t& b = codes_[at + k / 4];
    b = static_cast<std::uint8_t>((b & ~(3u << (2 * (k % 4)))) | (c << (2 * (k % 4))));
  }
  std::uint8_t code(std::size_t i, std::size_t k) const noexcept {
    return (codes_[i * stride_ + k / 4] >> (2 * (k % 4))) & 3;
  }
  std::size_t begin(std::size_t i) const noexcept { return i == 0 ? 0 : ends_[i - 1]; }

  std::vector<std::uint32_t> dffs_;
  std::size_t stride_;                       // code bytes per snapshot
  std::shared_ptr<WordPoolT<Word>> pool_;    // shared with reset_like copies
  std::vector<std::uint32_t> frames_;        // ascending
  std::vector<std::uint32_t> ends_;          // per snapshot: end of its refs
  std::vector<std::uint8_t> codes_;          // size() x stride_, 2 bits a value
  std::vector<std::uint16_t> refs_;          // pool references, in order
  static constexpr std::size_t kMinLiveWords = 256;
  std::size_t live_words_ = kMinLiveWords;   // pool size after the last repack
};

}  // namespace uniscan
