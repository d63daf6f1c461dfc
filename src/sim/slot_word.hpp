// Slot words: the bit-parallel machine containers behind W3T<Word>.
//
// A parallel-fault batch packs one machine per bit of a slot word — slot 0
// is the good machine, slots 1..kBits-1 carry faulty machines. The original
// engine fixed the word to std::uint64_t (63 faults per batch); this header
// supplies the two wider words, Simd256 and Simd512 (255/511 faults per
// batch), plus the WordTraits glue the templated simulators use to stay
// generic over all three.
//
// The wide types are plain arrays of std::uint64_t lanes. Their bitwise
// operators work on a GCC generic vector of the word's size, which lowers
// to the widest vector ISA of the function they are inlined into: zmm
// inside the AVX-512 kernel entry, ymm inside the AVX2 one, xmm pairs in
// baseline code (sim/fault_sim.cpp dispatches by CPUID). Vector values
// never cross a function boundary — the operators take and return the lane
// struct and touch vectors only by reference — so no function's ABI
// depends on the ISA. Every lowering computes the same bits.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace uniscan {

/// Slot word of N x 64 lanes, one machine per bit: Simd256 (N = 4) and
/// Simd512 (N = 8).
template <unsigned N>
struct alignas(8 * N) SimdWord {
  std::uint64_t lane[N] = {};

  [[gnu::always_inline]] friend SimdWord operator&(const SimdWord& a, const SimdWord& b) noexcept {
    return lanewise(a, b, [](Vec& x, const Vec& y) { x &= y; });
  }
  [[gnu::always_inline]] friend SimdWord operator|(const SimdWord& a, const SimdWord& b) noexcept {
    return lanewise(a, b, [](Vec& x, const Vec& y) { x |= y; });
  }
  [[gnu::always_inline]] friend SimdWord operator^(const SimdWord& a, const SimdWord& b) noexcept {
    return lanewise(a, b, [](Vec& x, const Vec& y) { x ^= y; });
  }
  [[gnu::always_inline]] friend SimdWord operator~(const SimdWord& a) noexcept {
    return lanewise(a, a, [](Vec& x, const Vec&) { x = ~x; });
  }
  friend constexpr bool operator==(const SimdWord& a, const SimdWord& b) noexcept {
    std::uint64_t diff = 0;
    for (unsigned j = 0; j < N; ++j) diff |= a.lane[j] ^ b.lane[j];
    return diff == 0;
  }

 private:
  typedef std::uint64_t Vec __attribute__((vector_size(8 * N)));

  /// `op(Vec& x, const Vec& y)` over the lanes of a and b, result from x.
  template <class Op>
  [[gnu::always_inline]] static SimdWord lanewise(const SimdWord& a, const SimdWord& b,
                                                  Op op) noexcept {
    Vec x, y;
    __builtin_memcpy(&x, a.lane, sizeof x);
    __builtin_memcpy(&y, b.lane, sizeof y);
    op(x, y);
    SimdWord r;
    __builtin_memcpy(r.lane, &x, sizeof x);
    return r;
  }
};

using Simd256 = SimdWord<4>;
using Simd512 = SimdWord<8>;

/// Compile-time shape of a slot word plus uniform lane access, so generic
/// simulator code can treat std::uint64_t and the SIMD words identically.
template <class Word>
struct WordTraits;

template <>
struct WordTraits<std::uint64_t> {
  static constexpr unsigned kBits = 64;
  static constexpr unsigned kLanes = 1;
  static constexpr std::uint64_t zero() noexcept { return 0; }
  static constexpr std::uint64_t ones() noexcept { return ~0ULL; }
  static constexpr std::uint64_t lane(std::uint64_t w, unsigned) noexcept { return w; }
  static constexpr std::uint64_t& lane_ref(std::uint64_t& w, unsigned) noexcept { return w; }
};

template <unsigned N>
struct WordTraits<SimdWord<N>> {
  static constexpr unsigned kBits = 64 * N;
  static constexpr unsigned kLanes = N;
  static constexpr SimdWord<N> zero() noexcept { return {}; }
  static constexpr SimdWord<N> ones() noexcept {
    SimdWord<N> w;
    for (auto& l : w.lane) l = ~0ULL;
    return w;
  }
  static constexpr std::uint64_t lane(const SimdWord<N>& w, unsigned j) noexcept {
    return w.lane[j];
  }
  static constexpr std::uint64_t& lane_ref(SimdWord<N>& w, unsigned j) noexcept {
    return w.lane[j];
  }
};

/// True iff any bit of `w` is set. The lane loop unrolls (kLanes is a
/// constant) and collapses to `w != 0` for std::uint64_t.
template <class Word>
constexpr bool w_any(const Word& w) noexcept {
  std::uint64_t acc = 0;
  for (unsigned j = 0; j < WordTraits<Word>::kLanes; ++j) acc |= WordTraits<Word>::lane(w, j);
  return acc != 0;
}

template <class Word>
constexpr bool w_test(const Word& w, unsigned slot) noexcept {
  return (WordTraits<Word>::lane(w, slot >> 6) >> (slot & 63)) & 1;
}

template <class Word>
constexpr void w_set(Word& w, unsigned slot) noexcept {
  WordTraits<Word>::lane_ref(w, slot >> 6) |= 1ULL << (slot & 63);
}

template <class Word>
constexpr void w_clear(Word& w, unsigned slot) noexcept {
  WordTraits<Word>::lane_ref(w, slot >> 6) &= ~(1ULL << (slot & 63));
}

/// Slot-0 (good machine) bit of a plane word.
template <class Word>
constexpr bool w_bit0(const Word& w) noexcept {
  return (WordTraits<Word>::lane(w, 0) & 1) != 0;
}

/// Visit every set slot of `w` in ascending order. `fn(unsigned slot)`.
template <class Word, class Fn>
constexpr void w_for_each_set(const Word& w, Fn&& fn) {
  for (unsigned j = 0; j < WordTraits<Word>::kLanes; ++j) {
    std::uint64_t m = WordTraits<Word>::lane(w, j);
    while (m) {
      fn(j * 64 + static_cast<unsigned>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
}

}  // namespace uniscan
