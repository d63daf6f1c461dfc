// Three-valued logic (0, 1, X) in two representations:
//
//  * V3  — scalar, for ATPG decision making and small examples.
//  * W3T — bit-parallel, two plane words per signal with the encoding
//            0 -> (v0=1, v1=0),  1 -> (v0=0, v1=1),  X -> (v0=0, v1=0).
//          The invariant v0 & v1 == 0 holds for every well-formed value.
//
// W3T is templated over the slot word (sim/slot_word.hpp): W3 = W3T<u64>
// carries 64 machines per signal, W3T<Simd256>/W3T<Simd512> carry 256/512.
// Gate evaluation over W3T is branch-free and is the inner loop of both the
// good-machine simulator and the parallel-fault simulator; every width
// computes identical bits, wider words just carry more machines per op.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "sim/slot_word.hpp"

namespace uniscan {

enum class V3 : std::uint8_t { Zero = 0, One = 1, X = 2 };

inline char to_char(V3 v) noexcept {
  switch (v) {
    case V3::Zero: return '0';
    case V3::One: return '1';
    case V3::X: return 'x';
  }
  return '?';
}

inline V3 v3_from_char(char c) noexcept {
  if (c == '0') return V3::Zero;
  if (c == '1') return V3::One;
  return V3::X;
}

inline V3 v3_not(V3 a) noexcept {
  if (a == V3::Zero) return V3::One;
  if (a == V3::One) return V3::Zero;
  return V3::X;
}

inline V3 v3_and(V3 a, V3 b) noexcept {
  if (a == V3::Zero || b == V3::Zero) return V3::Zero;
  if (a == V3::One && b == V3::One) return V3::One;
  return V3::X;
}

inline V3 v3_or(V3 a, V3 b) noexcept {
  if (a == V3::One || b == V3::One) return V3::One;
  if (a == V3::Zero && b == V3::Zero) return V3::Zero;
  return V3::X;
}

inline V3 v3_xor(V3 a, V3 b) noexcept {
  if (a == V3::X || b == V3::X) return V3::X;
  return (a == b) ? V3::Zero : V3::One;
}

/// MUX with optimistic X handling: if select is X but both data inputs agree
/// on a known value, that value is produced.
inline V3 v3_mux(V3 d0, V3 d1, V3 sel) noexcept {
  if (sel == V3::Zero) return d0;
  if (sel == V3::One) return d1;
  return (d0 == d1) ? d0 : V3::X;
}

// ---------------------------------------------------------------------------

/// WordTraits<Word>::kBits three-valued signals packed in two plane words.
template <class Word>
struct W3T {
  Word v0{};  // bit set => that slot is 0
  Word v1{};  // bit set => that slot is 1

  static constexpr unsigned kSlots = WordTraits<Word>::kBits;

  static constexpr W3T all_x() noexcept { return {WordTraits<Word>::zero(), WordTraits<Word>::zero()}; }
  static constexpr W3T all_zero() noexcept { return {WordTraits<Word>::ones(), WordTraits<Word>::zero()}; }
  static constexpr W3T all_one() noexcept { return {WordTraits<Word>::zero(), WordTraits<Word>::ones()}; }

  /// Broadcast a scalar into all slots.
  static constexpr W3T broadcast(V3 v) noexcept {
    if (v == V3::Zero) return all_zero();
    if (v == V3::One) return all_one();
    return all_x();
  }

  constexpr bool valid() const noexcept { return !w_any(v0 & v1); }

  V3 get(unsigned slot) const noexcept {
    if (w_test(v0, slot)) return V3::Zero;
    if (w_test(v1, slot)) return V3::One;
    return V3::X;
  }

  void set(unsigned slot, V3 v) noexcept {
    w_clear(v0, slot);
    w_clear(v1, slot);
    if (v == V3::Zero) w_set(v0, slot);
    else if (v == V3::One) w_set(v1, slot);
  }

  bool operator==(const W3T&) const noexcept = default;
};

/// The historical 64-slot word pair; slot-width-agnostic code is written
/// against W3T, everything good-machine-only stays on W3.
using W3 = W3T<std::uint64_t>;

template <class Word>
inline constexpr W3T<Word> w3_not(W3T<Word> a) noexcept { return {a.v1, a.v0}; }
template <class Word>
inline constexpr W3T<Word> w3_and(W3T<Word> a, W3T<Word> b) noexcept {
  return {a.v0 | b.v0, a.v1 & b.v1};
}
template <class Word>
inline constexpr W3T<Word> w3_or(W3T<Word> a, W3T<Word> b) noexcept {
  return {a.v0 & b.v0, a.v1 | b.v1};
}
template <class Word>
inline constexpr W3T<Word> w3_xor(W3T<Word> a, W3T<Word> b) noexcept {
  return {(a.v0 & b.v0) | (a.v1 & b.v1), (a.v0 & b.v1) | (a.v1 & b.v0)};
}

/// Word-parallel MUX with the same optimistic X rule as v3_mux.
template <class Word>
inline constexpr W3T<Word> w3_mux(W3T<Word> d0, W3T<Word> d1, W3T<Word> sel) noexcept {
  W3T<Word> out;
  out.v1 = (sel.v0 & d0.v1) | (sel.v1 & d1.v1) | (d0.v1 & d1.v1);
  out.v0 = (sel.v0 & d0.v0) | (sel.v1 & d1.v0) | (d0.v0 & d1.v0);
  return out;
}

/// Render slot values "0/1/x" LSB-first, for diagnostics.
template <class Word>
std::string to_string(W3T<Word> w, unsigned slots = 8) {
  std::string s;
  s.reserve(slots);
  for (unsigned i = 0; i < slots && i < W3T<Word>::kSlots; ++i) s.push_back(to_char(w.get(i)));
  return s;
}

}  // namespace uniscan
