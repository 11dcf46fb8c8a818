// Order-preserving transforms from comparable key types to unsigned integer
// bit patterns, and back.
//
// Radix-based algorithms (radix sort, radix select) operate on unsigned
// digits. To support signed integers and IEEE-754 floats with the same
// machinery, keys are mapped to unsigned values such that
//   a < b  <=>  ToOrderedBits(a) < ToOrderedBits(b).
//
// * unsigned ints: identity.
// * signed ints: flip the sign bit (two's-complement bias).
// * floats/doubles: flip the sign bit for non-negatives, flip all bits for
//   negatives (the classic "radix-sortable float" trick). Total order over
//   all values, with -0.0 < +0.0.
//
// NaN ordering (the library-wide contract, enforced here so every algorithm
// — radix- and comparison-based alike — agrees): every NaN, regardless of
// sign or payload bits, maps to the single greatest ordered value. Hence
// NaN > +Inf, all NaNs compare equal to each other, and a NaN that enters a
// top-k result is returned as the canonical quiet NaN (payload bits are not
// preserved). Comparison-based algorithms obtain the same order through
// ElementTraits<E>::Less, which compares ordered bits for float keys. See
// docs/robustness.md ("Degenerate inputs").
#ifndef MPTOPK_COMMON_KEY_TRANSFORM_H_
#define MPTOPK_COMMON_KEY_TRANSFORM_H_

#include <bit>
#include <concepts>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace mptopk {

template <typename T>
struct KeyTraits;

template <>
struct KeyTraits<uint32_t> {
  using Unsigned = uint32_t;
  static constexpr Unsigned ToOrderedBits(uint32_t v) { return v; }
  static constexpr uint32_t FromOrderedBits(Unsigned u) { return u; }
  static constexpr uint32_t Lowest() { return 0; }
};

template <>
struct KeyTraits<uint64_t> {
  using Unsigned = uint64_t;
  static constexpr Unsigned ToOrderedBits(uint64_t v) { return v; }
  static constexpr uint64_t FromOrderedBits(Unsigned u) { return u; }
  static constexpr uint64_t Lowest() { return 0; }
};

template <>
struct KeyTraits<int32_t> {
  using Unsigned = uint32_t;
  static constexpr Unsigned ToOrderedBits(int32_t v) {
    return static_cast<uint32_t>(v) ^ 0x80000000u;
  }
  static constexpr int32_t FromOrderedBits(Unsigned u) {
    return static_cast<int32_t>(u ^ 0x80000000u);
  }
  static constexpr int32_t Lowest() { return INT32_MIN; }
};

template <>
struct KeyTraits<int64_t> {
  using Unsigned = uint64_t;
  static constexpr Unsigned ToOrderedBits(int64_t v) {
    return static_cast<uint64_t>(v) ^ 0x8000000000000000ull;
  }
  static constexpr int64_t FromOrderedBits(Unsigned u) {
    return static_cast<int64_t>(u ^ 0x8000000000000000ull);
  }
  static constexpr int64_t Lowest() { return INT64_MIN; }
};

template <>
struct KeyTraits<float> {
  using Unsigned = uint32_t;
  // Integer ops only, so the bitonic compare-exchange stays branch-free
  // on a key's sign.
  static constexpr Unsigned ToOrderedBits(float v) {
    const uint32_t bits = std::bit_cast<uint32_t>(v);
    // Negatives flip every bit, non-negatives the sign bit.
    const uint32_t ordered =
        bits ^ (static_cast<uint32_t>(static_cast<int32_t>(bits) >> 31) |
                0x80000000u);
    // Canonical NaN (all-ones exponent, nonzero mantissa): the greatest key.
    return (bits & 0x7FFFFFFFu) > 0x7F800000u ? 0xFFFFFFFFu : ordered;
  }
  static constexpr float FromOrderedBits(Unsigned u) {
    uint32_t bits = (u & 0x80000000u) ? (u & 0x7FFFFFFFu) : ~u;
    return std::bit_cast<float>(bits);
  }
  /// The least key under this total order. Must be -Inf, not -FLT_MAX:
  /// sentinel padding compares against real input, and an input containing
  /// -Inf would rank below a -FLT_MAX sentinel, letting the sentinel leak
  /// into top-k results.
  static constexpr float Lowest() {
    return -std::numeric_limits<float>::infinity();
  }
};

template <>
struct KeyTraits<double> {
  using Unsigned = uint64_t;
  static constexpr Unsigned ToOrderedBits(double v) {
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    const uint64_t ordered =
        bits ^ (static_cast<uint64_t>(static_cast<int64_t>(bits) >> 63) |
                0x8000000000000000ull);
    // Canonical NaN: the greatest key.
    return (bits & 0x7FFFFFFFFFFFFFFFull) > 0x7FF0000000000000ull
               ? 0xFFFFFFFFFFFFFFFFull
               : ordered;
  }
  static constexpr double FromOrderedBits(Unsigned u) {
    uint64_t bits =
        (u & 0x8000000000000000ull) ? (u & 0x7FFFFFFFFFFFFFFFull) : ~u;
    return std::bit_cast<double>(bits);
  }
  static constexpr double Lowest() {
    return -std::numeric_limits<double>::infinity();
  }
};

/// Total-order comparison through the ordered bit pattern. For integer keys
/// this is the native comparison; for float keys it adds the NaN contract
/// above (NaN greatest, -0.0 < +0.0). All comparison-based top-k code uses
/// this (via ElementTraits<E>::Less) so radix- and comparison-based
/// algorithms rank identically.
template <typename T>
constexpr bool OrderedLess(const T& a, const T& b) {
  return KeyTraits<T>::ToOrderedBits(a) < KeyTraits<T>::ToOrderedBits(b);
}

/// True when the key is NaN (never true for integer keys).
template <typename T>
constexpr bool IsNanKey(const T& v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v != v;
  } else {
    (void)v;
    return false;
  }
}

/// Concept for types usable as top-k sort keys.
template <typename T>
concept SortableKey = requires(T v, typename KeyTraits<T>::Unsigned u) {
  { KeyTraits<T>::ToOrderedBits(v) } -> std::same_as<typename KeyTraits<T>::Unsigned>;
  { KeyTraits<T>::FromOrderedBits(u) } -> std::same_as<T>;
  { KeyTraits<T>::Lowest() } -> std::same_as<T>;
};

}  // namespace mptopk

#endif  // MPTOPK_COMMON_KEY_TRANSFORM_H_
