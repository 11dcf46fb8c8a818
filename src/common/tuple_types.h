// Tuple element types for top-k over more than a bare key: key+value (KV),
// two keys+value (KKV) and three keys+value (KKKV), as evaluated in the
// paper's Section 6.6 / Figure 14. ElementTraits adapts bare keys and tuple
// structs to one interface so the algorithm kernels are written once.
//
// Multi-key tuples rank lexicographically (key, key2, key3); radix-based
// algorithms select on the primary key's bit pattern only, which is exactly
// what the paper measures (extra keys ride along as payload for data-movement
// purposes).
#ifndef MPTOPK_COMMON_TUPLE_TYPES_H_
#define MPTOPK_COMMON_TUPLE_TYPES_H_

#include <cstdint>
#include <tuple>

#include "common/key_transform.h"

namespace mptopk {

/// Key + 4-byte payload (e.g. tuple id).
struct KV {
  float key;
  uint32_t value;
  friend bool operator==(const KV&, const KV&) = default;
};

/// Two lexicographic keys + payload.
struct KKV {
  float key;
  float key2;
  uint32_t value;
  friend bool operator==(const KKV&, const KKV&) = default;
};

/// Three lexicographic keys + payload.
struct KKKV {
  float key;
  float key2;
  float key3;
  uint32_t value;
  friend bool operator==(const KKKV&, const KKKV&) = default;
};

/// Adapts an element type to the algorithm kernels: primary sort key
/// extraction, total ordering, and a "lowest" sentinel that never enters a
/// top-k result.
template <typename E>
struct ElementTraits {
  using Key = E;
  static constexpr Key PrimaryKey(const E& e) { return e; }
  // Ordered-bits comparison: identical to `<` for integer keys, and the
  // library's canonical NaN-greatest total order for float keys.
  static constexpr bool Less(const E& a, const E& b) {
    return OrderedLess(a, b);
  }
  static constexpr E LowestSentinel() { return KeyTraits<E>::Lowest(); }
  /// Order-reversing involution (top-k of negated = bottom-k of original):
  /// -x for floats, ~x for two's-complement and unsigned ints.
  static constexpr E Negated(const E& e) {
    if constexpr (std::is_floating_point_v<E>) {
      return -e;
    } else {
      return static_cast<E>(~e);
    }
  }
};

template <>
struct ElementTraits<KV> {
  using Key = float;
  static constexpr Key PrimaryKey(const KV& e) { return e.key; }
  static constexpr bool Less(const KV& a, const KV& b) {
    return OrderedLess(a.key, b.key);
  }
  static constexpr KV Negated(KV e) {
    e.key = -e.key;
    return e;
  }
  static constexpr KV LowestSentinel() {
    return KV{KeyTraits<float>::Lowest(), 0};
  }
};

template <>
struct ElementTraits<KKV> {
  using Key = float;
  static constexpr Key PrimaryKey(const KKV& e) { return e.key; }
  static constexpr bool Less(const KKV& a, const KKV& b) {
    return std::make_tuple(KeyTraits<float>::ToOrderedBits(a.key),
                           KeyTraits<float>::ToOrderedBits(a.key2)) <
           std::make_tuple(KeyTraits<float>::ToOrderedBits(b.key),
                           KeyTraits<float>::ToOrderedBits(b.key2));
  }
  static constexpr KKV Negated(KKV e) {
    e.key = -e.key; e.key2 = -e.key2;
    return e;
  }
  static constexpr KKV LowestSentinel() {
    return KKV{KeyTraits<float>::Lowest(), KeyTraits<float>::Lowest(), 0};
  }
};

template <>
struct ElementTraits<KKKV> {
  using Key = float;
  static constexpr Key PrimaryKey(const KKKV& e) { return e.key; }
  static constexpr bool Less(const KKKV& a, const KKKV& b) {
    return std::make_tuple(KeyTraits<float>::ToOrderedBits(a.key),
                           KeyTraits<float>::ToOrderedBits(a.key2),
                           KeyTraits<float>::ToOrderedBits(a.key3)) <
           std::make_tuple(KeyTraits<float>::ToOrderedBits(b.key),
                           KeyTraits<float>::ToOrderedBits(b.key2),
                           KeyTraits<float>::ToOrderedBits(b.key3));
  }
  static constexpr KKKV Negated(KKKV e) {
    e.key = -e.key; e.key2 = -e.key2; e.key3 = -e.key3;
    return e;
  }
  static constexpr KKKV LowestSentinel() {
    return KKKV{KeyTraits<float>::Lowest(), KeyTraits<float>::Lowest(),
                KeyTraits<float>::Lowest(), 0};
  }
};

/// Generic int64-keyed element used by the query engine ((rank_value, row_id)
/// pairs with 64-bit keys).
struct KV64 {
  int64_t key;
  uint32_t value;
  friend bool operator==(const KV64&, const KV64&) = default;
};

template <>
struct ElementTraits<KV64> {
  using Key = int64_t;
  static constexpr Key PrimaryKey(const KV64& e) { return e.key; }
  static constexpr bool Less(const KV64& a, const KV64& b) {
    return a.key < b.key;
  }
  static constexpr KV64 Negated(KV64 e) {
    e.key = ~e.key;
    return e;
  }
  static constexpr KV64 LowestSentinel() {
    return KV64{KeyTraits<int64_t>::Lowest(), 0};
  }
};

/// The unsigned, order-preserving bit pattern of E's primary key: radix
/// digits, bucket ranges and the cost model's key width are taken from it.
template <typename E>
using KeyBits = typename KeyTraits<typename ElementTraits<E>::Key>::Unsigned;

template <typename E>
KeyBits<E> OrderedKeyBits(const E& e) {
  using Key = typename ElementTraits<E>::Key;
  return KeyTraits<Key>::ToOrderedBits(ElementTraits<E>::PrimaryKey(e));
}

}  // namespace mptopk

// Every element type the top-k operators run over, as X(type, enumerator,
// name). It generates the operator registry's per-type hooks
// (topk/registry.h) and the explicit instantiations of the GPU algorithms,
// so adding a type means one line here plus its ElementTraits.
#define MPTOPK_TOPK_ELEMENT_TYPES(X) \
  X(float, kF32, "f32")              \
  X(double, kF64, "f64")             \
  X(uint32_t, kU32, "u32")           \
  X(int32_t, kI32, "i32")            \
  X(uint64_t, kU64, "u64")           \
  X(int64_t, kI64, "i64")            \
  X(::mptopk::KV, kKV, "kv")         \
  X(::mptopk::KV64, kKV64, "kv64")   \
  X(::mptopk::KKV, kKKV, "kkv")      \
  X(::mptopk::KKKV, kKKKV, "kkkv")

#endif  // MPTOPK_COMMON_TUPLE_TYPES_H_
