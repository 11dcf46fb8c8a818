// The bitonic top-k plan: the network's step sequences and register
// windows, the reduction schedule (which local sort / rebuild / merge ops
// reduce m elements to a target) and the launch geometry. The GPU kernels,
// the engine's fused filter+top-k kernel, the CPU port and the Section 7
// cost model all read it, so the model prices and the CPU runs the ops the
// kernels launch. Header-only except PlanBitonicWindows and
// ResolveBitonicGeometry (mptopk_gputopk), so the CPU port includes it
// without linking the GPU library.
#ifndef MPTOPK_GPUTOPK_BITONIC_PLAN_H_
#define MPTOPK_GPUTOPK_BITONIC_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "common/tuple_types.h"
#include "simt/device_spec.h"

namespace mptopk::gpu {

struct BitonicOptions;  // gputopk/bitonic_topk.h

/// One compare-exchange round of the bitonic network: pairs (i, i+inc) with
/// (i & inc) == 0, ascending when (i & dir) == 0 (paper Algorithms 2/4).
struct BitonicStep {
  uint32_t dir;
  uint32_t inc;
};

/// Exchanges a and b when `swap` is set, as a masked select over their
/// words: no branch on the comparison, which random keys make
/// unpredictable.
template <typename E>
inline void MaskedSwap(E& a, E& b, bool swap) {
  static_assert(std::is_trivially_copyable_v<E>);
  using Word = std::conditional_t<sizeof(E) % 8 == 0, uint64_t, uint32_t>;
  static_assert(sizeof(E) % sizeof(Word) == 0, "elements are whole words");
  constexpr size_t kWords = sizeof(E) / sizeof(Word);
  Word wa[kWords], wb[kWords];
  std::memcpy(wa, &a, sizeof(E));
  std::memcpy(wb, &b, sizeof(E));
  const Word mask = Word{0} - static_cast<Word>(swap);
  for (size_t i = 0; i < kWords; ++i) {
    const Word diff = (wa[i] ^ wb[i]) & mask;
    wa[i] ^= diff;
    wb[i] ^= diff;
  }
  std::memcpy(&a, wa, sizeof(E));
  std::memcpy(&b, wb, sizeof(E));
}

/// The network's compare-exchange: orders (a, b) ascending when
/// `ascending`, descending otherwise; equal elements are exchanged (paper:
/// swap = reverse XOR (a < b)). The GPU kernels and the CPU port share it.
template <typename E>
inline void BitonicCompareExchange(E& a, E& b, bool ascending) {
  MaskedSwap(a, b, ascending != ElementTraits<E>::Less(a, b));
}

/// The merge's pairwise max (paper Algorithm 3): b when a < b, else a.
template <typename E>
inline E BitonicPairMax(E a, E b) {
  MaskedSwap(a, b, ElementTraits<E>::Less(a, b));
  return a;
}

/// Steps that turn an unsorted array into sorted runs of length k,
/// alternating ascending/descending (paper Algorithm 2).
inline std::vector<BitonicStep> BitonicLocalSortSteps(uint32_t k) {
  std::vector<BitonicStep> steps;
  for (uint32_t len = 1; len < k; len <<= 1) {
    for (uint32_t inc = len; inc >= 1; inc >>= 1) {
      steps.push_back(BitonicStep{len << 1, inc});
    }
  }
  return steps;
}

/// Steps that re-sort bitonic runs of length k (paper Algorithm 4).
inline std::vector<BitonicStep> BitonicRebuildSteps(uint32_t k) {
  std::vector<BitonicStep> steps;
  for (uint32_t inc = k >> 1; inc >= 1; inc >>= 1) {
    steps.push_back(BitonicStep{k, inc});
  }
  return steps;
}

/// Both step sequences of the k-run network, built once per launch (GPU)
/// or per partition (CPU) and reused by every op of a schedule.
struct BitonicNetwork {
  explicit BitonicNetwork(size_t k)
      : k(k),
        local_sort(BitonicLocalSortSteps(static_cast<uint32_t>(k))),
        rebuild(BitonicRebuildSteps(static_cast<uint32_t>(k))) {}
  size_t k;
  std::vector<BitonicStep> local_sort;
  std::vector<BitonicStep> rebuild;
};

/// One op of a reduction schedule, applied to the first m elements: local
/// sort into k-runs, rebuild bitonic k-runs into sorted ones, or the
/// pairwise-max merge that halves m (paper Algorithm 3).
struct BitonicOp {
  enum Kind { kLocalSort, kRebuild, kMerge };
  Kind kind;
  size_t m;
};

/// The ops that reduce m elements (a power of two) to `target`. Unsorted
/// input is local-sorted first (the SortReducer of paper Algorithm 5);
/// bitonic k-runs are rebuilt before each merge (the BitonicReducer). Each
/// merge leaves bitonic k-runs, so a caller that needs one sorted run adds
/// the final rebuild itself.
inline std::vector<BitonicOp> BitonicReduceSchedule(size_t m, size_t target,
                                                    bool unsorted) {
  std::vector<BitonicOp> ops;
  if (unsorted) ops.push_back({BitonicOp::kLocalSort, m});
  for (bool sorted = unsorted; m > target; m >>= 1, sorted = false) {
    if (!sorted) ops.push_back({BitonicOp::kRebuild, m});
    ops.push_back({BitonicOp::kMerge, m});
  }
  return ops;
}

/// A window of consecutive steps whose comparison distances span bits
/// [lo_bit, hi_bit]; the coupled elements form groups of 2^(hi-lo+1) at
/// stride 2^lo that one thread holds in registers (paper "combined steps").
struct BitonicWindow {
  int lo_bit;
  int hi_bit;
  std::vector<BitonicStep> steps;
  int group_size() const { return 1 << (hi_bit - lo_bit + 1); }
  /// Strided windows (lo > 0) are the bank-conflicting "comparison distance
  /// > 1" cases of paper Figures 9/10.
  bool strided() const { return lo_bit > 0; }
};

/// Splits a step sequence into register windows of width <=
/// width_budget_bits. Maximal descending-distance runs are split
/// low-aligned (short strided lead window, then full windows ending at
/// distance 1); whole runs that fit are absorbed into the previous window.
std::vector<BitonicWindow> PlanBitonicWindows(
    const std::vector<BitonicStep>& steps, int width_budget_bits);

/// Largest B: the size of a combined step's register array.
constexpr int kMaxElemsPerThread = 64;

/// Launch geometry of the bitonic kernels for one (element size, k,
/// options) combination.
struct BitonicGeometry {
  int nt = 256;        // threads per block
  int B = 16;          // elements per thread in fused kernels
  size_t tile = 4096;  // elements staged per block
  int merges = 1;      // merge (halving) rounds per fused kernel
  bool pad = true;
  bool permute = true;
  bool combine = true;
  bool reassign = true;

  size_t PadIdx(size_t i) const { return pad ? i + (i >> 5) : i; }
  size_t SharedElems(size_t logical) const {
    return pad ? logical + (logical >> 5) + 1 : logical;
  }
  /// Register window width, in bits, for threads holding
  /// `elems_per_thread` elements each.
  int WindowBudget(size_t elems_per_thread) const {
    if (!combine) return 1;
    size_t cap = std::min<size_t>(elems_per_thread, B);
    return std::max(1, Log2Floor(std::max<size_t>(2, NextPowerOfTwo(cap))));
  }
  /// Outputs per block of a fused reducer: the tile after `merges` halvings.
  size_t OutPerBlock() const { return tile >> merges; }
  /// Blocks of a fused reducer over m elements, one tile each.
  size_t Blocks(size_t m) const { return CeilDiv(m, tile); }
  /// Elements a fused reducer writes for m inputs.
  size_t Reduced(size_t m) const { return Blocks(m) * OutPerBlock(); }
};

/// The one place the bitonic launch shape is decided: B from the options,
/// the block halved from 256 threads until the (padded) tile fits shared
/// memory, and the merges per fused kernel. Rejects k when two k-runs do
/// not fit one tile.
StatusOr<BitonicGeometry> ResolveBitonicGeometry(const simt::DeviceSpec& spec,
                                                 size_t elem_bytes, size_t k,
                                                 const BitonicOptions& opts);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_BITONIC_PLAN_H_
