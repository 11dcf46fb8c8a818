// CPU top-k baselines (paper Section 6.7) and the CPU port of bitonic top-k
// (paper Appendix C).
//
// Three algorithms, all parallelized by partitioning the input across
// threads and reducing the per-thread top-k's in a final host step:
//
//  * kStlPq  : std::priority_queue as a size-k min-heap ("STL PQ").
//  * kHandPq : hand-rolled array min-heap with replace-min ("Hand PQ").
//  * kBitonic: Appendix C bitonic top-k — each partition is processed in
//    L1-resident vectors of 2048 elements through SortReducer /
//    BitonicReducer phases (16x reduction each); the step kernels use SSE
//    min/max when available. Unlike the heaps, its cost is data-independent,
//    which is why it wins on sorted (worst-case) inputs despite doing
//    O(n log^2 k) comparisons.
//
// The result carries only the answer; callers time the call on the host
// clock (common/timer.h).
#ifndef MPTOPK_CPUTOPK_CPU_TOPK_H_
#define MPTOPK_CPUTOPK_CPU_TOPK_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/tuple_types.h"

namespace mptopk::cpu {

enum class CpuAlgorithm {
  kStlPq,
  kHandPq,
  kBitonic,
};

inline const char* CpuAlgorithmName(CpuAlgorithm a) {
  switch (a) {
    case CpuAlgorithm::kStlPq:
      return "STL PQ";
    case CpuAlgorithm::kHandPq:
      return "Hand PQ";
    case CpuAlgorithm::kBitonic:
      return "CPU Bitonic";
  }
  return "Unknown";
}

template <typename E>
struct CpuTopKResult {
  /// The k greatest elements, descending.
  std::vector<E> items;
  int threads_used = 1;
};

/// Computes the top-k of data[0, n) on the CPU. `threads` = 0 uses
/// std::thread::hardware_concurrency(). Requirements: 1 <= k <= n; the
/// bitonic variant additionally requires k to be a power of two <= 1024.
template <typename E>
StatusOr<CpuTopKResult<E>> CpuTopK(const E* data, size_t n, size_t k,
                                   CpuAlgorithm algo, int threads = 0);

}  // namespace mptopk::cpu

#endif  // MPTOPK_CPUTOPK_CPU_TOPK_H_
