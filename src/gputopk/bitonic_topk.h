// Bitonic Top-K: the paper's core contribution (Sections 3.2 and 4.3).
//
// The algorithm decomposes bitonic sort into three operators —
//
//   local sort : build sorted runs of length k (alternating direction),
//   merge      : pairwise max of adjacent runs; the k greatest survive as a
//                bitonic sequence and the problem size halves,
//   rebuild    : re-sort the bitonic k-runs in log(k) steps,
//
// — and repeats merge+rebuild until k elements remain. Unlike a full bitonic
// sort it performs no unnecessary work, yet keeps the data-independent,
// massively parallel structure (no adversarial input distribution exists).
//
// The six optimizations of Section 4.3 are individually toggleable through
// BitonicOptions so the ablation study (paper's 521ms -> 15.4ms ladder and
// Figure 8) can be replayed and each variant can be tested for correctness:
//
//   1. use_shared_memory    stage each operator's tile in shared memory
//   2. fuse_kernels         fuse operators into SortReducer/BitonicReducer
//   3. combine_steps        run windows of steps in registers, sharing loads
//   4. pad_shared           pad shared arrays (i + i/32) to break conflicts
//   5. chunk_permute        rotate per-lane access order inside combined
//                           steps to break residual bank conflicts
//   6. reassign_partitions  after a reduction, give half the threads all the
//                           work so combined steps stay maximal
//
// Results are returned in descending primary-key order. The input buffer is
// not modified (out-of-place; auxiliary memory ~ n/8, paper Section 4.3).
#ifndef MPTOPK_GPUTOPK_BITONIC_TOPK_H_
#define MPTOPK_GPUTOPK_BITONIC_TOPK_H_

#include <cstddef>

#include "common/status.h"
#include "common/tuple_types.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

struct BitonicOptions {
  bool use_shared_memory = true;
  bool fuse_kernels = true;
  bool combine_steps = true;
  bool pad_shared = true;
  bool chunk_permute = true;
  bool reassign_partitions = true;
  /// Elements processed per thread in fused kernels (the paper's B, Figure
  /// 8). 0 = auto: 16 with padding, 8 without (beyond 8, unpadded combined
  /// steps double bank conflicts, Section 4.3).
  int elems_per_thread = 0;

  /// All optimizations disabled: one kernel per bitonic step, operating
  /// directly on global memory (the 521ms baseline of Section 4.3).
  static BitonicOptions Naive() {
    return BitonicOptions{false, false, false, false, false, false, 0};
  }
};

/// Computes the top-k (greatest by ElementTraits ordering) of the
/// device-resident `data[0, n)`. Requirements: 1 <= k <= n, k a power of
/// two, and k small enough that two runs fit a tile (k <= 1024 for all
/// supported element types at default settings).
///
/// Instantiated for every type in MPTOPK_TOPK_ELEMENT_TYPES.
template <typename E>
StatusOr<TopKResult<E>> BitonicTopKDevice(const simt::ExecCtx& dev,
                                          simt::DeviceBuffer<E>& data,
                                          size_t n, size_t k,
                                          const BitonicOptions& opts = {});

/// Reduces a buffer that already consists of bitonic runs of length k (the
/// output contract of a SortReducer-style kernel, e.g. the query engine's
/// fused filter+top-k kernel) down to the sorted top-k. m must be a
/// multiple of k.
template <typename E>
StatusOr<TopKResult<E>> BitonicReduceRuns(const simt::ExecCtx& dev,
                                          simt::DeviceBuffer<E>& runs,
                                          size_t m, size_t k,
                                          const BitonicOptions& opts = {});

/// Convenience wrapper: stages `data` host->device (PCIe-accounted), runs
/// BitonicTopKDevice, reads back the k results.
template <typename E>
StatusOr<TopKResult<E>> BitonicTopK(const simt::ExecCtx& dev, const E* data,
                                    size_t n, size_t k,
                                    const BitonicOptions& opts = {});

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_BITONIC_TOPK_H_
