// Per-Thread Top-K (paper Sections 3.1, 4.1, Appendix A): every thread
// maintains its own k-element min-heap over a strided (coalesced) slice of
// the input; per-thread results are reduced recursively, ending in a
// single-block merge.
//
// Two variants:
//  * shared-memory heaps (default): heap slot j of thread t lives at
//    smem[j*nt + t] (interleaved, bank-conflict-free for uniform access).
//    Shared usage k * sizeof(E) * nt limits the block size and, through
//    occupancy, memory bandwidth — the paper's k >= 32 slowdown and the
//    hard failure at k=512 (floats) / k=256 (doubles) both fall out of the
//    resource model.
//  * register buffers (Appendix A): an unordered buffer scanned linearly on
//    every insert; entries beyond the register budget spill to local
//    memory, billed at global bandwidth.
//
// Performance is data dependent: sorted-ascending input forces a heap
// update per element (worst case, paper Figure 12a / 18).
#ifndef MPTOPK_GPUTOPK_PERTHREAD_TOPK_H_
#define MPTOPK_GPUTOPK_PERTHREAD_TOPK_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "common/tuple_types.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

struct PerThreadOptions {
  /// Use the Appendix A register-buffer variant instead of shared-memory
  /// heaps.
  bool use_registers = false;
};

/// The launch plan of PerThreadTopKDevice, which cost::PerThreadCostMs
/// prices as well.
struct PerThreadPlan {
  int nt = 256;  ///< threads per block of the reduction passes
  int ft = 32;   ///< threads of the final single-block pass
  size_t final_threshold = 0;  ///< larger inputs get reduction passes
  /// Grid of each reduction pass; pass i leaves grids[i] * nt heaps of k.
  std::vector<int> grids;
  /// Kernel launches: one per reduction pass, then the final pass.
  int launches() const { return static_cast<int>(grids.size()) + 1; }
};

/// Plans PerThreadTopKDevice over n elements of `elem_bytes` bytes. Fails
/// with ResourceExhausted when the heaps do not fit shared memory.
StatusOr<PerThreadPlan> PlanPerThreadPasses(const simt::DeviceSpec& spec,
                                            size_t elem_bytes, size_t n,
                                            size_t k, bool use_registers);

/// Computes the top-k of device-resident data[0, n). Any 1 <= k <= n.
/// Fails with ResourceExhausted when k * sizeof(E) * 32 exceeds shared
/// memory per block (paper Section 4.1).
template <typename E>
StatusOr<TopKResult<E>> PerThreadTopKDevice(const simt::ExecCtx& dev,
                                            simt::DeviceBuffer<E>& data,
                                            size_t n, size_t k,
                                            const PerThreadOptions& opts = {});

/// Host-staging convenience wrapper.
template <typename E>
StatusOr<TopKResult<E>> PerThreadTopK(const simt::ExecCtx& dev, const E* data,
                                      size_t n, size_t k,
                                      const PerThreadOptions& opts = {});

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_PERTHREAD_TOPK_H_
