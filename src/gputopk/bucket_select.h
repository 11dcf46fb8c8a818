// Bucket Select top-k (paper Sections 2.3, 4.2): a min/max pass followed by
// repeated 16-way equi-width bucketing passes over the candidate range.
// Bucketing happens in the order-preserving unsigned key domain, so the
// range provably shrinks by 16x per pass regardless of the float/int value
// distribution of the *range*; the *candidate count* reduction remains data
// dependent (value-clustered inputs degrade it, paper Section 6.4).
//
// Matches the paper's observations: heavy use of atomics makes it slower
// than radix select, except at k == 1 where it returns straight after the
// min/max pass.
#ifndef MPTOPK_GPUTOPK_BUCKET_SELECT_H_
#define MPTOPK_GPUTOPK_BUCKET_SELECT_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "common/tuple_types.h"
#include "gputopk/kernel_util.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

/// Buckets per pass.
constexpr int kBucketSelectBuckets = 16;

/// Width of the buckets a pass splits the key-bit range [lo, hi] into.
template <typename U>
constexpr U BucketWidth(U lo, U hi) {
  return static_cast<U>((hi - lo) / kBucketSelectBuckets + 1);
}

/// Passes until a key-bit range of width `span` collapses to one value,
/// each keeping one bucket: 2b for the full range of b-byte keys, the bound
/// of BucketSelectTopKDevice's loop (plus one iteration that flushes).
constexpr int BucketRangePasses(uint64_t span) {
  int passes = 0;
  for (; span > 0; ++passes) span = BucketWidth<uint64_t>(0, span) - 1;
  return passes;
}

/// Launches of BucketSelectTopKDevice with `passes` histogram passes:
/// min/max, then the gather (k = 1) or SelectLaunches.
constexpr int BucketSelectLaunches(size_t k, int passes) {
  return 1 + (k == 1 ? 1 : SelectLaunches(passes, passes));
}

/// Computes the top-k of device-resident data[0, n) via bucket selection.
/// Any 1 <= k <= n. Ties at the k-th value broken arbitrarily. Input is not
/// modified.
template <typename E>
StatusOr<TopKResult<E>> BucketSelectTopKDevice(const simt::ExecCtx& dev,
                                               simt::DeviceBuffer<E>& data,
                                               size_t n, size_t k);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_BUCKET_SELECT_H_
