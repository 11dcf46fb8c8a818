// Radix Select top-k (paper Sections 2.3, 4.2): MSD-radix k-selection with
// 8-bit digits, revised as in the paper to
//   * emit elements from buckets above the pivot bucket directly into the
//     result during the clustering pass (no extra final pass),
//   * skip the clustering write when a pass achieves no reduction (the
//     bucket-killer defense that keeps worst case at sort cost),
//   * write out only the matched bucket rather than all buckets.
//
// Runtime is essentially independent of k but depends on the distribution:
// uniform integer keys shed a factor 256 per pass; adversarial inputs
// (bucket killer) degrade to full-scan cost per pass.
#ifndef MPTOPK_GPUTOPK_RADIX_SELECT_H_
#define MPTOPK_GPUTOPK_RADIX_SELECT_H_

#include <cstddef>

#include "common/status.h"
#include "common/tuple_types.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

/// Computes the top-k of device-resident data[0, n) via MSD radix selection.
/// Any 1 <= k <= n is supported (k need not be a power of two). Ties at the
/// k-th value are broken arbitrarily. Input is not modified.
template <typename E>
StatusOr<TopKResult<E>> RadixSelectTopKDevice(const simt::ExecCtx& dev,
                                              simt::DeviceBuffer<E>& data,
                                              size_t n, size_t k);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_RADIX_SELECT_H_
