// Larger-than-GPU-memory top-k (paper Section 4.3, "Data larger than GPU
// memory"): the input is streamed through the device in memory-sized
// chunks; each chunk's top-k candidates are retained on-device and reduced
// at the end. The reductive nature of top-k makes the final reduction
// negligible (c * k elements for c chunks), and transfer can overlap with
// compute on real hardware — the device accounts PCIe staging apart from
// kernel time, so a caller can report both the overlapped (max) and the
// serialized (sum) cost.
#ifndef MPTOPK_GPUTOPK_CHUNKED_H_
#define MPTOPK_GPUTOPK_CHUNKED_H_

#include <cstddef>

#include "common/status.h"
#include "topk/registry.h"

namespace mptopk::gpu {

template <typename E>
struct ChunkedTopKResult {
  std::vector<E> items;  ///< top-k, descending
  int chunks = 0;
};

/// Streams data[0, n) through the device in chunks of `chunk_elems`
/// (0 = auto: an eighth of device memory), capped at n and at least 2k,
/// computing the global top-k.
/// Each chunk and the final candidate pool are reduced by the BitonicTopK
/// registry operator (which rounds k up internally).
template <typename E>
StatusOr<ChunkedTopKResult<E>> ChunkedTopK(const simt::ExecCtx& dev,
                                           const E* data, size_t n, size_t k,
                                           size_t chunk_elems = 0);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_CHUNKED_H_
