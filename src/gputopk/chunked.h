// Larger-than-GPU-memory top-k (paper Section 4.3, "Data larger than GPU
// memory"): the input is streamed through the device in memory-sized
// chunks; each chunk's top-k candidates are retained on-device and reduced
// at the end. The reductive nature of top-k makes the final reduction
// negligible (c * k elements for c chunks), and transfer can overlap with
// compute on real hardware — here PCIe staging is accounted separately so
// both the overlapped and serialized costs can be reported.
#ifndef MPTOPK_GPUTOPK_CHUNKED_H_
#define MPTOPK_GPUTOPK_CHUNKED_H_

#include <cstddef>

#include "common/status.h"
#include "topk/registry.h"

namespace mptopk::gpu {

template <typename E>
struct ChunkedTopKResult {
  std::vector<E> items;  ///< top-k, descending
  double kernel_ms = 0.0;
  double pcie_ms = 0.0;
  /// Time if transfer overlaps compute (max) vs fully serialized (sum).
  double overlapped_ms = 0.0;
  double serialized_ms = 0.0;
  int chunks = 0;
};

/// Streams data[0, n) through the device in chunks of `chunk_elems`
/// (0 = auto: an eighth of device memory), computing the global top-k.
/// Each chunk and the final candidate pool are reduced by the BitonicTopK
/// registry operator (which rounds k up internally).
template <typename E>
StatusOr<ChunkedTopKResult<E>> ChunkedTopK(const simt::ExecCtx& dev,
                                           const E* data, size_t n, size_t k,
                                           size_t chunk_elems = 0);

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_CHUNKED_H_
