#include "gputopk/chunked.h"

#include <algorithm>

#include "common/bits.h"

namespace mptopk::gpu {

template <typename E>
StatusOr<ChunkedTopKResult<E>> ChunkedTopK(const simt::ExecCtx& dev, const E* data,
                                           size_t n, size_t k,
                                           size_t chunk_elems) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  MPTOPK_ASSIGN_OR_RETURN(const topk::TopKOperator* reduce,
                          topk::FindOperator("BitonicTopK"));
  if (chunk_elems == 0) {
    chunk_elems = dev.spec().global_mem_bytes / sizeof(E) / 8;
  }
  // A chunk never exceeds the input, so the staging buffer stays O(n).
  chunk_elems = std::max(std::min(chunk_elems, n), 2 * k);

  ChunkedTopKResult<E> result;
  const size_t chunks = CeilDiv(n, chunk_elems);
  result.chunks = static_cast<int>(chunks);

  // Per-chunk candidates accumulate on-device.
  MPTOPK_ASSIGN_OR_RETURN(auto candidates, dev.Alloc<E>(chunks * k));
  MPTOPK_ASSIGN_OR_RETURN(auto chunk_buf, dev.Alloc<E>(chunk_elems));
  size_t cand_count = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t base = c * chunk_elems;
    const size_t len = std::min(chunk_elems, n - base);
    const size_t k_chunk = std::min(k, len);
    MPTOPK_RETURN_NOT_OK(dev.CopyToDevice(chunk_buf, data + base, len));
    MPTOPK_ASSIGN_OR_RETURN(auto top,
                            reduce->TopKDevice(dev, chunk_buf, len, k_chunk));
    // Stage the chunk's winners back into the candidate pool (tiny).
    std::copy(top.items.begin(), top.items.end(),
              candidates.host_data() + cand_count);
    cand_count += top.items.size();
  }
  // Final reduction over c*k candidates.
  MPTOPK_ASSIGN_OR_RETURN(auto top,
                          reduce->TopKDevice(dev, candidates, cand_count,
                                             std::min(k, cand_count)));
  result.items = std::move(top.items);
  return result;
}

#define MPTOPK_INSTANTIATE_CHUNKED(E)                                       \
  template StatusOr<ChunkedTopKResult<E>> ChunkedTopK<E>(                   \
      const simt::ExecCtx&, const E*, size_t, size_t, size_t);

MPTOPK_INSTANTIATE_CHUNKED(float)
MPTOPK_INSTANTIATE_CHUNKED(double)
MPTOPK_INSTANTIATE_CHUNKED(uint32_t)
MPTOPK_INSTANTIATE_CHUNKED(int32_t)
MPTOPK_INSTANTIATE_CHUNKED(KV)

#undef MPTOPK_INSTANTIATE_CHUNKED

}  // namespace mptopk::gpu
