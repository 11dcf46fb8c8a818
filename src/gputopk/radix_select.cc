// Radix Select implementation. Host-driven passes over the most-significant
// 8-bit digits of the order-preserving key bits, each on the select core
// (gputopk/kernel_util.h) with the digit as the bin function:
//
//   1. histogram kernel (256 bins, shared-memory accumulation + one global
//      atomic flush per bin per block);
//   2. tiny host readback of the histogram, pivot-bucket search from the top;
//   3. cluster kernel: elements in buckets above the pivot stream directly
//      into the result (the paper's "eliminates the last pass" revision),
//      elements in the pivot bucket become the next pass's candidates. Both
//      streams are staged in shared memory per block and written out
//      coalesced after one global-counter reservation per tile. If a pass
//      achieves no reduction, the write is skipped and the digit advances
//      (the paper's bucket-killer defense).
#include "gputopk/radix_select.h"

#include <utility>

#include "common/bits.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::DeviceBuffer;
using simt::GlobalSpan;

constexpr int kRadixBits = 8;
constexpr int kRadix = 1 << kRadixBits;

}  // namespace

template <typename E>
StatusOr<TopKResult<E>> RadixSelectTopKDevice(const simt::ExecCtx& dev,
                                              DeviceBuffer<E>& data, size_t n,
                                              size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  MPTOPK_ASSIGN_OR_RETURN(auto result_buf, dev.Alloc<E>(k));
  MPTOPK_ASSIGN_OR_RETURN(auto cand_a, dev.Alloc<E>(n));
  MPTOPK_ASSIGN_OR_RETURN(auto cand_b, dev.Alloc<E>(n));
  MPTOPK_ASSIGN_OR_RETURN(auto hist_buf, dev.Alloc<uint32_t>(kRadix));
  MPTOPK_ASSIGN_OR_RETURN(auto counters, dev.Alloc<uint32_t>(2));

  GlobalSpan<E> result(result_buf);
  GlobalSpan<E> candidates(data);  // pass 0 reads the input directly
  GlobalSpan<E> next = GlobalSpan<E>(cand_a);
  GlobalSpan<E> spare = GlobalSpan<E>(cand_b);

  const int passes = static_cast<int>(sizeof(KeyBits<E>));
  size_t cand_count = n;
  size_t emitted = 0;
  size_t k_rem = k;

  for (int pass = 0; pass < passes && k_rem > 0; ++pass) {
    const auto digit = [pass](const E& e) {
      return ExtractDigitMsd(OrderedKeyBits(e), pass, kRadixBits);
    };
    MPTOPK_ASSIGN_OR_RETURN(
        SelectPivot p,
        SelectHistogram(dev, "select_histogram", candidates, cand_count,
                        kRadix, digit, hist_buf, k_rem));
    if (p.hi_count == 0 && p.eq_count == cand_count) {
      // No reduction: skip the clustering write, just advance the digit
      // (paper Section 4.2). All candidates share this digit value.
      continue;
    }

    MPTOPK_RETURN_NOT_OK(SelectCluster(dev, "select_cluster", candidates,
                                       cand_count, digit, p.bin, result,
                                       emitted, next, counters));
    emitted += p.hi_count;
    k_rem -= p.hi_count;
    cand_count = p.eq_count;
    candidates = next;
    std::swap(next, spare);

    if (cand_count == k_rem) {
      MPTOPK_RETURN_NOT_OK(
          LaunchCopyOut(dev, "select_copy_out", candidates, cand_count,
                        result, emitted));
      emitted += cand_count;
      k_rem = 0;
    }
  }
  if (k_rem > 0) {
    // All remaining candidates tie on the full key; pad with any k_rem.
    MPTOPK_RETURN_NOT_OK(LaunchCopyOut(dev, "select_copy_out", candidates,
                                       k_rem, result, emitted));
  }

  TopKResult<E> result_out;
  result_out.items.resize(k);
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(result_out.items.data(), result_buf, k));
  // Selection produces an unordered top-k set; canonicalize to descending on
  // the host (k is tiny). The paper's variant likewise leaves ordering to
  // the consumer.
  SortDescending(&result_out.items);
  return result_out;
}

#define MPTOPK_INSTANTIATE_RSELECT(E, ...)                                  \
  template StatusOr<TopKResult<E>> RadixSelectTopKDevice<E>(                \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_INSTANTIATE_RSELECT)
#undef MPTOPK_INSTANTIATE_RSELECT

}  // namespace mptopk::gpu
