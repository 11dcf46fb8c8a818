// Radix Select implementation. Host-driven passes over the most-significant
// 8-bit digits of the order-preserving key bits:
//
//   1. histogram kernel (256 bins, shared-memory accumulation + one global
//      atomic flush per bin per block);
//   2. tiny host readback of the histogram, pivot-bucket search from the top;
//   3. cluster kernel: elements in buckets above the pivot stream directly
//      into the result (the paper's "eliminates the last pass" revision),
//      elements in the pivot bucket become the next pass's candidates. Both
//      streams are staged in shared memory per block and written out
//      coalesced after one global-counter reservation per block. If a pass
//      achieves no reduction, the write is skipped and the digit advances
//      (the paper's bucket-killer defense).
#include "gputopk/radix_select.h"

#include <algorithm>

#include "common/bits.h"
#include "common/key_transform.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::Thread;

constexpr int kRadixBits = 8;
constexpr int kRadix = 1 << kRadixBits;
constexpr int kBlockDim = 256;
constexpr int kMaxGrid = 128;  // bounded grid; blocks cover element ranges

template <typename E>
using KeyBits = typename KeyTraits<typename ElementTraits<E>::Key>::Unsigned;

template <typename E>
uint32_t MsdDigitOf(const E& e, int pass) {
  using Key = typename ElementTraits<E>::Key;
  return ExtractDigitMsd(
      KeyTraits<Key>::ToOrderedBits(ElementTraits<E>::PrimaryKey(e)), pass,
      kRadixBits);
}

// Blocks cover contiguous element ranges (bounded grid) so the per-block
// histogram flush amortizes over many tiles.
template <typename E>
Status LaunchMsdHistogram(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                          GlobalSpan<uint32_t> hist, int pass) {
  const size_t tile = SelectTile<E>();
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, tile)));
  const size_t per_block = RoundUp(CeilDiv(n, grid), tile);
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "select_histogram"},
      [&](Block& blk) {
        auto counts = blk.AllocShared<uint32_t>(kRadix);
        blk.ForEachThread([&](Thread& t) {
          for (int b = t.tid; b < kRadix; b += kBlockDim) {
            counts.Write(t, b, 0);
          }
        });
        blk.Sync();
        size_t base = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t end = std::min(base + per_block, n);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            counts.AtomicAdd(t, MsdDigitOf(in.Read(t, i), pass), 1u);
          }
        });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          for (int b = t.tid; b < kRadix; b += kBlockDim) {
            uint32_t c = counts.Read(t, b);
            if (c != 0) hist.ReduceAdd(t, b, c);
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Streams digit > pivot into result[emitted + ...] and digit == pivot into
// next_cand via scan-based per-tile compaction (one global reservation pair
// per tile; no same-word atomic storms). counters[0] counts emitted-this-
// pass, counters[1] counts next candidates.
template <typename E>
Status LaunchCluster(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                     uint32_t pivot, int pass, GlobalSpan<E> result,
                     size_t emitted, GlobalSpan<E> next_cand,
                     GlobalSpan<uint32_t> counters) {
  const size_t tile = SelectTile<E>();
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, tile)));
  const size_t per_block = RoundUp(CeilDiv(n, grid), tile);
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "select_cluster"},
      [&](Block& blk) {
        auto w = TwoWayCompactWorkspace<E>::Alloc(blk, tile);
        size_t range_lo = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t range_hi = std::min(range_lo + per_block, n);
        for (size_t base = range_lo; base < range_hi; base += tile) {
          size_t end = std::min(base + tile, range_hi);
          TwoWayCompactTile<E>(
              blk, w, in, base, end,
              [&](const E& e) {
                uint32_t d = MsdDigitOf(e, pass);
                return d > pivot ? 1 : (d == pivot ? 0 : -1);
              },
              result, emitted, next_cand, counters);
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

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
  GlobalSpan<uint32_t> hist(hist_buf);
  GlobalSpan<uint32_t> cnts(counters);

  const int passes = static_cast<int>(sizeof(KeyBits<E>));
  size_t cand_count = n;
  size_t emitted = 0;
  size_t k_rem = k;

  for (int pass = 0; pass < passes && k_rem > 0; ++pass) {
    MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, hist_buf, 0, kRadix, 0));
    MPTOPK_RETURN_NOT_OK(
        LaunchMsdHistogram(dev, candidates, cand_count, hist, pass));
    uint32_t h[kRadix];
    MPTOPK_RETURN_NOT_OK(dev.CopyToHost(h, hist_buf, kRadix));

    // Pivot: first bucket from the top whose cumulative count reaches k_rem.
    size_t cum = 0;
    int pivot = kRadix - 1;
    for (int b = kRadix - 1; b >= 0; --b) {
      cum += h[b];
      if (cum >= k_rem) {
        pivot = b;
        break;
      }
    }
    const size_t hi_count = cum - h[pivot];
    const size_t eq_count = h[pivot];

    if (hi_count == 0 && eq_count == cand_count) {
      // No reduction: skip the clustering write, just advance the digit
      // (paper Section 4.2). All candidates share this digit value.
      continue;
    }

    MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, counters, 0, 2, 0));
    MPTOPK_RETURN_NOT_OK(LaunchCluster(dev, candidates, cand_count,
                                       static_cast<uint32_t>(pivot), pass,
                                       result, emitted, next, cnts));
    emitted += hi_count;
    k_rem -= hi_count;
    cand_count = eq_count;
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

#define MPTOPK_INSTANTIATE_RSELECT(E)                                       \
  template StatusOr<TopKResult<E>> RadixSelectTopKDevice<E>(                \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);

MPTOPK_INSTANTIATE_RSELECT(float)
MPTOPK_INSTANTIATE_RSELECT(double)
MPTOPK_INSTANTIATE_RSELECT(uint32_t)
MPTOPK_INSTANTIATE_RSELECT(int32_t)
MPTOPK_INSTANTIATE_RSELECT(uint64_t)
MPTOPK_INSTANTIATE_RSELECT(int64_t)
MPTOPK_INSTANTIATE_RSELECT(KV)
MPTOPK_INSTANTIATE_RSELECT(KV64)
MPTOPK_INSTANTIATE_RSELECT(KKV)
MPTOPK_INSTANTIATE_RSELECT(KKKV)

#undef MPTOPK_INSTANTIATE_RSELECT

}  // namespace mptopk::gpu
