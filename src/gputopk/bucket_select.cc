// Bucket Select implementation. See bucket_select.h for the algorithm
// outline. All range arithmetic happens in the order-preserving unsigned
// key-bit domain: bucket widths are integral, the range shrinks 16x per
// pass, and float/int keys share the machinery.
#include "gputopk/bucket_select.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/bits.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::Thread;

// Bucket of value v within [lo, hi]: equi-width over the unsigned domain.
template <typename U>
uint32_t BucketOf(U v, U lo, U width) {
  U idx = (v - lo) / width;
  return static_cast<uint32_t>(
      std::min<U>(idx, static_cast<U>(kBucketSelectBuckets - 1)));
}

// First pass: min/max of the key bits (shared tree reduction per block, one
// global atomic pair per block).
template <typename E>
Status LaunchMinMax(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                    GlobalSpan<uint64_t> minmax) {
  const TilePartition part = SelectPartition(n, sizeof(E));
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kSelectBlockDim,
       .name = "bucket_minmax"},
      [&](Block& blk) {
        auto mn = blk.AllocShared<uint64_t>(kSelectBlockDim);
        auto mx = blk.AllocShared<uint64_t>(kSelectBlockDim);
        const size_t base = part.lo(blk.block_idx());
        const size_t end = part.hi(blk.block_idx());
        blk.ForEachThread([&](Thread& t) {
          uint64_t lo = UINT64_MAX, hi = 0;
          for (size_t i = base + t.tid; i < end; i += kSelectBlockDim) {
            uint64_t v = static_cast<uint64_t>(OrderedKeyBits(in.Read(t, i)));
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          mn.Write(t, t.tid, lo);
          mx.Write(t, t.tid, hi);
        });
        blk.Sync();
        for (int stride = kSelectBlockDim / 2; stride > 0; stride >>= 1) {
          blk.ForEachThread([&](Thread& t) {
            if (t.tid < stride) {
              mn.Write(t, t.tid,
                       std::min(mn.Read(t, t.tid), mn.Read(t, t.tid + stride)));
              mx.Write(t, t.tid,
                       std::max(mx.Read(t, t.tid), mx.Read(t, t.tid + stride)));
            }
          });
          blk.Sync();
        }
        blk.ForEachThread([&](Thread& t) {
          if (t.tid == 0) {
            minmax.ReduceMin(t, 0, mn.Read(t, 0));
            minmax.ReduceMax(t, 1, mx.Read(t, 0));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// k == 1 fast path: one more scan to fetch (any) element matching the max.
template <typename E>
Status LaunchGatherMax(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                       uint64_t max_bits, GlobalSpan<E> result,
                       GlobalSpan<uint32_t> flag) {
  const TilePartition part = SelectPartition(n, sizeof(E));
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kSelectBlockDim,
       .name = "bucket_gather_max"},
      [&](Block& blk) {
        const size_t base = part.lo(blk.block_idx());
        const size_t end = part.hi(blk.block_idx());
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = base + t.tid; i < end; i += kSelectBlockDim) {
            E e = in.Read(t, i);
            if (static_cast<uint64_t>(OrderedKeyBits(e)) == max_bits) {
              if (flag.AtomicAdd(t, 0, 1u) == 0) {
                result.Write(t, 0, e);
              }
            }
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

}  // namespace

template <typename E>
StatusOr<TopKResult<E>> BucketSelectTopKDevice(const simt::ExecCtx& dev,
                                               DeviceBuffer<E>& data,
                                               size_t n, size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  using U = KeyBits<E>;
  MPTOPK_ASSIGN_OR_RETURN(auto result_buf, dev.Alloc<E>(k));
  MPTOPK_ASSIGN_OR_RETURN(auto minmax_buf, dev.Alloc<uint64_t>(2));
  minmax_buf.host_data()[0] = UINT64_MAX;
  minmax_buf.host_data()[1] = 0;

  GlobalSpan<E> input(data);
  GlobalSpan<E> result(result_buf);
  GlobalSpan<uint64_t> minmax(minmax_buf);
  MPTOPK_RETURN_NOT_OK(LaunchMinMax(dev, input, n, minmax));
  uint64_t mm[2];
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(mm, minmax_buf, 2));
  U lo = static_cast<U>(mm[0]);
  U hi = static_cast<U>(mm[1]);

  auto finish = [&]() -> StatusOr<TopKResult<E>> {
    TopKResult<E> out;
    out.items.resize(k);
    MPTOPK_RETURN_NOT_OK(dev.CopyToHost(out.items.data(), result_buf, k));
    SortDescending(&out.items);
    return out;
  };

  if (k == 1) {
    // Paper: at k=1 bucket select terminates right after min/max.
    MPTOPK_ASSIGN_OR_RETURN(auto flag, dev.Alloc<uint32_t>(1));
    flag.host_data()[0] = 0;
    GlobalSpan<uint32_t> f(flag);
    MPTOPK_RETURN_NOT_OK(LaunchGatherMax(dev, input, n, mm[1], result, f));
    return finish();
  }

  MPTOPK_ASSIGN_OR_RETURN(auto cand_a, dev.Alloc<E>(n));
  MPTOPK_ASSIGN_OR_RETURN(auto cand_b, dev.Alloc<E>(n));
  MPTOPK_ASSIGN_OR_RETURN(auto hist_buf,
                          dev.Alloc<uint32_t>(kBucketSelectBuckets));
  MPTOPK_ASSIGN_OR_RETURN(auto counters, dev.Alloc<uint32_t>(2));
  GlobalSpan<E> candidates = input;
  GlobalSpan<E> next(cand_a), spare(cand_b);

  size_t cand_count = n;
  size_t emitted = 0;
  size_t k_rem = k;
  const int max_passes = BucketRangePasses(std::numeric_limits<U>::max());
  for (int pass = 0; pass <= max_passes && k_rem > 0; ++pass) {
    if (lo == hi || cand_count == k_rem) {
      // Degenerate range (all candidates tie) or exact fit: flush.
      MPTOPK_RETURN_NOT_OK(
          LaunchCopyOut(dev, "bucket_copy_out", candidates, k_rem, result,
                        emitted));
      k_rem = 0;
      break;
    }
    const U width = BucketWidth(lo, hi);
    const auto bucket = [lo, width](const E& e) {
      return BucketOf(OrderedKeyBits(e), lo, width);
    };
    MPTOPK_ASSIGN_OR_RETURN(
        SelectPivot p,
        SelectHistogram(dev, "bucket_histogram", candidates, cand_count,
                        kBucketSelectBuckets, bucket, hist_buf, k_rem));
    MPTOPK_RETURN_NOT_OK(SelectCluster(dev, "bucket_cluster", candidates,
                                       cand_count, bucket, p.bin, result,
                                       emitted, next, counters));
    emitted += p.hi_count;
    k_rem -= p.hi_count;
    cand_count = p.eq_count;
    candidates = next;
    std::swap(next, spare);

    // Narrow the range to the pivot bucket (overflow-safe at the top of the
    // unsigned domain).
    U new_lo = static_cast<U>(lo + width * static_cast<U>(p.bin));
    U new_hi = static_cast<U>(new_lo + (width - 1));
    if (new_hi < new_lo || new_hi > hi) new_hi = hi;
    lo = new_lo;
    hi = new_hi;
  }
  if (k_rem > 0) {
    return Status::Internal("bucket select failed to converge");
  }
  return finish();
}

#define MPTOPK_INSTANTIATE_BSELECT(E, ...)                                  \
  template StatusOr<TopKResult<E>> BucketSelectTopKDevice<E>(               \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_INSTANTIATE_BSELECT)
#undef MPTOPK_INSTANTIATE_BSELECT

}  // namespace mptopk::gpu
