// Bucket Select implementation. See bucket_select.h for the algorithm
// outline. All range arithmetic happens in the order-preserving unsigned
// key-bit domain: bucket widths are integral, the range shrinks 16x per
// pass, and float/int keys share the machinery.
#include "gputopk/bucket_select.h"

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

constexpr int kBuckets = 16;
constexpr int kBlockDim = 256;
constexpr int kMaxPasses = 64;
constexpr int kMaxGrid = 128;  // bounded grid; blocks cover element ranges

template <typename E>
using KeyBits = typename KeyTraits<typename ElementTraits<E>::Key>::Unsigned;

template <typename E>
KeyBits<E> BitsOf(const E& e) {
  using Key = typename ElementTraits<E>::Key;
  return KeyTraits<Key>::ToOrderedBits(ElementTraits<E>::PrimaryKey(e));
}

// Bucket of value v within [lo, hi]: equi-width over the unsigned domain.
template <typename U>
uint32_t BucketOf(U v, U lo, U width) {
  U idx = (v - lo) / width;
  return static_cast<uint32_t>(
      std::min<U>(idx, static_cast<U>(kBuckets - 1)));
}

// First pass: min/max of the key bits (shared tree reduction per block, one
// global atomic pair per block).
template <typename E>
Status LaunchMinMax(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                    GlobalSpan<uint64_t> minmax) {
  const size_t tile = SelectTile<E>();
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, tile)));
  const size_t per_block = RoundUp(CeilDiv(n, grid), tile);
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "bucket_minmax"},
      [&](Block& blk) {
        auto mn = blk.AllocShared<uint64_t>(kBlockDim);
        auto mx = blk.AllocShared<uint64_t>(kBlockDim);
        size_t base = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t end = std::min(base + per_block, n);
        blk.ForEachThread([&](Thread& t) {
          uint64_t lo = UINT64_MAX, hi = 0;
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            uint64_t v = static_cast<uint64_t>(BitsOf(in.Read(t, i)));
            lo = std::min(lo, v);
            hi = std::max(hi, v);
          }
          mn.Write(t, t.tid, lo);
          mx.Write(t, t.tid, hi);
        });
        blk.Sync();
        for (int stride = kBlockDim / 2; stride > 0; stride >>= 1) {
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
  const size_t tile = SelectTile<E>();
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, tile)));
  const size_t per_block = RoundUp(CeilDiv(n, grid), tile);
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "bucket_gather_max"},
      [&](Block& blk) {
        size_t base = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t end = std::min(base + per_block, n);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            E e = in.Read(t, i);
            if (static_cast<uint64_t>(BitsOf(e)) == max_bits) {
              if (flag.AtomicAdd(t, 0, 1u) == 0) {
                result.Write(t, 0, e);
              }
            }
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// 16-bin histogram over the current range.
template <typename E>
Status LaunchBucketHistogram(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                             KeyBits<E> lo, KeyBits<E> width,
                             GlobalSpan<uint32_t> hist) {
  const size_t tile = SelectTile<E>();
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, tile)));
  const size_t per_block = RoundUp(CeilDiv(n, grid), tile);
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "bucket_histogram"},
      [&](Block& blk) {
        auto counts = blk.AllocShared<uint32_t>(kBuckets);
        blk.ForEachThread([&](Thread& t) {
          if (t.tid < kBuckets) counts.Write(t, t.tid, 0);
        });
        blk.Sync();
        size_t base = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t end = std::min(base + per_block, n);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = base + t.tid; i < end; i += kBlockDim) {
            counts.AtomicAdd(t, BucketOf(BitsOf(in.Read(t, i)), lo, width),
                             1u);
          }
        });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          if (t.tid < kBuckets) {
            uint32_t c = counts.Read(t, t.tid);
            if (c != 0) hist.ReduceAdd(t, t.tid, c);
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Emits elements above the pivot bucket into the result and pivot-bucket
// elements into next_cand via scan-based per-tile compaction.
template <typename E>
Status LaunchBucketCluster(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                           KeyBits<E> lo, KeyBits<E> width, uint32_t pivot,
                           GlobalSpan<E> result, size_t emitted,
                           GlobalSpan<E> next_cand,
                           GlobalSpan<uint32_t> counters) {
  const size_t tile = SelectTile<E>();
  const int grid = static_cast<int>(
      std::min<uint64_t>(kMaxGrid, CeilDiv(n, tile)));
  const size_t per_block = RoundUp(CeilDiv(n, grid), tile);
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = kBlockDim, .name = "bucket_cluster"},
      [&](Block& blk) {
        auto w = TwoWayCompactWorkspace<E>::Alloc(blk, tile);
        size_t range_lo = static_cast<size_t>(blk.block_idx()) * per_block;
        size_t range_hi = std::min(range_lo + per_block, n);
        for (size_t base = range_lo; base < range_hi; base += tile) {
          size_t end = std::min(base + tile, range_hi);
          TwoWayCompactTile<E>(
              blk, w, in, base, end,
              [&](const E& e) {
                uint32_t b = BucketOf(BitsOf(e), lo, width);
                return b > pivot ? 1 : (b == pivot ? 0 : -1);
              },
              result, emitted, next_cand, counters);
        }
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
  MPTOPK_ASSIGN_OR_RETURN(auto hist_buf, dev.Alloc<uint32_t>(kBuckets));
  MPTOPK_ASSIGN_OR_RETURN(auto counters, dev.Alloc<uint32_t>(2));
  GlobalSpan<E> candidates = input;
  GlobalSpan<E> next(cand_a), spare(cand_b);
  GlobalSpan<uint32_t> histspan(hist_buf);
  GlobalSpan<uint32_t> cnts(counters);

  size_t cand_count = n;
  size_t emitted = 0;
  size_t k_rem = k;
  for (int pass = 0; pass < kMaxPasses && k_rem > 0; ++pass) {
    if (lo == hi || cand_count == k_rem) {
      // Degenerate range (all candidates tie) or exact fit: flush.
      MPTOPK_RETURN_NOT_OK(
          LaunchCopyOut(dev, "bucket_copy_out", candidates, k_rem, result,
                        emitted));
      k_rem = 0;
      break;
    }
    U width = static_cast<U>((hi - lo) / kBuckets + 1);
    MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, hist_buf, 0, kBuckets, 0));
    MPTOPK_RETURN_NOT_OK(
        LaunchBucketHistogram(dev, candidates, cand_count, lo, width,
                              histspan));
    uint32_t h[kBuckets];
    MPTOPK_RETURN_NOT_OK(dev.CopyToHost(h, hist_buf, kBuckets));

    size_t cum = 0;
    int pivot = kBuckets - 1;
    for (int b = kBuckets - 1; b >= 0; --b) {
      cum += h[b];
      if (cum >= k_rem) {
        pivot = b;
        break;
      }
    }
    const size_t hi_count = cum - h[pivot];

    MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, counters, 0, 2, 0));
    MPTOPK_RETURN_NOT_OK(LaunchBucketCluster(
        dev, candidates, cand_count, lo, width,
        static_cast<uint32_t>(pivot), result, emitted, next, cnts));
    emitted += hi_count;
    k_rem -= hi_count;
    cand_count = h[pivot];
    candidates = next;
    std::swap(next, spare);

    // Narrow the range to the pivot bucket (overflow-safe at the top of the
    // unsigned domain).
    U new_lo = static_cast<U>(lo + width * static_cast<U>(pivot));
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

#define MPTOPK_INSTANTIATE_BSELECT(E)                                       \
  template StatusOr<TopKResult<E>> BucketSelectTopKDevice<E>(               \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);

MPTOPK_INSTANTIATE_BSELECT(float)
MPTOPK_INSTANTIATE_BSELECT(double)
MPTOPK_INSTANTIATE_BSELECT(uint32_t)
MPTOPK_INSTANTIATE_BSELECT(int32_t)
MPTOPK_INSTANTIATE_BSELECT(uint64_t)
MPTOPK_INSTANTIATE_BSELECT(int64_t)
MPTOPK_INSTANTIATE_BSELECT(KV)
MPTOPK_INSTANTIATE_BSELECT(KV64)
MPTOPK_INSTANTIATE_BSELECT(KKV)
MPTOPK_INSTANTIATE_BSELECT(KKKV)

#undef MPTOPK_INSTANTIATE_BSELECT

}  // namespace mptopk::gpu
