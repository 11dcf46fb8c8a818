// The launch scaffold the top-k and engine kernels share: the bounded-grid
// tile partition, the grid-stride launcher and the kernels built on it
// (buffer fill, copy-out), the block-level exclusive prefix sum, and the
// select core that RadixSelect and BucketSelect run their passes on
// (histogram, pivot scan, two-way tile compaction).
#ifndef MPTOPK_GPUTOPK_KERNEL_UTIL_H_
#define MPTOPK_GPUTOPK_KERNEL_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "gputopk/topk_result.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

/// The bounded-grid tile partition: at most `max_grid` blocks, each owning
/// one contiguous range of whole tiles, so per-block setup and flushes
/// amortize over many tiles. The grid is never zero: n = 0 gets one block
/// with an empty range.
struct TilePartition {
  TilePartition(size_t n, size_t tile, int max_grid)
      : n(n),
        grid(static_cast<int>(std::clamp<uint64_t>(CeilDiv(n, tile), 1,
                                                    max_grid))),
        per_block(RoundUp(CeilDiv(n, grid), tile)) {}

  /// Block b owns [lo(b), hi(b)), empty past the end of the input.
  size_t lo(int b) const {
    return std::min(n, static_cast<size_t>(b) * per_block);
  }
  size_t hi(int b) const { return std::min(n, lo(b) + per_block); }

  size_t n;
  int grid;
  size_t per_block;
};

/// Launches kernel `name` as a grid-stride loop over [0, count): at most
/// `max_grid` blocks of `block` threads; thread t of block b calls
/// body(t, i) for i = b * block + t and every grid * block after it. An
/// empty range launches nothing.
template <typename Body>
Status LaunchGridStride(const simt::ExecCtx& dev, const char* name,
                        size_t count, int block, int max_grid,
                        const Body& body) {
  if (count == 0) return Status::OK();
  const int grid =
      static_cast<int>(std::min<uint64_t>(max_grid, CeilDiv(count, block)));
  const size_t stride = static_cast<size_t>(grid) * block;
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = block, .name = name},
      [&](simt::Block& blk) {
        blk.ForEachThread([&](simt::Thread& t) {
          for (size_t i = static_cast<size_t>(blk.block_idx()) * block + t.tid;
               i < count; i += stride) {
            body(t, i);
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

/// Reads the k results in out_k back to the host.
template <typename E>
StatusOr<TopKResult<E>> ReadTopK(const simt::ExecCtx& dev,
                                 simt::DeviceBuffer<E>& out_k, size_t k) {
  TopKResult<E> result{std::vector<E>(k)};
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(result.items.data(), out_k, k));
  return result;
}

/// Fills buf[offset, offset+count) with `value` (counted traffic, like
/// cudaMemset).
template <typename T>
Status FillDevice(const simt::ExecCtx& dev, simt::DeviceBuffer<T>& buf,
                  size_t offset, size_t count, T value) {
  simt::GlobalSpan<T> g(buf);
  return LaunchGridStride(dev, "fill", count, 256, 1024,
                          [&](simt::Thread& t, size_t i) {
                            g.Write(t, offset + i, value);
                          });
}

/// Call-site tags of the data-oblivious shared-memory regions
/// (simt::Block::ForEachThreadOblivious): the first word of each site's
/// RegionShape, so two sites never share a memo entry.
enum ObliviousSite : uint64_t {
  kScanStepSite = 1,
  kScanBounceSite,
  kScanShiftSite,
  kBitonicWindowSite,
  kMergeReadSite,
  kMergeWriteSite,
};

/// Block-scope exclusive prefix sum over `count` uint32 values living in
/// shared memory (Hillis-Steele over a power-of-two padded range). Must be
/// called from kernel (block) scope. On return, data[i] holds the exclusive
/// prefix sum of the original values and the block-wide total is stored in
/// *total_out (host-visible; the caller's kernel logic may use it in
/// subsequent regions).
///
/// Traffic note: this is the textbook O(n log n)-access scan GPU kernels use
/// inside a block; its shared traffic is counted like any other access.
/// Its addresses depend only on the spans, `count` and the block size, so
/// every region is data-oblivious.
inline void BlockExclusiveScan(simt::Block& blk,
                               simt::SharedSpan<uint32_t> data, size_t count,
                               simt::SharedSpan<uint32_t> scratch,
                               uint32_t* total_out) {
  // scratch must have >= count entries.
  const size_t n = count;
  const int nt = blk.block_dim();
  // Hillis-Steele inclusive scan, ping-ponging between data and scratch.
  simt::SharedSpan<uint32_t> src = data;
  simt::SharedSpan<uint32_t> dst = scratch;
  for (size_t offset = 1; offset < n; offset <<= 1) {
    const simt::RegionShape shape(kScanStepSite, src.base_offset(),
                                  dst.base_offset(), n, offset);
    blk.ForEachThreadOblivious(shape, nt, [&](simt::Thread& t) {
      for (size_t i = t.tid; i < n; i += nt) {
        uint32_t v = src.Read(t, i);
        if (i >= offset) v += src.Read(t, i - offset);
        dst.Write(t, i, v);
      }
    });
    blk.Sync();
    std::swap(src, dst);
  }
  // The exclusive shift below writes into `data` while reading src[i-1];
  // if the ping-pong left the inclusive scan in `data` itself, lane order
  // would overwrite values before they are read. Bounce to scratch first.
  bool src_is_data = true;
  for (size_t offset = 1; offset < n; offset <<= 1) src_is_data = !src_is_data;
  if (src_is_data && n > 1) {
    const simt::RegionShape shape(kScanBounceSite, data.base_offset(),
                                  scratch.base_offset(), n);
    blk.ForEachThreadOblivious(shape, nt, [&](simt::Thread& t) {
      for (size_t i = t.tid; i < n; i += nt) {
        scratch.Write(t, i, data.Read(t, i));
      }
    });
    blk.Sync();
    src = scratch;
  }
  // src now holds the inclusive scan; shift right by one into `data` to make
  // it exclusive, capturing the block-wide total from the last element.
  uint32_t total = 0;
  const simt::RegionShape shape(kScanShiftSite, src.base_offset(),
                                data.base_offset(), n);
  blk.ForEachThreadOblivious(shape, nt, [&](simt::Thread& t) {
    for (size_t i = t.tid; i < n; i += nt) {
      if (i == n - 1) total = src.Read(t, i);
      uint32_t prev = i == 0 ? 0u : src.Read(t, i - 1);
      data.Write(t, i, prev);
    }
  });
  blk.Sync();
  if (total_out != nullptr) *total_out = total;
}

/// Copies src[0, count) into result[emitted, emitted + count) with kernel
/// `name`: the selection algorithms' final step.
template <typename E>
Status LaunchCopyOut(const simt::ExecCtx& dev, const char* name,
                     simt::GlobalSpan<E> src, size_t count,
                     simt::GlobalSpan<E> result, size_t emitted) {
  return LaunchGridStride(dev, name, count, 256, 256,
                          [&](simt::Thread& t, size_t i) {
                            result.Write(t, emitted + i, src.Read(t, i));
                          });
}

/// Tile size of the selection algorithms' scan-based compaction for
/// elements of `elem_bytes` bytes, sized so the TwoWayCompactWorkspace
/// (3 staged tiles + per-thread counters) fits 48 KiB shared memory.
constexpr size_t SelectTile(size_t elem_bytes) {
  return elem_bytes <= 4 ? 2048 : (elem_bytes <= 12 ? 1024 : 512);
}

/// Workspace for TwoWayCompactTile: shared buffers allocated once per block
/// and reused across the block's tiles (AllocShared must not be called in a
/// loop).
template <typename E>
struct TwoWayCompactWorkspace {
  simt::SharedSpan<E> tile;
  simt::SharedSpan<E> hi_stage;
  simt::SharedSpan<E> eq_stage;
  simt::SharedSpan<uint32_t> th_hi;    // per-thread hi counts -> offsets
  simt::SharedSpan<uint32_t> th_eq;    // per-thread eq counts -> offsets
  simt::SharedSpan<uint32_t> scratch;  // scan scratch
  simt::SharedSpan<uint32_t> meta;     // totals + reserved global bases

  static TwoWayCompactWorkspace Alloc(simt::Block& blk, size_t tile_cap) {
    TwoWayCompactWorkspace w;
    w.tile = blk.AllocShared<E>(tile_cap);
    w.hi_stage = blk.AllocShared<E>(tile_cap);
    w.eq_stage = blk.AllocShared<E>(tile_cap);
    w.th_hi = blk.AllocShared<uint32_t>(blk.block_dim());
    w.th_eq = blk.AllocShared<uint32_t>(blk.block_dim());
    w.scratch = blk.AllocShared<uint32_t>(blk.block_dim());
    w.meta = blk.AllocShared<uint32_t>(4);
    return w;
  }
};

/// Scan-based two-way compaction of one tile (no same-word atomic storms):
/// classify(e) returns +1 for the "hi" stream, 0 for the "eq" stream, -1 to
/// drop. Hi elements are appended (via one global counter reservation per
/// tile) to out_hi[out_hi_offset + counters[0]...], eq elements to
/// out_eq[counters[1]...]. Must be called from block scope with a workspace
/// allocated once per block.
template <typename E, typename ClassifyFn>
void TwoWayCompactTile(simt::Block& blk, TwoWayCompactWorkspace<E>& w,
                       simt::GlobalSpan<E> in, size_t base, size_t end,
                       ClassifyFn classify, simt::GlobalSpan<E> out_hi,
                       size_t out_hi_offset, simt::GlobalSpan<E> out_eq,
                       simt::GlobalSpan<uint32_t> counters) {
  const int nt = blk.block_dim();
  const size_t count = end - base;

  // Stage the tile and count each thread's strided share (strided walks are
  // bank-conflict-free; selection does not need stable order).
  blk.ForEachThread([&](simt::Thread& t) {
    for (size_t i = t.tid; i < count; i += nt) {
      w.tile.Write(t, i, in.Read(t, base + i));
    }
  });
  blk.Sync();
  blk.ForEachThread([&](simt::Thread& t) {
    uint32_t n_hi = 0, n_eq = 0;
    for (size_t i = t.tid; i < count; i += nt) {
      int c = classify(w.tile.Read(t, i));
      n_hi += c > 0;
      n_eq += c == 0;
    }
    w.th_hi.Write(t, t.tid, n_hi);
    w.th_eq.Write(t, t.tid, n_eq);
  });
  blk.Sync();

  uint32_t hi_total = 0, eq_total = 0;
  BlockExclusiveScan(blk, w.th_hi, nt, w.scratch, &hi_total);
  BlockExclusiveScan(blk, w.th_eq, nt, w.scratch, &eq_total);

  // One global range reservation per stream per tile.
  blk.ForEachThread([&](simt::Thread& t) {
    if (t.tid == 0) {
      w.meta.Write(t, 0, hi_total);
      w.meta.Write(t, 1, eq_total);
      w.meta.Write(t, 2, counters.AtomicAdd(t, 0, hi_total));
      w.meta.Write(t, 3, counters.AtomicAdd(t, 1, eq_total));
    }
  });
  blk.Sync();

  // Place each thread's matches at its scanned offsets, then copy out
  // coalesced.
  blk.ForEachThread([&](simt::Thread& t) {
    uint32_t hi_pos = w.th_hi.Read(t, t.tid);
    uint32_t eq_pos = w.th_eq.Read(t, t.tid);
    for (size_t i = t.tid; i < count; i += nt) {
      E e = w.tile.Read(t, i);
      int c = classify(e);
      if (c > 0) {
        w.hi_stage.Write(t, hi_pos++, e);
      } else if (c == 0) {
        w.eq_stage.Write(t, eq_pos++, e);
      }
    }
  });
  blk.Sync();
  blk.ForEachThread([&](simt::Thread& t) {
    uint32_t hi_n = w.meta.Read(t, 0);
    uint32_t hi_base = w.meta.Read(t, 2);
    for (uint32_t i = t.tid; i < hi_n; i += nt) {
      out_hi.Write(t, out_hi_offset + hi_base + i, w.hi_stage.Read(t, i));
    }
    uint32_t eq_n = w.meta.Read(t, 1);
    uint32_t eq_base = w.meta.Read(t, 3);
    for (uint32_t i = t.tid; i < eq_n; i += nt) {
      out_eq.Write(t, eq_base + i, w.eq_stage.Read(t, i));
    }
  });
  blk.Sync();
}

// --- Select core -------------------------------------------------------------
//
// RadixSelect and BucketSelect share one pass skeleton and differ only in
// the bin function: the next 8-bit digit of the ordered key bits (256
// bins) or the key's equal-width bucket within [min, max] (16 bins). Each
// pass histograms the candidates' bins, finds the pivot bin from the top,
// then clusters: elements in bins above the pivot go straight to the
// result, pivot-bin elements become the next pass's candidates. The host
// loops around these stay with each algorithm.

constexpr int kSelectBlockDim = 256;
constexpr int kSelectMaxGrid = 128;

/// The select kernels' partition of n elements of `elem_bytes` bytes:
/// blocks of kSelectBlockDim threads cover contiguous ranges of
/// SelectTile(elem_bytes) tiles, so the per-block histogram flush
/// amortizes. The Section 7 select models size their passes with it too.
inline TilePartition SelectPartition(size_t n, size_t elem_bytes) {
  return TilePartition(n, SelectTile(elem_bytes), kSelectMaxGrid);
}

/// Kernel launches of a select run with `histograms` histogram passes,
/// `clusters` of which cluster: SelectHistogram and SelectCluster each
/// launch a fill and their kernel, and one copy-out ends the run.
constexpr int SelectLaunches(int histograms, int clusters) {
  return 2 * histograms + 2 * clusters + 1;
}

/// Where a select pass splits its candidates: `bin` is the first bin from
/// the top whose cumulative count reaches k_rem.
struct SelectPivot {
  uint32_t bin = 0;
  size_t hi_count = 0;  ///< candidates in bins above the pivot
  size_t eq_count = 0;  ///< candidates in the pivot bin
};

/// One select pass's histogram: zeroes hist_buf[0, bins), counts bin(e)
/// over in[0, n) with kernel `name` (shared per-block counters, one global
/// ReduceAdd per nonzero bin per block), reads the counts back and scans
/// them for the pivot.
template <typename E, typename BinFn>
StatusOr<SelectPivot> SelectHistogram(const simt::ExecCtx& dev,
                                      const char* name, simt::GlobalSpan<E> in,
                                      size_t n, int bins, const BinFn& bin,
                                      simt::DeviceBuffer<uint32_t>& hist_buf,
                                      size_t k_rem) {
  MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, hist_buf, 0, bins, 0));
  simt::GlobalSpan<uint32_t> hist(hist_buf);
  const TilePartition part = SelectPartition(n, sizeof(E));
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kSelectBlockDim, .name = name},
      [&](simt::Block& blk) {
        auto counts = blk.AllocShared<uint32_t>(bins);
        blk.ForEachThread([&](simt::Thread& t) {
          for (int b = t.tid; b < bins; b += kSelectBlockDim) {
            counts.Write(t, b, 0);
          }
        });
        blk.Sync();
        const size_t lo = part.lo(blk.block_idx());
        const size_t hi = part.hi(blk.block_idx());
        blk.ForEachThread([&](simt::Thread& t) {
          for (size_t i = lo + t.tid; i < hi; i += kSelectBlockDim) {
            counts.AtomicAdd(t, bin(in.Read(t, i)), 1u);
          }
        });
        blk.Sync();
        blk.ForEachThread([&](simt::Thread& t) {
          for (int b = t.tid; b < bins; b += kSelectBlockDim) {
            uint32_t c = counts.Read(t, b);
            if (c != 0) hist.ReduceAdd(t, b, c);
          }
        });
      });
  if (!st.ok()) return st.status();

  std::vector<uint32_t> h(bins);
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(h.data(), hist_buf, bins));
  size_t cum = 0;
  int pivot = bins - 1;
  for (int b = bins - 1; b >= 0; --b) {
    cum += h[b];
    if (cum >= k_rem) {
      pivot = b;
      break;
    }
  }
  return SelectPivot{static_cast<uint32_t>(pivot), cum - h[pivot], h[pivot]};
}

/// One select pass's cluster: zeroes counters_buf, then kernel `name`
/// streams elements of in[0, n) whose bin is above `pivot` into
/// result[emitted + ...] and pivot-bin elements into next_cand, one
/// TwoWayCompactTile per tile. counters[0] counts emitted elements,
/// counters[1] next candidates.
template <typename E, typename BinFn>
Status SelectCluster(const simt::ExecCtx& dev, const char* name,
                     simt::GlobalSpan<E> in, size_t n, const BinFn& bin,
                     uint32_t pivot, simt::GlobalSpan<E> result,
                     size_t emitted, simt::GlobalSpan<E> next_cand,
                     simt::DeviceBuffer<uint32_t>& counters_buf) {
  MPTOPK_RETURN_NOT_OK(FillDevice<uint32_t>(dev, counters_buf, 0, 2, 0));
  simt::GlobalSpan<uint32_t> counters(counters_buf);
  const size_t tile = SelectTile(sizeof(E));
  const TilePartition part = SelectPartition(n, sizeof(E));
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kSelectBlockDim, .name = name},
      [&](simt::Block& blk) {
        auto w = TwoWayCompactWorkspace<E>::Alloc(blk, tile);
        const size_t hi = part.hi(blk.block_idx());
        for (size_t base = part.lo(blk.block_idx()); base < hi; base += tile) {
          TwoWayCompactTile<E>(
              blk, w, in, base, std::min(base + tile, hi),
              [&](const E& e) {
                uint32_t b = bin(e);
                return b > pivot ? 1 : (b == pivot ? 0 : -1);
              },
              result, emitted, next_cand, counters);
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_KERNEL_UTIL_H_
