// Small device-side helpers shared by the top-k kernels: buffer fill and
// copy-out, block-level exclusive prefix sum and the selection algorithms'
// two-way tile compaction.
#ifndef MPTOPK_GPUTOPK_KERNEL_UTIL_H_
#define MPTOPK_GPUTOPK_KERNEL_UTIL_H_

#include <cstddef>

#include "common/bits.h"
#include "common/status.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"

namespace mptopk::gpu {

/// Fills buf[offset, offset+count) with `value` using a grid-stride kernel
/// (counted traffic, like cudaMemset).
template <typename T>
Status FillDevice(const simt::ExecCtx& dev, simt::DeviceBuffer<T>& buf,
                  size_t offset, size_t count, T value) {
  if (count == 0) return Status::OK();
  simt::GlobalSpan<T> g(buf);
  const int block = 256;
  const int grid = static_cast<int>(
      std::min<uint64_t>(1024, CeilDiv(count, block)));
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = block, .name = "fill"},
      [&](simt::Block& blk) {
        blk.ForEachThread([&](simt::Thread& t) {
          size_t stride = static_cast<size_t>(grid) * block;
          for (size_t i = static_cast<size_t>(blk.block_idx()) * block + t.tid;
               i < count; i += stride) {
            g.Write(t, offset + i, value);
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

template <typename T>
Status FillDevice(simt::Device& dev, simt::DeviceBuffer<T>& buf, size_t offset,
                  size_t count, T value) {
  return FillDevice(simt::ExecCtx(dev), buf, offset, count, value);
}

/// Block-scope exclusive prefix sum over `count` uint32 values living in
/// shared memory (Hillis-Steele over a power-of-two padded range). Must be
/// called from kernel (block) scope. On return, data[i] holds the exclusive
/// prefix sum of the original values and the block-wide total is stored in
/// *total_out (host-visible; the caller's kernel logic may use it in
/// subsequent regions).
///
/// Traffic note: this is the textbook O(n log n)-access scan GPU kernels use
/// inside a block; its shared traffic is counted like any other access.
inline void BlockExclusiveScan(simt::Block& blk,
                               simt::SharedSpan<uint32_t> data, size_t count,
                               simt::SharedSpan<uint32_t> scratch,
                               uint32_t* total_out) {
  // scratch must have >= count entries.
  const size_t n = count;
  // Hillis-Steele inclusive scan, ping-ponging between data and scratch.
  simt::SharedSpan<uint32_t> src = data;
  simt::SharedSpan<uint32_t> dst = scratch;
  for (size_t offset = 1; offset < n; offset <<= 1) {
    blk.ForEachThread([&](simt::Thread& t) {
      for (size_t i = t.tid; i < n; i += blk.block_dim()) {
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
    blk.ForEachThread([&](simt::Thread& t) {
      for (size_t i = t.tid; i < n; i += blk.block_dim()) {
        scratch.Write(t, i, data.Read(t, i));
      }
    });
    blk.Sync();
    src = scratch;
  }
  // src now holds the inclusive scan; shift right by one into `data` to make
  // it exclusive, capturing the block-wide total from the last element.
  uint32_t total = 0;
  blk.ForEachThread([&](simt::Thread& t) {
    for (size_t i = t.tid; i < n; i += blk.block_dim()) {
      if (i == n - 1) total = src.Read(t, i);
      uint32_t prev = i == 0 ? 0u : src.Read(t, i - 1);
      data.Write(t, i, prev);
    }
  });
  blk.Sync();
  if (total_out != nullptr) *total_out = total;
}

/// Copies src[0, count) into result[emitted, emitted + count) with a
/// grid-stride kernel named `name`: the selection algorithms' final step.
template <typename E>
Status LaunchCopyOut(const simt::ExecCtx& dev, const char* name,
                     simt::GlobalSpan<E> src, size_t count,
                     simt::GlobalSpan<E> result, size_t emitted) {
  const int block = 256;
  const int grid =
      static_cast<int>(std::min<uint64_t>(256, CeilDiv(count, block)));
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = block, .name = name},
      [&](simt::Block& blk) {
        blk.ForEachThread([&](simt::Thread& t) {
          size_t stride = static_cast<size_t>(grid) * block;
          for (size_t i = static_cast<size_t>(blk.block_idx()) * block + t.tid;
               i < count; i += stride) {
            result.Write(t, emitted + i, src.Read(t, i));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

/// Tile size of the selection algorithms' scan-based compaction, sized so
/// the TwoWayCompactWorkspace (3 staged tiles + per-thread counters) fits
/// 48 KiB shared memory.
template <typename E>
constexpr size_t SelectTile() {
  return sizeof(E) <= 4 ? 2048 : (sizeof(E) <= 12 ? 1024 : 512);
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

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_KERNEL_UTIL_H_
