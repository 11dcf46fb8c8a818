// INTERNAL: shared-memory building blocks of the bitonic top-k kernels --
// geometry resolution, combined-step window execution, in-shared merge, and
// the fused SortReducer/BitonicReducer/FinalReduce kernel launchers. Shared
// between gputopk/bitonic_topk.cc and the query engine's fused
// filter+top-k kernel (engine/, paper Section 5). Not a stable public API.
#ifndef MPTOPK_GPUTOPK_BITONIC_KERNELS_H_
#define MPTOPK_GPUTOPK_BITONIC_KERNELS_H_

#include <algorithm>
#include <vector>

#include "common/bits.h"
#include "gputopk/bitonic_plan.h"
#include "gputopk/bitonic_topk.h"

namespace mptopk::gpu::bitonic {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::SharedSpan;
using simt::Thread;

using Step = BitonicStep;
using Window = BitonicWindow;

inline std::vector<Step> LocalSortSteps(uint32_t k) {
  return BitonicLocalSortSteps(k);
}
inline std::vector<Step> RebuildSteps(uint32_t k) {
  return BitonicRebuildSteps(k);
}
inline std::vector<Window> PlanWindows(const std::vector<Step>& steps,
                                       int width_budget_bits) {
  return PlanBitonicWindows(steps, width_budget_bits);
}

constexpr int kMaxElemsPerThread = 64;

// Resolved kernel geometry for one (element type, k, options) combination.
template <typename E>
struct Geometry {
  int nt = 256;          // threads per block
  int B = 16;            // elements per thread in fused kernels
  size_t tile = 4096;    // elements staged per block
  int merges = 1;        // merge (halving) rounds per fused kernel
  bool pad = true;
  bool permute = true;
  bool combine = true;
  bool reassign = true;

  size_t PadIdx(size_t i) const { return pad ? i + (i >> 5) : i; }
  size_t SharedElems(size_t logical) const {
    return pad ? logical + (logical >> 5) + 1 : logical;
  }
  int WindowBudget(size_t elems_per_thread) const {
    if (!combine) return 1;
    size_t cap = std::min<size_t>(elems_per_thread, B);
    return std::max(1, Log2Floor(std::max<size_t>(2, NextPowerOfTwo(cap))));
  }
};

template <typename E>
StatusOr<Geometry<E>> ResolveGeometry(const simt::DeviceSpec& spec, size_t k,
                                      const BitonicOptions& opts) {
  Geometry<E> g;
  g.pad = opts.pad_shared;
  g.permute = opts.chunk_permute;
  g.combine = opts.combine_steps;
  g.reassign = opts.reassign_partitions;
  g.B = opts.elems_per_thread > 0 ? opts.elems_per_thread
                                  : (opts.pad_shared ? 16 : 8);
  if (!IsPowerOfTwo(g.B) || g.B < 2 || g.B > kMaxElemsPerThread) {
    return Status::InvalidArgument("elems_per_thread must be a power of two "
                                   "in [2, 64]");
  }
  // Start at 256 threads per block and halve until the (padded) tile fits
  // in shared memory.
  while (g.nt > 32) {
    g.tile = static_cast<size_t>(g.nt) * g.B;
    if (g.SharedElems(g.tile) * sizeof(E) <= spec.shared_mem_per_block) break;
    g.nt >>= 1;
  }
  g.tile = static_cast<size_t>(g.nt) * g.B;
  if (g.SharedElems(g.tile) * sizeof(E) > spec.shared_mem_per_block) {
    return Status::ResourceExhausted(
        "bitonic tile does not fit in shared memory even at block_dim=32");
  }
  if (k * 2 > g.tile) {
    return Status::InvalidArgument(
        "k too large: two sorted runs of length k must fit one tile (k <= " +
        std::to_string(g.tile / 2) + " for this element type)");
  }
  // Each merge halves the tile; stop while at least one k-run pair remains.
  g.merges = std::min(Log2Floor(static_cast<uint64_t>(g.B)),
                      Log2Floor(g.tile / k));
  return g;
}

// ---------------------------------------------------------------------------
// Shared-memory building blocks (called from kernel/block scope).
// ---------------------------------------------------------------------------

// Executes one window of compare-exchange steps over the logical array
// s[0, m) staged in shared memory. `active_threads` threads each stage
// gpt * 2^w elements in registers. `permute` rotates each lane's group and
// intra-group access order (the paper's chunk permutation).
template <typename E>
void RunWindowShared(Block& blk, SharedSpan<E> s, size_t m, const Window& w,
                     int active_threads, const Geometry<E>& g) {
  const int lo = w.lo_bit;
  const int G = w.group_size();
  const size_t groups = m >> (w.hi_bit - w.lo_bit + 1);
  const int at = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(active_threads), groups));
  const size_t gpt = CeilDiv(groups, at);
  // Chunk permutation only matters for strided windows (comparison distance
  // > 1, paper Figure 10); contiguous windows (lo == 0) are conflict-free
  // under padding and are left untouched.
  const bool permute = g.permute && lo > 0;
  blk.ForEachThreadBelow(at, [&](Thread& t) {
    E regs[kMaxElemsPerThread];
    for (size_t gj = 0; gj < gpt; ++gj) {
      size_t order = (permute && gpt > 1)
                         ? (gj + static_cast<size_t>(t.lane)) % gpt
                         : gj;
      size_t grp = static_cast<size_t>(t.tid) * gpt + order;
      if (grp >= groups) continue;
      size_t base = ((grp >> lo) << (w.hi_bit + 1)) |
                    (grp & ((size_t{1} << lo) - 1));
      int rot = permute ? (t.lane % G) : 0;
      for (int jj = 0; jj < G; ++jj) {
        int j = (jj + rot) % G;
        regs[j] = s.Read(t, g.PadIdx(base + (static_cast<size_t>(j) << lo)));
      }
      for (const Step& st : w.steps) {
        int relbit = Log2Floor(st.inc) - lo;
        int rel = 1 << relbit;
        for (int j = 0; j < G; ++j) {
          if ((j >> relbit) & 1) continue;
          size_t gi = base + (static_cast<size_t>(j) << lo);
          bool ascending = (gi & st.dir) == 0;
          bool a_less = ElementTraits<E>::Less(regs[j], regs[j + rel]);
          // paper: swap = reverse XOR (x0 < x1); 'reverse' is the ascending
          // branch of the direction bit.
          if (ascending != a_less) std::swap(regs[j], regs[j + rel]);
        }
      }
      for (int jj = 0; jj < G; ++jj) {
        int j = (jj + rot) % G;
        s.Write(t, g.PadIdx(base + (static_cast<size_t>(j) << lo)), regs[j]);
      }
    }
  });
  blk.Sync();
}

template <typename E>
void RunStepsShared(Block& blk, SharedSpan<E> s, size_t m,
                    const std::vector<Step>& steps, int active_threads,
                    const Geometry<E>& g) {
  size_t ept = m / std::max(1, active_threads);
  const auto windows = PlanWindows(steps, g.WindowBudget(ept));
  for (const Window& w : windows) {
    RunWindowShared(blk, s, m, w, active_threads, g);
  }
}

// Pairwise-max merge of adjacent k-runs: s[0, m) -> s[0, m/2). Two regions
// (read into registers, barrier, write) because reads and writes overlap
// across threads.
template <typename E>
void MergeShared(Block& blk, SharedSpan<E> s, size_t m, size_t k,
                 const Geometry<E>& g) {
  const size_t outs = m / 2;
  const int at = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(blk.block_dim()), outs));
  const size_t opt = CeilDiv(outs, at);
  E* scratch = blk.ThreadScratch<E>(opt);
  // Outputs are assigned round-robin (j = jj*at + tid) so each warp touches
  // contiguous shared words -- conflict-free under padding.
  blk.ForEachThreadBelow(at, [&](Thread& t) {
    for (size_t jj = 0; jj < opt; ++jj) {
      size_t j = jj * at + t.tid;
      if (j >= outs) continue;
      size_t i = (j / k) * 2 * k + (j % k);
      E a = s.Read(t, g.PadIdx(i));
      E b = s.Read(t, g.PadIdx(i + k));
      scratch[static_cast<size_t>(t.tid) * opt + jj] =
          ElementTraits<E>::Less(a, b) ? b : a;
    }
  });
  blk.Sync();
  blk.ForEachThreadBelow(at, [&](Thread& t) {
    for (size_t jj = 0; jj < opt; ++jj) {
      size_t j = jj * at + t.tid;
      if (j >= outs) continue;
      s.Write(t, g.PadIdx(j), scratch[static_cast<size_t>(t.tid) * opt + jj]);
    }
  });
  blk.Sync();
}

// Threads to use for a rebuild over m elements: with partition reassignment
// only m/B threads work (keeping B elements each, maximal combined steps);
// without it all block threads share the m elements.
template <typename E>
int RebuildThreads(const Geometry<E>& g, size_t m) {
  if (!g.reassign) return g.nt;
  return static_cast<int>(std::max<size_t>(
      32, std::min<size_t>(g.nt, m / g.B > 0 ? m / g.B : 1)));
}

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

// Coalesced tile load: global[in_base, in_base+count) -> shared (padded),
// sentinel-filling shared positions [count, tile).
template <typename E>
void LoadTile(Block& blk, GlobalSpan<E> in, size_t in_base, size_t count,
              SharedSpan<E> s, size_t tile, const Geometry<E>& g) {
  const E sentinel = ElementTraits<E>::LowestSentinel();
  blk.ForEachThread([&](Thread& t) {
    for (size_t i = t.tid; i < tile; i += blk.block_dim()) {
      E v = i < count ? in.Read(t, in_base + i) : sentinel;
      s.Write(t, g.PadIdx(i), v);
    }
  });
  blk.Sync();
}

template <typename E>
void StoreTile(Block& blk, SharedSpan<E> s, GlobalSpan<E> out, size_t out_base,
               size_t count, const Geometry<E>& g) {
  blk.ForEachThread([&](Thread& t) {
    for (size_t i = t.tid; i < count; i += blk.block_dim()) {
      out.Write(t, out_base + i, s.Read(t, g.PadIdx(i)));
    }
  });
  blk.Sync();
}

// Fused kernel 1 (SortReducer): local sort + (merge, rebuild)*(r-1) + merge.
// Reduces each tile of `tile` elements to tile >> merges outputs (bitonic
// k-runs).
template <typename E>
Status LaunchSortReducer(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                         GlobalSpan<E> out, size_t k, const Geometry<E>& g) {
  const int grid = static_cast<int>(CeilDiv(n, g.tile));
  const size_t opb = g.tile >> g.merges;  // outputs per block
  const auto local_steps = LocalSortSteps(static_cast<uint32_t>(k));
  const auto rebuild_steps = RebuildSteps(static_cast<uint32_t>(k));
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = g.nt,
       .regs_per_thread = g.B + 16, .name = "bitonic_sort_reducer"},
      [&](Block& blk) {
        auto s = blk.AllocShared<E>(g.SharedElems(g.tile));
        size_t base = static_cast<size_t>(blk.block_idx()) * g.tile;
        size_t count = std::min(g.tile, n - std::min(n, base));
        LoadTile(blk, in, base, count, s, g.tile, g);
        RunStepsShared(blk, s, g.tile, local_steps, g.nt, g);
        size_t m = g.tile;
        for (int mg = 0; mg < g.merges; ++mg) {
          MergeShared(blk, s, m, k, g);
          m >>= 1;
          if (mg + 1 < g.merges) {
            RunStepsShared(blk, s, m, rebuild_steps, RebuildThreads(g, m), g);
          }
        }
        StoreTile(blk, s, out, static_cast<size_t>(blk.block_idx()) * opb, opb,
                  g);
      });
  return st.ok() ? Status::OK() : st.status();
}

// Fused kernel 2 (BitonicReducer): (rebuild, merge)*r on bitonic k-runs.
template <typename E>
Status LaunchBitonicReducer(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m_in,
                            GlobalSpan<E> out, size_t k,
                            const Geometry<E>& g) {
  const int grid = static_cast<int>(CeilDiv(m_in, g.tile));
  const size_t opb = g.tile >> g.merges;
  const auto rebuild_steps = RebuildSteps(static_cast<uint32_t>(k));
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = g.nt,
       .regs_per_thread = g.B + 16, .name = "bitonic_reducer"},
      [&](Block& blk) {
        auto s = blk.AllocShared<E>(g.SharedElems(g.tile));
        size_t base = static_cast<size_t>(blk.block_idx()) * g.tile;
        size_t count = std::min(g.tile, m_in - std::min(m_in, base));
        LoadTile(blk, in, base, count, s, g.tile, g);
        size_t m = g.tile;
        for (int mg = 0; mg < g.merges; ++mg) {
          RunStepsShared(blk, s, m, rebuild_steps, RebuildThreads(g, m), g);
          MergeShared(blk, s, m, k, g);
          m >>= 1;
        }
        StoreTile(blk, s, out, static_cast<size_t>(blk.block_idx()) * opb, opb,
                  g);
      });
  return st.ok() ? Status::OK() : st.status();
}

// Final single-block kernel: reduces m_in <= tile elements to the sorted
// top-k, written descending. `unsorted` selects whether the input still
// needs the initial local sort (small-n fast path) or consists of bitonic
// k-runs (reducer pipeline output).
template <typename E>
Status LaunchFinalReduce(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m_in,
                         GlobalSpan<E> out_k, size_t k, bool unsorted,
                         const Geometry<E>& g) {
  const size_t p2 = NextPowerOfTwo(std::max(m_in, k));
  const auto local_steps = LocalSortSteps(static_cast<uint32_t>(k));
  const auto rebuild_steps = RebuildSteps(static_cast<uint32_t>(k));
  auto st = dev.Launch(
      {.grid_dim = 1, .block_dim = g.nt, .regs_per_thread = g.B + 16,
       .name = "bitonic_final_reduce"},
      [&](Block& blk) {
        auto s = blk.AllocShared<E>(g.SharedElems(p2));
        LoadTile(blk, in, 0, m_in, s, p2, g);
        size_t m = p2;
        if (unsorted) {
          RunStepsShared(blk, s, m, local_steps, g.nt, g);
          while (m > k) {
            MergeShared(blk, s, m, k, g);
            m >>= 1;
            if (m > k) {
              RunStepsShared(blk, s, m, rebuild_steps, RebuildThreads(g, m),
                             g);
            }
          }
        } else {
          while (m > k) {
            RunStepsShared(blk, s, m, rebuild_steps, RebuildThreads(g, m), g);
            MergeShared(blk, s, m, k, g);
            m >>= 1;
          }
        }
        // Sort the final (bitonic or already-sorted) k-run ascending, then
        // emit descending.
        RunStepsShared(blk, s, m, rebuild_steps, RebuildThreads(g, m), g);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = t.tid; i < k; i += blk.block_dim()) {
            out_k.Write(t, i, s.Read(t, g.PadIdx(k - 1 - i)));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}


}  // namespace mptopk::gpu::bitonic

#endif  // MPTOPK_GPUTOPK_BITONIC_KERNELS_H_
