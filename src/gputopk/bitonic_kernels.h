// INTERNAL: block-scope shared-memory building blocks of the bitonic top-k
// kernels -- combined-step window execution, in-shared merge, and the
// reduction schedule of gputopk/bitonic_plan.h run over a staged tile.
// Shared between gputopk/bitonic_topk.cc and the query engine's fused
// filter+top-k kernel (engine/, paper Section 5). Not a stable public API.
#ifndef MPTOPK_GPUTOPK_BITONIC_KERNELS_H_
#define MPTOPK_GPUTOPK_BITONIC_KERNELS_H_

#include <algorithm>
#include <vector>

#include "common/bits.h"
#include "gputopk/bitonic_plan.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu::bitonic {

using simt::Block;
using simt::SharedSpan;
using simt::Thread;

// ---------------------------------------------------------------------------
// Shared-memory building blocks (called from kernel/block scope).
// ---------------------------------------------------------------------------

// Executes one window of compare-exchange steps over the logical array
// s[0, m) staged in shared memory. `active_threads` threads each stage
// gpt * 2^w elements in registers. `permute` rotates each lane's group and
// intra-group access order (the paper's chunk permutation). The network is
// data-oblivious: the addresses depend only on the window's bits, m, the
// thread count and the layout flags, never on the step directions or data.
template <typename E>
void RunWindowShared(Block& blk, SharedSpan<E> s, size_t m,
                     const BitonicWindow& w, int active_threads,
                     const BitonicGeometry& g) {
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
  const simt::RegionShape shape(kBitonicWindowSite, s.base_offset(), sizeof(E),
                                m, lo, w.hi_bit, g.pad, permute);
  blk.ForEachThreadOblivious(shape, at, [&](Thread& t) {
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
      for (const BitonicStep& st : w.steps) {
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
                    const std::vector<BitonicStep>& steps, int active_threads,
                    const BitonicGeometry& g) {
  size_t ept = m / std::max(1, active_threads);
  const auto windows = PlanBitonicWindows(steps, g.WindowBudget(ept));
  for (const BitonicWindow& w : windows) {
    RunWindowShared(blk, s, m, w, active_threads, g);
  }
}

// Pairwise-max merge of adjacent k-runs: s[0, m) -> s[0, m/2). Two regions
// (read into registers, barrier, write) because reads and writes overlap
// across threads.
template <typename E>
void MergeShared(Block& blk, SharedSpan<E> s, size_t m, size_t k,
                 const BitonicGeometry& g) {
  const size_t outs = m / 2;
  const int at = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(blk.block_dim()), outs));
  const size_t opt = CeilDiv(outs, at);
  E* scratch = blk.ThreadScratch<E>(opt);
  // Outputs are assigned round-robin (j = jj*at + tid) so each warp touches
  // contiguous shared words -- conflict-free under padding.
  const simt::RegionShape read_shape(kMergeReadSite, s.base_offset(),
                                     sizeof(E), m, k, g.pad);
  blk.ForEachThreadOblivious(read_shape, at, [&](Thread& t) {
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
  const simt::RegionShape write_shape(kMergeWriteSite, s.base_offset(),
                                      sizeof(E), m, g.pad);
  blk.ForEachThreadOblivious(write_shape, at, [&](Thread& t) {
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
inline int RebuildThreads(const BitonicGeometry& g, size_t m) {
  if (!g.reassign) return g.nt;
  return static_cast<int>(std::max<size_t>(
      32, std::min<size_t>(g.nt, m / g.B > 0 ? m / g.B : 1)));
}

// Runs a reduction schedule over the tile staged (padded) in s: local sorts
// use every block thread, rebuilds RebuildThreads of them.
template <typename E>
void ReduceShared(Block& blk, SharedSpan<E> s,
                  const std::vector<BitonicOp>& ops, const BitonicNetwork& net,
                  const BitonicGeometry& g) {
  for (const BitonicOp& op : ops) {
    if (op.kind == BitonicOp::kLocalSort) {
      RunStepsShared(blk, s, op.m, net.local_sort, g.nt, g);
    } else if (op.kind == BitonicOp::kRebuild) {
      RunStepsShared(blk, s, op.m, net.rebuild, RebuildThreads(g, op.m), g);
    } else {
      MergeShared(blk, s, op.m, net.k, g);
    }
  }
}

}  // namespace mptopk::gpu::bitonic

#endif  // MPTOPK_GPUTOPK_BITONIC_KERNELS_H_
