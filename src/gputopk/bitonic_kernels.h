// INTERNAL: block-scope shared-memory building blocks of the bitonic top-k
// kernels -- combined-step window execution, in-shared merge, and the
// reduction schedule of gputopk/bitonic_plan.h run over a staged tile.
// Shared between gputopk/bitonic_topk.cc and the query engine's fused
// filter+top-k kernel (engine/, paper Section 5). Not a stable public API.
#ifndef MPTOPK_GPUTOPK_BITONIC_KERNELS_H_
#define MPTOPK_GPUTOPK_BITONIC_KERNELS_H_

#include <algorithm>
#include <cstdint>
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

// Window w's compare-exchanges over one group held in registers, in step
// order. Element j of a group is logical element base + (j << w.lo_bit),
// and the window and base bits are disjoint, so a pair ascends when
// neither j's window bits nor the group's base set the step's direction
// bit. Built once per window; both bodies of RunWindowShared run it, so
// they compute the same bits.
class GroupNetwork {
 public:
  explicit GroupNetwork(const BitonicWindow& w) {
    const int G = w.group_size();
    pairs_.reserve(w.steps.size() * G / 2);
    for (const BitonicStep& st : w.steps) {
      const int rel = static_cast<int>(st.inc >> w.lo_bit);
      for (int j = 0; j < G; ++j) {
        if (j & rel) continue;
        pairs_.push_back({static_cast<uint8_t>(j),
                          static_cast<uint8_t>(j + rel),
                          ((static_cast<uint32_t>(j) << w.lo_bit) & st.dir) != 0,
                          st.dir});
      }
    }
  }

  template <typename E>
  void Run(E* regs, size_t base) const {
    for (const Pair& p : pairs_) {
      BitonicCompareExchange(regs[p.a], regs[p.b],
                             !p.descending && (base & p.dir) == 0);
    }
  }

 private:
  struct Pair {
    uint8_t a;
    uint8_t b;
    bool descending;  // j's window bits set the direction bit
    uint32_t dir;
  };
  std::vector<Pair> pairs_;
};

// Executes one window of compare-exchange steps over the logical array
// s[0, m) staged in shared memory. `active_threads` threads each stage
// gpt * 2^w elements in registers. `permute` rotates each lane's group and
// intra-group access order (the paper's chunk permutation). The network is
// data-oblivious: the addresses depend only on the window's bits, m, the
// thread count and the layout flags, never on the step directions or data.
// Groups are disjoint and run the same comparator sequence, so the native
// body walks them in index order.
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
  // Group grp's first element, and the shared index of a group's element j.
  auto group_base = [&](size_t grp) {
    return ((grp >> lo) << (w.hi_bit + 1)) | (grp & ((size_t{1} << lo) - 1));
  };
  auto elem = [&](size_t base, int j) {
    return g.PadIdx(base + (static_cast<size_t>(j) << lo));
  };
  // Chunk permutation only matters for strided windows (comparison distance
  // > 1, paper Figure 10); contiguous windows (lo == 0) are conflict-free
  // under padding and are left untouched.
  const bool permute = g.permute && lo > 0;
  const GroupNetwork group_net(w);
  const simt::RegionShape shape(kBitonicWindowSite, s.base_offset(), sizeof(E),
                                m, lo, w.hi_bit, g.pad, permute);
  blk.ForEachThreadOblivious(
      shape, at,
      [&](Thread& t) {
        E regs[kMaxElemsPerThread];
        for (size_t gj = 0; gj < gpt; ++gj) {
          size_t order = (permute && gpt > 1)
                             ? (gj + static_cast<size_t>(t.lane)) % gpt
                             : gj;
          size_t grp = static_cast<size_t>(t.tid) * gpt + order;
          if (grp >= groups) continue;
          const size_t base = group_base(grp);
          int rot = permute ? (t.lane % G) : 0;
          for (int jj = 0; jj < G; ++jj) {
            int j = (jj + rot) % G;
            regs[j] = s.Read(t, elem(base, j));
          }
          group_net.Run(regs, base);
          for (int jj = 0; jj < G; ++jj) {
            int j = (jj + rot) % G;
            s.Write(t, elem(base, j), regs[j]);
          }
        }
      },
      [&] {
        E regs[kMaxElemsPerThread];
        for (size_t grp = 0; grp < groups; ++grp) {
          const size_t base = group_base(grp);
          for (int j = 0; j < G; ++j) regs[j] = s.Untraced(elem(base, j));
          group_net.Run(regs, base);
          for (int j = 0; j < G; ++j) s.Untraced(elem(base, j)) = regs[j];
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
// across threads. Output j is thread j % at's register j / at in both
// bodies: one region may hit the memo (native) while the other misses.
template <typename E>
void MergeShared(Block& blk, SharedSpan<E> s, size_t m, size_t k,
                 const BitonicGeometry& g) {
  const size_t outs = m / 2;
  const int at = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(blk.block_dim()), outs));
  const size_t opt = CeilDiv(outs, at);
  E* scratch = blk.ThreadScratch<E>(opt);
  auto pair_max = [&](size_t j, auto read) {
    const size_t i = (j / k) * 2 * k + (j % k);
    const E a = read(g.PadIdx(i));
    const E b = read(g.PadIdx(i + k));
    return BitonicPairMax(a, b);
  };
  // Calls fn(j, register slot) for every output in index order.
  auto for_each_out = [&](auto fn) {
    for (size_t jj = 0, j = 0; jj < opt; ++jj) {
      for (size_t tid = 0; tid < static_cast<size_t>(at) && j < outs;
           ++tid, ++j) {
        fn(j, tid * opt + jj);
      }
    }
  };
  // Outputs are assigned round-robin (j = jj*at + tid) so each warp touches
  // contiguous shared words -- conflict-free under padding.
  const simt::RegionShape read_shape(kMergeReadSite, s.base_offset(),
                                     sizeof(E), m, k, g.pad);
  blk.ForEachThreadOblivious(
      read_shape, at,
      [&](Thread& t) {
        for (size_t jj = 0; jj < opt; ++jj) {
          size_t j = jj * at + t.tid;
          if (j >= outs) continue;
          scratch[static_cast<size_t>(t.tid) * opt + jj] =
              pair_max(j, [&](size_t i) { return s.Read(t, i); });
        }
      },
      [&] {
        for_each_out([&](size_t j, size_t slot) {
          scratch[slot] = pair_max(j, [&](size_t i) { return s.Untraced(i); });
        });
      });
  blk.Sync();
  const simt::RegionShape write_shape(kMergeWriteSite, s.base_offset(),
                                      sizeof(E), m, g.pad);
  blk.ForEachThreadOblivious(
      write_shape, at,
      [&](Thread& t) {
        for (size_t jj = 0; jj < opt; ++jj) {
          size_t j = jj * at + t.tid;
          if (j >= outs) continue;
          s.Write(t, g.PadIdx(j),
                  scratch[static_cast<size_t>(t.tid) * opt + jj]);
        }
      },
      [&] {
        for_each_out([&](size_t j, size_t slot) {
          s.Untraced(g.PadIdx(j)) = scratch[slot];
        });
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
