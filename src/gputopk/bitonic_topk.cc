// Implementation of bitonic top-k (see bitonic_topk.h for the algorithm
// description). The same plan (gputopk/bitonic_plan.h) drives every
// optimization level:
//
//  * a BitonicStep {dir, inc} is one compare-exchange round of the bitonic
//    network (paper Algorithms 2 and 4): pairs (i, i+inc) with (i & inc) == 0,
//    ascending when (i & dir) == 0;
//  * consecutive steps whose comparison distances fit a bit-window of width
//    w are executed as one "combined step": each thread stages 2^w elements
//    in registers, applies all comparisons, and writes once (Section 4.3,
//    "Combining/Sequentializing Multiple Steps");
//  * merge is the pairwise-max reduction that halves the candidate set
//    (Algorithm 3) — the surviving half is bitonic, which is the paper's key
//    insight;
//  * the reduction schedule orders local sort, rebuild and merge ops; the
//    fused kernels run it per tile in shared memory, the unfused pipeline
//    launches one kernel per op.
#include "gputopk/bitonic_topk.h"

#include <algorithm>
#include <vector>

#include "common/bits.h"
#include "gputopk/bitonic_kernels.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::SharedSpan;
using simt::Thread;

using namespace bitonic;

// --- Non-fused variants -----------------------------------------------------

// One bitonic step over global memory (the fully naive baseline: one kernel
// launch per step).
template <typename E>
Status LaunchGlobalStep(const simt::ExecCtx& dev, GlobalSpan<E> data, size_t m,
                        BitonicStep step, const BitonicGeometry& g) {
  return LaunchGridStride(
      dev, "bitonic_global_step", m / 2, g.nt, 4096, [&](Thread& t, size_t p) {
        size_t low = p & (step.inc - 1);
        size_t i = (p << 1) - low;
        E a = data.Read(t, i);
        E b = data.Read(t, i + step.inc);
        bool ascending = (i & step.dir) == 0;
        bool a_less = ElementTraits<E>::Less(a, b);
        if (ascending != a_less) std::swap(a, b);
        data.Write(t, i, a);
        data.Write(t, i + step.inc, b);
      });
}

// Merge over global memory: out[j] = max(in[i], in[i+k]) (ping-pong).
template <typename E>
Status LaunchGlobalMerge(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m,
                         GlobalSpan<E> out, size_t k,
                         const BitonicGeometry& g) {
  return LaunchGridStride(
      dev, "bitonic_global_merge", m / 2, g.nt, 4096, [&](Thread& t, size_t j) {
        size_t i = (j / k) * 2 * k + (j % k);
        E a = in.Read(t, i);
        E b = in.Read(t, i + k);
        out.Write(t, j, ElementTraits<E>::Less(a, b) ? b : a);
      });
}

// Coalesced tile load: global[in_base, in_base+count) -> shared (padded),
// sentinel-filling shared positions [count, tile).
template <typename E>
void LoadTile(Block& blk, GlobalSpan<E> in, size_t in_base, size_t count,
              SharedSpan<E> s, size_t tile, const BitonicGeometry& g) {
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
               size_t count, const BitonicGeometry& g) {
  blk.ForEachThread([&](Thread& t) {
    for (size_t i = t.tid; i < count; i += blk.block_dim()) {
      out.Write(t, out_base + i, s.Read(t, g.PadIdx(i)));
    }
  });
  blk.Sync();
}

// Shared-memory staged (but unfused) operator: runs `steps` over tiles of
// `data[0, m)`, staging each tile in shared memory. Valid only while every
// step's comparison distance stays within a tile (true for local sort and
// rebuild, whose distances are < k <= tile/2).
template <typename E>
Status LaunchStagedSteps(const simt::ExecCtx& dev, GlobalSpan<E> data, size_t m,
                         const std::vector<BitonicStep>& steps,
                         const char* name, const BitonicGeometry& g) {
  const size_t tile = std::min(g.tile, m);
  const int grid = static_cast<int>(CeilDiv(m, tile));
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = g.nt, .regs_per_thread = g.B + 16,
       .name = name},
      [&](Block& blk) {
        auto s = blk.AllocShared<E>(g.SharedElems(tile));
        size_t base = static_cast<size_t>(blk.block_idx()) * tile;
        size_t count = std::min(tile, m - std::min(m, base));
        LoadTile(blk, data, base, count, s, tile, g);
        RunStepsShared(blk, s, tile, steps, g.nt, g);
        StoreTile(blk, s, data, base, count, g);
      });
  return st.ok() ? Status::OK() : st.status();
}

// Copies in[0,n) into work[0,p2), sentinel-padding the tail.
template <typename E>
Status LaunchCopyPad(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                     GlobalSpan<E> work, size_t p2, const BitonicGeometry& g) {
  const E sentinel = ElementTraits<E>::LowestSentinel();
  return LaunchGridStride(dev, "bitonic_copy_pad", p2, g.nt, 4096,
                          [&](Thread& t, size_t i) {
                            work.Write(t, i, i < n ? in.Read(t, i) : sentinel);
                          });
}

// The global-memory pipeline used by both the fully naive variant and the
// shared-staged (unfused) variant: one launch per op of the reduction
// schedule (one per step when unstaged), merges ping-ponging in global
// memory.
template <typename E>
Status RunUnfused(const simt::ExecCtx& dev, DeviceBuffer<E>& data, size_t n,
                  size_t k, const BitonicOptions& opts,
                  const BitonicGeometry& g, DeviceBuffer<E>* out_k) {
  const size_t p2 = NextPowerOfTwo(std::max(n, 2 * k));
  MPTOPK_ASSIGN_OR_RETURN(auto work_buf, dev.Alloc<E>(p2));
  MPTOPK_ASSIGN_OR_RETURN(auto aux_buf, dev.Alloc<E>(p2 / 2));
  GlobalSpan<E> in(data);
  GlobalSpan<E> cur(work_buf);
  GlobalSpan<E> other(aux_buf);
  MPTOPK_RETURN_NOT_OK(LaunchCopyPad(dev, in, n, cur, p2, g));

  const BitonicNetwork net(k);
  auto run_steps = [&](size_t m, const std::vector<BitonicStep>& steps,
                       const char* name) -> Status {
    if (opts.use_shared_memory) {
      return LaunchStagedSteps(dev, cur, m, steps, name, g);
    }
    for (const BitonicStep& st : steps) {
      MPTOPK_RETURN_NOT_OK(LaunchGlobalStep(dev, cur, m, st, g));
    }
    return Status::OK();
  };
  for (const BitonicOp& op : BitonicReduceSchedule(p2, k, /*unsorted=*/true)) {
    if (op.kind == BitonicOp::kLocalSort) {
      MPTOPK_RETURN_NOT_OK(
          run_steps(op.m, net.local_sort, "bitonic_local_sort"));
    } else if (op.kind == BitonicOp::kRebuild) {
      MPTOPK_RETURN_NOT_OK(run_steps(op.m, net.rebuild, "bitonic_rebuild"));
    } else {
      MPTOPK_RETURN_NOT_OK(LaunchGlobalMerge(dev, cur, op.m, other, k, g));
      std::swap(cur, other);
    }
  }
  // Sort the last (bitonic) k-run ascending, then emit descending.
  MPTOPK_RETURN_NOT_OK(run_steps(k, net.rebuild, "bitonic_rebuild"));
  GlobalSpan<E> out(*out_k);
  return LaunchGridStride(dev, "bitonic_emit", k, g.nt, 1,
                          [&](Thread& t, size_t i) {
                            out.Write(t, i, cur.Read(t, k - 1 - i));
                          });
}

// --- Fused kernels ----------------------------------------------------------

// A fused reducer (paper Algorithm 5): each block stages one tile, runs the
// reduction schedule down to tile >> merges elements and stores them as
// bitonic k-runs. `unsorted` selects the SortReducer (local sort first) over
// the BitonicReducer (input already bitonic k-runs).
template <typename E>
Status LaunchReducer(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m,
                     GlobalSpan<E> out, size_t k, bool unsorted,
                     const BitonicGeometry& g) {
  const size_t opb = g.OutPerBlock();
  const BitonicNetwork net(k);
  const auto ops = BitonicReduceSchedule(g.tile, opb, unsorted);
  auto st = dev.Launch(
      {.grid_dim = static_cast<int>(g.Blocks(m)), .block_dim = g.nt,
       .regs_per_thread = g.B + 16,
       .name = unsorted ? "bitonic_sort_reducer" : "bitonic_reducer"},
      [&](Block& blk) {
        auto s = blk.AllocShared<E>(g.SharedElems(g.tile));
        size_t base = static_cast<size_t>(blk.block_idx()) * g.tile;
        size_t count = std::min(g.tile, m - std::min(m, base));
        LoadTile(blk, in, base, count, s, g.tile, g);
        ReduceShared(blk, s, ops, net, g);
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
Status LaunchFinalReduce(const simt::ExecCtx& dev, GlobalSpan<E> in,
                         size_t m_in, GlobalSpan<E> out_k, size_t k,
                         bool unsorted, const BitonicGeometry& g) {
  const size_t p2 = NextPowerOfTwo(std::max(m_in, k));
  const BitonicNetwork net(k);
  const auto ops = BitonicReduceSchedule(p2, k, unsorted);
  auto st = dev.Launch(
      {.grid_dim = 1, .block_dim = g.nt, .regs_per_thread = g.B + 16,
       .name = "bitonic_final_reduce"},
      [&](Block& blk) {
        auto s = blk.AllocShared<E>(g.SharedElems(p2));
        LoadTile(blk, in, 0, m_in, s, p2, g);
        ReduceShared(blk, s, ops, net, g);
        // Sort the final (bitonic or already-sorted) k-run ascending, then
        // emit descending.
        RunStepsShared(blk, s, k, net.rebuild, RebuildThreads(g, k), g);
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = t.tid; i < k; i += blk.block_dim()) {
            out_k.Write(t, i, s.Read(t, g.PadIdx(k - 1 - i)));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// The reducer chain: BitonicReducers until the bitonic k-runs in[0, m) fit
// one tile, then the final kernel into out_k. Reducer outputs alternate
// between `ping` and `pong` (each holding g.Reduced(m) elements), starting
// with ping; `in` is only read.
template <typename E>
Status ReduceRunsChain(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m,
                       GlobalSpan<E> ping, GlobalSpan<E> pong,
                       GlobalSpan<E> out_k, size_t k,
                       const BitonicGeometry& g) {
  while (m > g.tile) {
    MPTOPK_RETURN_NOT_OK(
        LaunchReducer(dev, in, m, ping, k, /*unsorted=*/false, g));
    in = ping;
    std::swap(ping, pong);
    m = g.Reduced(m);
  }
  return LaunchFinalReduce(dev, in, m, out_k, k, /*unsorted=*/false, g);
}

// The fused pipeline: SortReducer, BitonicReducer*, FinalReduce.
template <typename E>
Status RunFused(const simt::ExecCtx& dev, DeviceBuffer<E>& data, size_t n,
                size_t k, const BitonicGeometry& g, DeviceBuffer<E>* out_k) {
  GlobalSpan<E> in(data);
  GlobalSpan<E> out(*out_k);
  if (n <= g.tile) {
    return LaunchFinalReduce(dev, in, n, out, k, /*unsorted=*/true, g);
  }
  const size_t m1 = g.Reduced(n);
  MPTOPK_ASSIGN_OR_RETURN(auto buf_a, dev.Alloc<E>(m1));
  MPTOPK_ASSIGN_OR_RETURN(auto buf_b,
                          dev.Alloc<E>(std::max<size_t>(g.Reduced(m1), 1)));
  GlobalSpan<E> a(buf_a), b(buf_b);
  MPTOPK_RETURN_NOT_OK(LaunchReducer(dev, in, n, a, k, /*unsorted=*/true, g));
  return ReduceRunsChain(dev, a, m1, b, a, out, k, g);
}

}  // namespace

template <typename E>
StatusOr<TopKResult<E>> BitonicTopKDevice(const simt::ExecCtx& dev,
                                          DeviceBuffer<E>& data, size_t n,
                                          size_t k,
                                          const BitonicOptions& opts) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  if (!IsPowerOfTwo(k)) {
    return Status::InvalidArgument(
        "bitonic top-k requires k to be a power of two (the BitonicTopK "
        "registry operator rounds up)");
  }
  if (n > data.size()) {
    return Status::InvalidArgument("n exceeds buffer size");
  }
  MPTOPK_ASSIGN_OR_RETURN(
      BitonicGeometry g, ResolveBitonicGeometry(dev.spec(), sizeof(E), k, opts));
  MPTOPK_ASSIGN_OR_RETURN(auto out_k, dev.Alloc<E>(k));
  if (opts.fuse_kernels) {
    MPTOPK_RETURN_NOT_OK(RunFused(dev, data, n, k, g, &out_k));
  } else {
    MPTOPK_RETURN_NOT_OK(RunUnfused(dev, data, n, k, opts, g, &out_k));
  }
  return ReadTopK(dev, out_k, k);
}

template <typename E>
StatusOr<TopKResult<E>> BitonicReduceRuns(const simt::ExecCtx& dev,
                                          DeviceBuffer<E>& runs, size_t m,
                                          size_t k,
                                          const BitonicOptions& opts) {
  if (k == 0 || m < k || m % k != 0) {
    return Status::InvalidArgument(
        "BitonicReduceRuns requires m to be a positive multiple of k");
  }
  if (!IsPowerOfTwo(k)) {
    return Status::InvalidArgument("k must be a power of two");
  }
  MPTOPK_ASSIGN_OR_RETURN(
      BitonicGeometry g, ResolveBitonicGeometry(dev.spec(), sizeof(E), k, opts));
  MPTOPK_ASSIGN_OR_RETURN(auto out_k, dev.Alloc<E>(k));
  // The reducers ping-pong between two buffers of the first reducer's
  // output size and never write `runs`: the engine's recovery path re-reads
  // them when this call fails.
  DeviceBuffer<E> aux_a, aux_b;
  if (m > g.tile) {
    MPTOPK_ASSIGN_OR_RETURN(aux_a, dev.Alloc<E>(g.Reduced(m)));
    MPTOPK_ASSIGN_OR_RETURN(aux_b, dev.Alloc<E>(g.Reduced(m)));
  }
  MPTOPK_RETURN_NOT_OK(ReduceRunsChain(dev, GlobalSpan<E>(runs), m,
                                       GlobalSpan<E>(aux_a),
                                       GlobalSpan<E>(aux_b),
                                       GlobalSpan<E>(out_k), k, g));
  return ReadTopK(dev, out_k, k);
}

template <typename E>
StatusOr<TopKResult<E>> BitonicTopK(const simt::ExecCtx& dev, const E* data, size_t n,
                                    size_t k, const BitonicOptions& opts) {
  MPTOPK_ASSIGN_OR_RETURN(auto buf, dev.Alloc<E>(n));
  MPTOPK_RETURN_NOT_OK(dev.CopyToDevice(buf, data, n));
  return BitonicTopKDevice(dev, buf, n, k, opts);
}

#define MPTOPK_INSTANTIATE_BITONIC(E, ...)                                   \
  template StatusOr<TopKResult<E>> BitonicTopKDevice<E>(                     \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t,                \
      const BitonicOptions&);                                                \
  template StatusOr<TopKResult<E>> BitonicTopK<E>(                           \
      const simt::ExecCtx&, const E*, size_t, size_t, const BitonicOptions&); \
  template StatusOr<TopKResult<E>> BitonicReduceRuns<E>(                     \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t,                \
      const BitonicOptions&);
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_INSTANTIATE_BITONIC)
#undef MPTOPK_INSTANTIATE_BITONIC

}  // namespace mptopk::gpu
