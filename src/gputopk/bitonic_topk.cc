// Implementation of bitonic top-k (see bitonic_topk.h for the algorithm
// description). The same step machinery drives every optimization level:
//
//  * a Step {dir, inc} is one compare-exchange round of the bitonic network
//    (paper Algorithms 2 and 4): pairs (i, i+inc) with (i & inc) == 0,
//    ascending when (i & dir) == 0;
//  * consecutive steps whose comparison distances fit a bit-window of width
//    w are executed as one "combined step": each thread stages 2^w elements
//    in registers, applies all comparisons, and writes once (Section 4.3,
//    "Combining/Sequentializing Multiple Steps");
//  * merge is the pairwise-max reduction that halves the candidate set
//    (Algorithm 3) — the surviving half is bitonic, which is the paper's key
//    insight.
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
                        Step step, const Geometry<E>& g) {
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
                         GlobalSpan<E> out, size_t k, const Geometry<E>& g) {
  return LaunchGridStride(
      dev, "bitonic_global_merge", m / 2, g.nt, 4096, [&](Thread& t, size_t j) {
        size_t i = (j / k) * 2 * k + (j % k);
        E a = in.Read(t, i);
        E b = in.Read(t, i + k);
        out.Write(t, j, ElementTraits<E>::Less(a, b) ? b : a);
      });
}

// Shared-memory staged (but unfused) operator: runs `steps` over tiles of
// `data[0, m)`, staging each tile in shared memory. Valid only while every
// step's comparison distance stays within a tile (true for local sort and
// rebuild, whose distances are < k <= tile/2).
template <typename E>
Status LaunchStagedSteps(const simt::ExecCtx& dev, GlobalSpan<E> data, size_t m,
                         const std::vector<Step>& steps, const char* name,
                         const Geometry<E>& g) {
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
                     GlobalSpan<E> work, size_t p2, const Geometry<E>& g) {
  const E sentinel = ElementTraits<E>::LowestSentinel();
  return LaunchGridStride(dev, "bitonic_copy_pad", p2, g.nt, 4096,
                          [&](Thread& t, size_t i) {
                            work.Write(t, i, i < n ? in.Read(t, i) : sentinel);
                          });
}

// The global-memory pipeline used by both the fully naive variant and the
// shared-staged (unfused) variant.
template <typename E>
Status RunUnfused(const simt::ExecCtx& dev, DeviceBuffer<E>& data, size_t n, size_t k,
                  const BitonicOptions& opts, const Geometry<E>& g,
                  DeviceBuffer<E>* out_k) {
  const size_t p2 = NextPowerOfTwo(std::max(n, 2 * k));
  MPTOPK_ASSIGN_OR_RETURN(auto work_buf, dev.Alloc<E>(p2));
  MPTOPK_ASSIGN_OR_RETURN(auto aux_buf, dev.Alloc<E>(p2 / 2));
  GlobalSpan<E> in(data);
  GlobalSpan<E> work(work_buf);
  GlobalSpan<E> aux(aux_buf);
  MPTOPK_RETURN_NOT_OK(LaunchCopyPad(dev, in, n, work, p2, g));

  const auto local_steps = LocalSortSteps(static_cast<uint32_t>(k));
  const auto rebuild_steps = RebuildSteps(static_cast<uint32_t>(k));
  if (opts.use_shared_memory) {
    MPTOPK_RETURN_NOT_OK(
        LaunchStagedSteps(dev, work, p2, local_steps, "bitonic_local_sort", g));
  } else {
    for (const Step& st : local_steps) {
      MPTOPK_RETURN_NOT_OK(LaunchGlobalStep(dev, work, p2, st, g));
    }
  }
  size_t m = p2;
  GlobalSpan<E> cur = work, other = aux;
  while (m > k) {
    MPTOPK_RETURN_NOT_OK(LaunchGlobalMerge(dev, cur, m, other, k, g));
    std::swap(cur, other);
    m >>= 1;
    const bool last = m == k;
    // Rebuild the bitonic runs (always needed before output; mid-pipeline it
    // restores sorted runs for the next merge).
    if (opts.use_shared_memory) {
      MPTOPK_RETURN_NOT_OK(LaunchStagedSteps(dev, cur, m, rebuild_steps,
                                             "bitonic_rebuild", g));
    } else {
      for (const Step& st : rebuild_steps) {
        MPTOPK_RETURN_NOT_OK(LaunchGlobalStep(dev, cur, m, st, g));
      }
    }
    if (last) break;
  }
  // cur[0, k) now holds the ascending top-k run; emit descending.
  GlobalSpan<E> out(*out_k);
  return LaunchGridStride(dev, "bitonic_emit", k, g.nt, 1,
                          [&](Thread& t, size_t i) {
                            out.Write(t, i, cur.Read(t, k - 1 - i));
                          });
}

// The fused pipeline: SortReducer, BitonicReducer*, FinalReduce.
template <typename E>
Status RunFused(const simt::ExecCtx& dev, DeviceBuffer<E>& data, size_t n, size_t k,
                const Geometry<E>& g, DeviceBuffer<E>* out_k) {
  GlobalSpan<E> in(data);
  GlobalSpan<E> out(*out_k);
  if (n <= g.tile) {
    return LaunchFinalReduce(dev, in, n, out, k, /*unsorted=*/true, g);
  }
  const size_t opb = g.tile >> g.merges;
  const size_t m1 = CeilDiv(n, g.tile) * opb;
  const size_t m2 = CeilDiv(m1, g.tile) * opb;
  MPTOPK_ASSIGN_OR_RETURN(auto buf_a, dev.Alloc<E>(m1));
  MPTOPK_ASSIGN_OR_RETURN(auto buf_b, dev.Alloc<E>(std::max<size_t>(m2, 1)));
  GlobalSpan<E> a(buf_a), b(buf_b);

  MPTOPK_RETURN_NOT_OK(LaunchSortReducer(dev, in, n, a, k, g));
  size_t m = m1;
  while (m > g.tile) {
    size_t next = CeilDiv(m, g.tile) * opb;
    MPTOPK_RETURN_NOT_OK(LaunchBitonicReducer(dev, a, m, b, k, g));
    std::swap(a, b);
    m = next;
  }
  return LaunchFinalReduce(dev, a, m, out, k, /*unsorted=*/false, g);
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
  MPTOPK_ASSIGN_OR_RETURN(Geometry<E> g,
                          ResolveGeometry<E>(dev.spec(), k, opts));
  MPTOPK_ASSIGN_OR_RETURN(auto out_k, dev.Alloc<E>(k));
  if (opts.fuse_kernels) {
    MPTOPK_RETURN_NOT_OK(RunFused(dev, data, n, k, g, &out_k));
  } else {
    MPTOPK_RETURN_NOT_OK(RunUnfused(dev, data, n, k, opts, g, &out_k));
  }

  TopKResult<E> result;
  result.items.resize(k);
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(result.items.data(), out_k, k));
  return result;
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
  MPTOPK_ASSIGN_OR_RETURN(Geometry<E> g,
                          ResolveGeometry<E>(dev.spec(), k, opts));
  MPTOPK_ASSIGN_OR_RETURN(auto out_k, dev.Alloc<E>(k));
  GlobalSpan<E> out(out_k);
  GlobalSpan<E> a(runs);
  const size_t opb = g.tile >> g.merges;
  DeviceBuffer<E> aux_a, aux_b;
  bool aux_ready = false;
  bool write_to_a = true;  // ping-pong parity
  size_t cur = m;
  while (cur > g.tile) {
    size_t next = CeilDiv(cur, g.tile) * opb;
    if (!aux_ready) {
      MPTOPK_ASSIGN_OR_RETURN(aux_a, dev.Alloc<E>(next));
      MPTOPK_ASSIGN_OR_RETURN(aux_b, dev.Alloc<E>(next));
      aux_ready = true;
    }
    GlobalSpan<E> dst =
        write_to_a ? GlobalSpan<E>(aux_a) : GlobalSpan<E>(aux_b);
    MPTOPK_RETURN_NOT_OK(LaunchBitonicReducer(dev, a, cur, dst, k, g));
    a = dst;
    write_to_a = !write_to_a;
    cur = next;
  }
  MPTOPK_RETURN_NOT_OK(
      LaunchFinalReduce(dev, a, cur, out, k, /*unsorted=*/false, g));
  TopKResult<E> result;
  result.items.resize(k);
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(result.items.data(), out_k, k));
  return result;
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
