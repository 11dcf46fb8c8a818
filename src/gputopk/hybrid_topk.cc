// Sampling-based hybrid top-k (see hybrid_topk.h). Pipeline:
//
//   1. gather a small strided sample (one sector per element, ~free);
//   2. exact bitonic top-m of the sample (tiny) -> pivot key chosen so the
//      expected number of full-data elements >= pivot is a few k;
//   3. one threshold-filter pass over the input: elements >= pivot are
//      compacted via warp-ballot-style compaction (flags and ranks live in
//      registers; one shared slot per warp, one global reservation per
//      block chunk) -- so the pass costs ~one coalesced read plus the
//      (tiny) matched writes;
//   4. bitonic top-k over the candidates.
//
// Correctness does not depend on sampling luck: if fewer than k elements
// reach the threshold, or the pivot fails to shrink the input (ties,
// adversarial distributions), the algorithm falls back to plain bitonic
// over everything.
#include "gputopk/hybrid_topk.h"

#include <algorithm>

#include "common/bits.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::Thread;

constexpr int kBlockDim = 256;
constexpr int kMaxGrid = 128;
constexpr size_t kSampleSize = 16384;
// Fall back to plain bitonic when the threshold filter would keep more than
// this fraction of the input (non-discriminating pivot).
constexpr double kMaxCandidateFraction = 0.25;

template <typename E>
bool KeyAtLeast(const E& e, typename ElementTraits<E>::Key pivot) {
  return !(ElementTraits<E>::PrimaryKey(e) < pivot);
}

// Strided sample gather: out[i] = in[i * stride]. Strided reads cost one
// sector each, which the tracer accounts.
template <typename E>
Status LaunchSampleGather(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                          GlobalSpan<E> out, size_t s, size_t stride) {
  return LaunchGridStride(dev, "hybrid_sample", s, kBlockDim, kMaxGrid,
                          [&](Thread& t, size_t i) {
                            out.Write(t, i,
                                      in.Read(t, std::min(n - 1, i * stride)));
                          });
}

// Threshold filter with warp-ballot compaction: one coalesced read per
// element; match flags, per-warp popcounts and intra-warp ranks are
// register/ballot work (untraced); per chunk of block_dim elements the
// block spends one shared slot per warp plus one global counter
// reservation, then matched lanes write out compacted.
template <typename E>
Status LaunchThresholdFilter(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t n,
                             typename ElementTraits<E>::Key pivot,
                             GlobalSpan<E> out, size_t out_capacity,
                             GlobalSpan<uint32_t> counter) {
  const TilePartition part(n, kBlockDim, kMaxGrid);
  const int warps = kBlockDim / 32;
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kBlockDim,
       .name = "hybrid_threshold_filter"},
      [&](Block& blk) {
        // Ballot emulation: flags/values per lane live in registers.
        E* vals = blk.ThreadScratch<E>(1);
        uint8_t* flags = blk.ThreadScratch<uint8_t>(1);
        auto warp_base = blk.AllocShared<uint32_t>(warps + 1);

        const size_t range_hi = part.hi(blk.block_idx());
        for (size_t base = part.lo(blk.block_idx()); base < range_hi;
             base += kBlockDim) {
          size_t count = std::min<size_t>(kBlockDim, range_hi - base);
          blk.ForEachThread([&](Thread& t) {
            bool m = false;
            if (static_cast<size_t>(t.tid) < count) {
              E e = in.Read(t, base + t.tid);
              m = KeyAtLeast(e, pivot);
              vals[t.tid] = e;
            }
            flags[t.tid] = m ? 1 : 0;
          });
          blk.Sync();
          // Lane 0 publishes each warp's popcount (__ballot + __popc on
          // hardware): one shared write per warp. A separate region so
          // every lane's flag is set first.
          blk.ForEachThread([&](Thread& t) {
            if (t.lane == 0) {
              uint32_t c = 0;
              int warp_lo = t.warp * 32;
              for (int l = warp_lo;
                   l < std::min(warp_lo + 32, kBlockDim); ++l) {
                c += flags[l];
              }
              warp_base.Write(t, t.warp, c);
            }
          });
          blk.Sync();
          blk.ForEachThread([&](Thread& t) {
            if (t.tid != 0) return;
            // Scan the per-warp counts and reserve a global range.
            uint32_t running = 0;
            for (int w = 0; w < warps; ++w) {
              uint32_t c = warp_base.Read(t, w);
              warp_base.Write(t, w, running);
              running += c;
            }
            uint32_t g = running == 0
                             ? 0u
                             : counter.AtomicAdd(t, 0, running);
            warp_base.Write(t, warps, g);
          });
          blk.Sync();
          blk.ForEachThread([&](Thread& t) {
            if (flags[t.tid] == 0) return;
            // Intra-warp rank = popcount of lower-lane flags (register
            // work on hardware).
            uint32_t rank = 0;
            for (int l = t.warp * 32; l < t.tid; ++l) rank += flags[l];
            uint32_t pos = warp_base.Read(t, warps) +
                           warp_base.Read(t, t.warp) + rank;
            if (pos < out_capacity) {
              out.Write(t, pos, vals[t.tid]);
            }
          });
          blk.Sync();
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

}  // namespace

HybridPlan PlanHybrid(size_t n, size_t k) {
  HybridPlan plan;
  plan.sample = std::min(n, kSampleSize);
  // The pivot rank in the sample: expected candidates = m * n/s; aim for a
  // few k of headroom so unlucky samples still cover the top-k.
  plan.pivot_rank = std::min(
      plan.sample / 2,
      std::max<size_t>(32, CeilDiv(4 * k * plan.sample,
                                   std::max(n, plan.sample))));
  // Too small (or k too large relative to n) for sampling to pay off.
  plan.sampled = n > 4 * plan.sample && plan.pivot_rank < plan.sample / 2;
  plan.candidate_cap = std::max<size_t>(
      2 * k, static_cast<size_t>(kMaxCandidateFraction *
                                 static_cast<double>(n)));
  return plan;
}

template <typename E>
StatusOr<TopKResult<E>> HybridTopKDevice(const simt::ExecCtx& dev,
                                         DeviceBuffer<E>& data, size_t n,
                                         size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  if (!IsPowerOfTwo(k)) {
    return Status::InvalidArgument("hybrid top-k requires power-of-two k");
  }
  GlobalSpan<E> in(data);
  const HybridPlan plan = PlanHybrid(n, k);
  if (!plan.sampled) return BitonicTopKDevice(dev, data, n, k);

  // 1+2: sample and find the pivot key.
  const size_t s = plan.sample;
  MPTOPK_ASSIGN_OR_RETURN(auto sample, dev.Alloc<E>(s));
  GlobalSpan<E> sample_span(sample);
  MPTOPK_RETURN_NOT_OK(LaunchSampleGather(dev, in, n, sample_span, s, n / s));
  MPTOPK_ASSIGN_OR_RETURN(
      auto sample_top,
      BitonicTopKDevice(dev, sample, s, NextPowerOfTwo(plan.pivot_rank)));
  const auto pivot =
      ElementTraits<E>::PrimaryKey(sample_top.items.back());

  // 3: threshold filter.
  const size_t cap = plan.candidate_cap;
  MPTOPK_ASSIGN_OR_RETURN(auto cand, dev.Alloc<E>(cap));
  MPTOPK_ASSIGN_OR_RETURN(auto counter, dev.Alloc<uint32_t>(1));
  counter.host_data()[0] = 0;
  GlobalSpan<E> cand_span(cand);
  GlobalSpan<uint32_t> cnt(counter);
  MPTOPK_RETURN_NOT_OK(
      LaunchThresholdFilter(dev, in, n, pivot, cand_span, cap, cnt));
  uint32_t c = 0;
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(&c, counter, 1));

  if (c < k || c >= cap) {
    // Unlucky sample (too few candidates) or non-discriminating pivot
    // (ties / adversarial data overflowing the cap): robust fallback.
    return BitonicTopKDevice(dev, data, n, k);
  }

  // 4: finish on the candidates.
  return BitonicTopKDevice(dev, cand, c, k);
}

#define MPTOPK_INSTANTIATE_HYBRID(E, ...)               \
  template StatusOr<TopKResult<E>> HybridTopKDevice<E>( \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t);
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_INSTANTIATE_HYBRID)
#undef MPTOPK_INSTANTIATE_HYBRID

}  // namespace mptopk::gpu
