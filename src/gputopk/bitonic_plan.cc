#include "gputopk/bitonic_plan.h"

#include <string>

#include "gputopk/bitonic_topk.h"

namespace mptopk::gpu {

std::vector<BitonicWindow> PlanBitonicWindows(
    const std::vector<BitonicStep>& steps, int width_budget_bits) {
  const int wb = std::max(1, width_budget_bits);
  std::vector<BitonicWindow> windows;
  size_t i = 0;
  while (i < steps.size()) {
    // Maximal run with comparison-distance bit decreasing by exactly one.
    size_t j = i;
    while (j + 1 < steps.size() &&
           Log2Floor(steps[j + 1].inc) + 1 == Log2Floor(steps[j].inc)) {
      ++j;
    }
    const int run_hi = Log2Floor(steps[i].inc);
    const int run_lo = Log2Floor(steps[j].inc);
    // Absorb the whole run into the previous window if it fits the budget.
    if (!windows.empty()) {
      BitonicWindow& prev = windows.back();
      int lo = std::min(prev.lo_bit, run_lo);
      int hi = std::max(prev.hi_bit, run_hi);
      if (hi - lo + 1 <= wb) {
        prev.lo_bit = lo;
        prev.hi_bit = hi;
        for (size_t s = i; s <= j; ++s) prev.steps.push_back(steps[s]);
        i = j + 1;
        continue;
      }
    }
    // Low-aligned split: a short leading remainder window (strided), then
    // full-width windows ending at distance 1 (contiguous chunks,
    // conflict-free under padding).
    size_t len = j - i + 1;
    size_t lead = len % wb;
    size_t pos = i;
    auto emit = [&](size_t count) {
      BitonicWindow w{Log2Floor(steps[pos + count - 1].inc),
                      Log2Floor(steps[pos].inc),
                      {}};
      for (size_t s = pos; s < pos + count; ++s) w.steps.push_back(steps[s]);
      windows.push_back(std::move(w));
      pos += count;
    };
    if (lead > 0) emit(lead);
    while (pos <= j) emit(wb);
    i = j + 1;
  }
  return windows;
}

StatusOr<BitonicGeometry> ResolveBitonicGeometry(const simt::DeviceSpec& spec,
                                                 size_t elem_bytes, size_t k,
                                                 const BitonicOptions& opts) {
  BitonicGeometry g;
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
  for (;; g.nt >>= 1) {
    g.tile = static_cast<size_t>(g.nt) * g.B;
    if (g.SharedElems(g.tile) * elem_bytes <= spec.shared_mem_per_block) break;
    if (g.nt == 32) {
      return Status::ResourceExhausted(
          "bitonic tile does not fit in shared memory even at block_dim=32");
    }
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

}  // namespace mptopk::gpu
