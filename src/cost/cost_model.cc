#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/bits.h"
#include "gputopk/bitonic_plan.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/bucket_select.h"
#include "gputopk/hybrid_topk.h"
#include "gputopk/kernel_util.h"
#include "gputopk/perthread_topk.h"
#include "gputopk/radix_sort.h"
#include "simt/timing_model.h"

namespace mptopk::cost {
namespace {

constexpr double kMs = 1e3;

double Bg(const simt::DeviceSpec& spec) { return spec.global_bw_gbps * 1e9; }
/// Global bandwidth available to one stream of `w`: the device pipe divided
/// by the expected number of concurrently executing streams. Shared-memory
/// bandwidth (Bs) is a per-SM resource and is not divided.
double Bg(const simt::DeviceSpec& spec, const Workload& w) {
  return Bg(spec) / GlobalContention(w);
}
double Bs(const simt::DeviceSpec& spec) { return spec.shared_bw_gbps * 1e9; }
double LaunchMs(const simt::DeviceSpec& spec) {
  return spec.kernel_launch_overhead_us * 1e-3;
}
/// One kernel: `traffic_s` seconds of traffic plus its launch overhead.
double KernelMs(const simt::DeviceSpec& spec, double traffic_s) {
  return traffic_s * kMs + LaunchMs(spec);
}

}  // namespace

double GlobalContention(const Workload& w) {
  return w.concurrent_streams > 1 ? static_cast<double>(w.concurrent_streams)
                                  : 1.0;
}

std::vector<double> RadixSelectEtas(const Workload& w) {
  const int passes = static_cast<int>(w.key_size);
  std::vector<double> etas(passes);
  switch (w.dist) {
    case Distribution::kBucketKiller:
      // Each pass eliminates exactly one key: the reduction check never
      // triggers the skip, so every pass reads AND rewrites ~the whole
      // dataset -- degrading to sort cost (paper Section 6.4).
      std::fill(etas.begin(), etas.end(), 1.0 - 1e-9);
      break;
    case Distribution::kUniform:
    case Distribution::kIncreasing:
    case Distribution::kDecreasing:
      if (w.key_size == 4 && w.elem_size >= 4) {
        // U(0,1) float keys: the top MSD bucket (exponent of [0.5, 1))
        // holds about half the data; subsequent digits are uniform.
        etas[0] = 0.5;
        for (int i = 1; i < passes; ++i) etas[i] = 1.0 / 256;
      } else {
        etas.assign(passes, 1.0 / 256);
      }
      if (w.key_size == 8) {
        // U(0,1) doubles: the first byte is shared by ~all values (skip);
        // the second byte splits the exponent tail ~1/64.
        etas[0] = 1.0;
        etas[1] = 1.0 / 64;
        for (int i = 2; i < passes; ++i) etas[i] = 1.0 / 256;
      }
      break;
  }
  return etas;
}

double RadixSelectCostMs(const simt::DeviceSpec& spec, const Workload& w) {
  const double bg = Bg(spec, w);
  const double k = static_cast<double>(w.k);
  double total_s = 0;
  double candidates = static_cast<double>(w.n);
  int histograms = 0;
  int clusters = 0;
  // One pass per key byte until the candidates are the top-k, which the
  // kernel then copies out.
  for (double eta : RadixSelectEtas(w)) {
    const double d_bytes = candidates * w.elem_size;
    // Threads of the kernels' partition of the candidates.
    const size_t count = static_cast<size_t>(std::ceil(candidates));
    const double nt =
        gpu::SelectPartition(count, w.elem_size).grid * gpu::kSelectBlockDim;
    // T_i1: read input, write 16 ints of digit counts per thread.
    const double t1 = d_bytes / bg + 16.0 * 4.0 * nt / bg;
    // T_i2: prefix sum over the counts.
    const double t2 = 2.0 * 16.0 * 4.0 * nt / bg;
    // T_i3: cluster pass, skipped when no reduction.
    const bool cluster = eta < 1.0;
    const double t3 = cluster ? d_bytes / bg + eta * d_bytes / bg : 0.0;
    total_s += t1 + t2 + t3;
    ++histograms;
    clusters += cluster;
    candidates = std::max(k, candidates * eta);
    if (candidates <= k) break;
  }
  return total_s * kMs +
         gpu::SelectLaunches(histograms, clusters) * LaunchMs(spec);
}

BitonicCostBreakdown BitonicTopKCost(const simt::DeviceSpec& spec,
                                     const Workload& w) {
  BitonicCostBreakdown out;
  // The kernels' own geometry: infeasible exactly when they reject it.
  const auto geometry = gpu::ResolveBitonicGeometry(spec, w.elem_size, w.k,
                                                    gpu::BitonicOptions{});
  if (!geometry.ok()) {
    out.total_ms = -1.0;
    return out;
  }
  const gpu::BitonicGeometry& g = *geometry;
  const double bg = Bg(spec, w);
  const double bs = Bs(spec);
  const size_t es = w.elem_size;
  const int wb = g.WindowBudget(g.B);

  // Weighted shared accesses per element for a window list: 2 accesses
  // (read + write), doubled for strided windows (residual conflicts).
  auto window_cost = [&](const std::vector<gpu::BitonicWindow>& ws) {
    double c = 0;
    for (const auto& win : ws) c += win.strided() ? 4.0 : 2.0;
    return c;
  };
  const gpu::BitonicNetwork net(w.k);
  const double local_cost =
      window_cost(gpu::PlanBitonicWindows(net.local_sort, wb));
  const double rebuild_cost =
      window_cost(gpu::PlanBitonicWindows(net.rebuild, wb));
  // Shared accesses of one op of a fused kernel's reduction schedule, per
  // element the kernel loads: a sort's windows or a merge's 1.5 accesses
  // for each of the op's m elements.
  auto op_cost = [&](const gpu::BitonicOp& op) {
    const double per_m = op.kind == gpu::BitonicOp::kLocalSort ? local_cost
                         : op.kind == gpu::BitonicOp::kRebuild ? rebuild_cost
                                                               : 1.5;
    return per_m * (static_cast<double>(op.m) / static_cast<double>(g.tile));
  };

  // SortReducer shared traffic per input element, in accesses: load(1) +
  // its schedule + store(1/2^merges).
  const size_t opb = g.OutPerBlock();
  double per_elem = 1.0;
  for (const auto& op : gpu::BitonicReduceSchedule(g.tile, opb, true)) {
    per_elem += op_cost(op);
  }
  per_elem += static_cast<double>(opb) / static_cast<double>(g.tile);
  out.shared_traffic_in_d = per_elem;

  // The first kernel is the SortReducer or, when the input fits one tile,
  // the final kernel alone, which runs the same schedule and writes k.
  const bool one_tile = w.n <= g.tile;
  const double in_bytes = static_cast<double>(w.n) * es;
  const double out_bytes =
      static_cast<double>(one_tile ? w.k : g.Reduced(w.n)) * es;
  out.sort_reducer_global_ms = (in_bytes + out_bytes) / bg * kMs;
  out.sort_reducer_shared_ms = per_elem * in_bytes / bs * kMs;
  out.total_ms =
      std::max(out.sort_reducer_global_ms, out.sort_reducer_shared_ms) +
      LaunchMs(spec);
  if (one_tile) return out;

  // BitonicReducer chain + final kernel, walked as ReduceRunsChain launches
  // it: the reducer schedule is (rebuild, merge) pairs, each pair priced in
  // one addition.
  const int red = 1 << g.merges;  // per-kernel reduction factor
  double reducer_per_elem = 1.0 + 1.0 / red;  // load + store
  const auto reducer_ops = gpu::BitonicReduceSchedule(g.tile, opb, false);
  for (size_t i = 0; i + 1 < reducer_ops.size(); i += 2) {
    reducer_per_elem += op_cost(reducer_ops[i]) + op_cost(reducer_ops[i + 1]);
  }
  for (size_t m = g.Reduced(w.n); m > g.tile; m = g.Reduced(m)) {
    const double bytes = static_cast<double>(m) * es;
    const double tg = (bytes + static_cast<double>(g.Reduced(m)) * es) / bg;
    const double ts = reducer_per_elem * bytes / bs;
    out.reducer_tail_ms += KernelMs(spec, std::max(tg, ts));
  }
  // Final single-block kernel: dominated by launch overhead at realistic n.
  out.reducer_tail_ms += LaunchMs(spec);
  out.total_ms += out.reducer_tail_ms;
  return out;
}

double BitonicTopKCostMs(const simt::DeviceSpec& spec, const Workload& w) {
  return BitonicTopKCost(spec, w).total_ms;
}

double SortCostMs(const simt::DeviceSpec& spec, const Workload& w) {
  const int passes = gpu::RadixSortPasses(w.key_size);
  const double d_bytes = static_cast<double>(w.n) * w.elem_size;
  // Per pass: histogram read + scatter read + scatter write, global-bound
  // (shared staging traffic ~8 accesses/elem stays under the global time).
  const double global_s = passes * 3.0 * d_bytes / Bg(spec, w);
  const double shared_s =
      passes * 8.0 * d_bytes / Bs(spec);
  return std::max(global_s, shared_s) * kMs +
         gpu::SortTopKLaunches(w.key_size) * LaunchMs(spec);
}

double BucketSelectCostMs(const simt::DeviceSpec& spec, const Workload& w) {
  const double bg = Bg(spec, w);
  const double bs = Bs(spec);
  double total_s = static_cast<double>(w.n) * w.elem_size / bg;  // min/max
  int passes = 0;
  if (w.k > 1) {
    // The kernel passes until the candidates are the top-k or the key-bit
    // range collapses. Bucket-killer keys differ from the common key in one
    // byte each, the top one included: the candidates never shrink, and the
    // range spans the other bytes. Other keys may span the whole key.
    const bool killer = w.dist == Distribution::kBucketKiller;
    const uint64_t span = killer ? uint64_t{1} << (8 * (w.key_size - 1))
                                 : ~uint64_t{0} >> (64 - 8 * w.key_size);
    const int max_passes = gpu::BucketRangePasses(span);
    const double eta = killer ? 1.0 : 1.0 / gpu::kBucketSelectBuckets;
    double candidates = static_cast<double>(w.n);
    while (candidates > static_cast<double>(w.k) && passes < max_passes) {
      const double bytes = candidates * w.elem_size;
      // Histogram read + cluster read&write, plus heavily contended 16-bin
      // shared atomics (approx. 4 colliding lanes * cost factor 4 -> ~16
      // bank-cycles per 32 elements).
      const double t_global = (2.0 + eta) * bytes / bg;
      const double t_atomics =
          candidates * 16.0 * spec.shared_atomic_cost_factor / bs;
      total_s += t_global + t_atomics;
      candidates = std::max(static_cast<double>(w.k), candidates * eta);
      ++passes;
    }
  }
  return total_s * kMs +
         gpu::BucketSelectLaunches(w.k, passes) * LaunchMs(spec);
}

double PerThreadCostMs(const simt::DeviceSpec& spec, const Workload& w) {
  // The kernel's own passes; the block shrinks with k to fit the heaps in
  // shared memory, infeasible below 32 threads (paper Section 4.1).
  const auto plan = gpu::PlanPerThreadPasses(spec, w.elem_size, w.n, w.k,
                                             /*use_registers=*/false);
  if (!plan.ok()) return -1.0;
  const int nt = plan->nt;

  const double bg = Bg(spec, w);
  const double bs = Bs(spec);
  const int log_k = std::max(1, Log2Ceil(w.k));
  // Warp slots per heap update: ~2 accesses per sift level plus the root
  // write, inflated ~1.5x by SIMT misalignment of divergent lanes.
  const double update_slots = 1.5 * (2.0 * log_k + 1.0);
  // Bytes one warp-wide slot of shared accesses moves.
  const double slot_bytes = spec.shared_mem_banks * spec.bank_width_bytes;

  double total_s = 0;
  double m = static_cast<double>(w.n);
  for (const int grid : plan->grids) {
    double threads = static_cast<double>(grid) * nt;
    simt::Occupancy occ = simt::ComputeOccupancy(
        spec, {.grid_dim = grid, .block_dim = nt,
               .shared_bytes_per_block = w.k * w.elem_size * nt});
    const double eff = std::max(occ.bw_efficiency, 1e-3);
    const double sh_eff = std::max(
        occ.shared_efficiency * occ.sm_utilization, 1e-3);

    double per_thread = m / threads;
    double inserts;
    switch (w.dist) {
      case Distribution::kIncreasing:
        inserts = per_thread;  // every element updates the heap
        break;
      case Distribution::kDecreasing:
        inserts = static_cast<double>(w.k);
        break;
      default:
        // Expected updates of a random stream: k * (ln(m/k) + 1).
        inserts = w.k * (std::log(std::max(1.0, per_thread / w.k)) + 1.0);
    }
    const double t_global = m * w.elem_size / (bg * eff);
    const double probe_slots = m / 32.0;
    const double insert_slots = threads / 32.0 * inserts * update_slots;
    const double t_shared = (probe_slots + insert_slots) * slot_bytes /
                            (bs * sh_eff);
    // Dependent-latency exposure of the sift chains (matches the
    // simulator's dependent_stall_cycles pricing).
    const double dep_cycles = threads * inserts * 2.0 * log_k *
                              spec.dependent_access_latency_cycles;
    const double t_dep =
        dep_cycles / (spec.clock_ghz * 1e9) /
        (spec.num_sms * std::max(occ.sm_utilization, 1e-3) *
         std::max(1.0, static_cast<double>(occ.resident_warps)));
    total_s += std::max(t_global, t_shared) + t_dep;
    m = threads * w.k;
  }
  // Final single-block kernel: one warp reads m elements, then a serial
  // merge of the plan->ft surviving heaps.
  total_s += m * w.elem_size / (bg / 16.0) +
             plan->ft * static_cast<double>(w.k) * update_slots /
                 (bs / slot_bytes / 96.0);
  return total_s * kMs + plan->launches() * LaunchMs(spec);
}

double HybridCostMs(const simt::DeviceSpec& spec, const Workload& w) {
  // Every path ends in bitonic top-k at this k, so it fits when that does.
  const double bitonic_ms = BitonicTopKCostMs(spec, w);
  if (bitonic_ms < 0) return -1.0;
  const gpu::HybridPlan plan = gpu::PlanHybrid(w.n, w.k);
  if (!plan.sampled) return bitonic_ms;
  const double bg = Bg(spec, w);
  // hybrid_sample reads one sector per strided element, and bitonic top-k
  // over the sample finds the pivot.
  Workload sample = w;
  sample.n = plan.sample;
  sample.k = NextPowerOfTwo(plan.pivot_rank);
  const double pivot_ms =
      KernelMs(spec, plan.sample * spec.sector_bytes / bg) +
      BitonicTopKCostMs(spec, sample);
  // hybrid_threshold_filter reads the input and writes the expected
  // pivot_rank * n / s candidates, and bitonic top-k over them finishes. A
  // non-discriminating pivot (bucket killer) overflows the candidate cap:
  // the kernel falls back to bitonic top-k over the input.
  Workload rest = w;
  const size_t expected = CeilDiv(plan.pivot_rank * w.n, plan.sample);
  const bool overflow = w.dist == Distribution::kBucketKiller ||
                        expected >= plan.candidate_cap;
  if (!overflow) rest.n = expected;
  const double written = overflow ? 0.0 : static_cast<double>(expected);
  return pivot_ms +
         KernelMs(spec, (static_cast<double>(w.n) + written) * w.elem_size /
                            bg) +
         BitonicTopKCostMs(spec, rest);
}

}  // namespace mptopk::cost
