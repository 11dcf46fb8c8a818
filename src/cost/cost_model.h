// Analytical cost models (paper Section 7) for the two best-performing
// algorithms, Radix Select and Bitonic Top-K, plus coarser extension models
// for Sort, Bucket Select and PerThread used by the planner.
//
// The models use the paper's hardware parameters: global bandwidth B_G,
// shared bandwidth B_S, key size w, input size D and thread count n_t, and
// follow the paper's structure:
//
//   Radix Select, pass i (Section 7.1):
//     T_i1 = D_i/B_G + 16*4*n_t/B_G        (read + per-thread digit counts)
//     T_i2 = 2*16*4*n_t/B_G                (prefix sum)
//     T_i3 = D_i/B_G + eta_i * D_i/B_G     (cluster; skipped when eta_i = 1)
//
//   Bitonic Top-K (Section 7.2), per fused kernel:
//     T_g = D_in/B_G + D_out/B_G           (global traffic)
//     T_k = sum_i delta_i * (D_i + D_o)/B_S (shared traffic, with per-step
//                                            bank conflict factors delta_i)
//     T   = max(T_g, T_k)
//
// Where each model gets its plan: each prices the launches its kernels
// make, one overhead each, from the gputopk definitions the kernels read.
//
//  * Sort: RadixSortPasses and SortTopKLaunches (radix_sort.h).
//  * Radix Select: SelectPartition sizes each pass's threads and
//    SelectLaunches counts fill + histogram per pass, fill + cluster per
//    pass that reduces, one copy-out (kernel_util.h).
//  * Bucket Select: BucketRangePasses bounds the passes (the key-bit range
//    shrinks 16x per pass) and BucketSelectLaunches adds min/max and the
//    k = 1 gather (bucket_select.h).
//  * Bitonic Top-K: ResolveBitonicGeometry, BitonicReduceSchedule and the
//    register windows (bitonic_plan.h); the reducer chain walks
//    BitonicGeometry::Reduced, and one tile runs the final kernel only. Its
//    shared-traffic term sums the schedule's ops with delta = 1 for
//    contiguous windows and delta = 2 for strided lead windows (the
//    measured residual conflict level after padding + chunk permutation).
//  * PerThread: PlanPerThreadPasses (perthread_topk.h), every pass's grid
//    and block size and PerThreadPlan::launches().
//  * Hybrid: PlanHybrid (hybrid_topk.h); its two BitonicTopKDevice calls
//    are priced by the bitonic model, so it fits exactly when bitonic
//    top-k does at the same k.
#ifndef MPTOPK_COST_COST_MODEL_H_
#define MPTOPK_COST_COST_MODEL_H_

#include <cstddef>
#include <vector>

#include "common/distributions.h"
#include "simt/device_spec.h"

namespace mptopk::cost {

/// Workload description shared by all models.
struct Workload {
  size_t n = 0;          ///< number of elements
  size_t k = 0;          ///< result size
  size_t elem_size = 4;  ///< bytes per element (key [+ payload])
  size_t key_size = 4;   ///< bytes of the radix key
  Distribution dist = Distribution::kUniform;
  /// Streams expected to execute concurrently with this query (>= 1).
  /// Global memory bandwidth is shared across streams, so every
  /// global-bandwidth-bound term scales by this factor while shared-memory
  /// terms (a per-SM resource) do not — which shifts the planner toward
  /// shared-memory-bound algorithms (bitonic) under heavy batching.
  int concurrent_streams = 1;
};

/// Effective global-bandwidth divisor for `w` (>= 1).
double GlobalContention(const Workload& w);

/// Per-pass candidate-survival fractions eta_i for radix select under the
/// given distribution (uniform ints: 1/256 per pass; uniform U(0,1) floats:
/// exponent clustering keeps eta_0 high; bucket killer: eta = 1 with the
/// clustering pass skipped).
std::vector<double> RadixSelectEtas(const Workload& w);

/// Predicted milliseconds for radix-select top-k (paper Section 7.1).
double RadixSelectCostMs(const simt::DeviceSpec& spec, const Workload& w);

/// Predicted milliseconds for bitonic top-k with all optimizations
/// (paper Section 7.2). Also exposes the component terms for inspection.
/// total_ms is negative, and the terms zero, when the kernels reject the
/// geometry (two k-runs do not fit one tile).
struct BitonicCostBreakdown {
  /// Traffic of the first kernel: the SortReducer, or the final kernel
  /// when the input fits one tile and nothing else runs.
  double sort_reducer_global_ms = 0;
  double sort_reducer_shared_ms = 0;
  double reducer_tail_ms = 0;  // BitonicReducer chain + final kernel
  double total_ms = 0;
  /// Shared traffic of the SortReducer in units of D (the paper quotes
  /// 17.5*D/B_S for k=32).
  double shared_traffic_in_d = 0;
};
BitonicCostBreakdown BitonicTopKCost(const simt::DeviceSpec& spec,
                                     const Workload& w);
double BitonicTopKCostMs(const simt::DeviceSpec& spec, const Workload& w);

/// Extension models (not in the paper; used by the planner so every
/// algorithm has a prediction).
double SortCostMs(const simt::DeviceSpec& spec, const Workload& w);
double BucketSelectCostMs(const simt::DeviceSpec& spec, const Workload& w);
/// Returns a negative value when the configuration is infeasible (shared
/// memory exhausted, paper Section 4.1).
double PerThreadCostMs(const simt::DeviceSpec& spec, const Workload& w);

/// Sampling-based hybrid (gputopk/hybrid_topk.h; paper Section 8 future
/// work): sample + bitonic on the sample + ~one coalesced read + bitonic
/// on the candidates for discriminating keys; bitonic over the input after
/// the wasted sample and read on adversarial ones. Negative when bitonic
/// top-k at the same k is infeasible.
double HybridCostMs(const simt::DeviceSpec& spec, const Workload& w);

}  // namespace mptopk::cost

#endif  // MPTOPK_COST_COST_MODEL_H_
