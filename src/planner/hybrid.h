// Hybrid device selection — the paper's conclusion sketches "hybrid
// solutions [that] could either involve multiple devices (CPUs and GPUs) as
// well as hybrids of the presented algorithms". This planner extends the
// Section 7 cost models with a CPU-side model and the PCIe transfer cost,
// choosing where a top-k should run given where the data currently lives.
//
// The decision captures the paper's Section 1 observation: when data is
// host-resident and used once, shipping it over PCIe can cost more than the
// entire (memory-bound) CPU computation; once data is device-resident, the
// GPU wins by the bandwidth ratio.
#ifndef MPTOPK_PLANNER_HYBRID_H_
#define MPTOPK_PLANNER_HYBRID_H_

#include "planner/plan_topk.h"

namespace mptopk::planner {

/// Host-side execution resources for the CPU cost model.
struct CpuSpec {
  int cores = 8;                    // the paper's i7-6900
  double mem_bw_gbps = 20.0;        // per-core effective stream bandwidth
  double heap_insert_ns = 12.0;     // amortized replace-min cost
  double compare_ns = 0.35;         // vectorized bitonic compare-exchange

  static CpuSpec PaperXeon() { return CpuSpec{}; }
};

enum class PlacementInput { kHostResident, kDeviceResident };

struct HybridChoice {
  bool use_gpu = true;
  /// Set when use_gpu: the registry operator the GPU-side plan chose.
  const topk::TopKOperator* gpu_op = nullptr;
  /// The registry CPU operator the CPU-side model chose ("cpu:HandPq" or
  /// "cpu:Bitonic"); the one to run when !use_gpu.
  const topk::TopKOperator* cpu_op = nullptr;
  double predicted_ms = 0.0;
  /// Component costs for explanation.
  double cpu_ms = 0.0;
  double gpu_kernel_ms = 0.0;
  double transfer_ms = 0.0;
};

/// Predicted CPU milliseconds for the best CPU operator (heaps on friendly
/// distributions, bitonic when every element updates the heap), which is
/// stored to `best` when given.
double CpuTopKCostMs(const CpuSpec& cpu, const cost::Workload& w,
                     const topk::TopKOperator** best = nullptr);

/// Chooses CPU vs GPU (and the algorithm) for the workload, accounting for
/// a PCIe staging transfer when the data is host-resident.
StatusOr<HybridChoice> PlanHybridTopK(const simt::DeviceSpec& gpu_spec,
                                      const CpuSpec& cpu_spec,
                                      const cost::Workload& workload,
                                      PlacementInput placement);

}  // namespace mptopk::planner

#endif  // MPTOPK_PLANNER_HYBRID_H_
