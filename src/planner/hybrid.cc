#include "planner/hybrid.h"

#include <algorithm>
#include <cmath>

namespace mptopk::planner {

double CpuTopKCostMs(const CpuSpec& cpu, const cost::Workload& w,
                     const topk::TopKOperator** best) {
  const double n = static_cast<double>(w.n);
  const double per_core = n / std::max(1, cpu.cores);

  // Heap methods: a streaming read plus data-dependent replace-min calls
  // (paper Section 6.7: ~500 insertions per 67k elements at k=32 uniform).
  double inserts_per_core;
  switch (w.dist) {
    case Distribution::kIncreasing:
      inserts_per_core = per_core;
      break;
    case Distribution::kDecreasing:
      inserts_per_core = static_cast<double>(w.k);
      break;
    default:
      inserts_per_core =
          w.k * (std::log(std::max(1.0, per_core / w.k)) + 1.0);
  }
  const double stream_s =
      per_core * w.elem_size / (cpu.mem_bw_gbps * 1e9);
  const double heap_s = stream_s + inserts_per_core *
                                       std::max(1, Log2Ceil(w.k)) *
                                       cpu.heap_insert_ns * 1e-9;

  // CPU bitonic (Appendix C): data-independent n * (log^2 k)-ish compares,
  // SIMD-accelerated; wins when the heaps degrade to insert-per-element.
  const int lk = std::max(1, Log2Ceil(std::max<size_t>(2, w.k)));
  const double compares_per_elem = 0.5 * lk * (lk + 3);  // local sort+rebuilds
  const double bitonic_s =
      std::max(stream_s,
               per_core * compares_per_elem * cpu.compare_ns * 1e-9);

  const bool heap = heap_s <= bitonic_s;
  if (best != nullptr) {
    *best = topk::Registry::Instance().FindOrNull(heap ? "cpu:HandPq"
                                                       : "cpu:Bitonic");
  }
  return (heap ? heap_s : bitonic_s) * 1e3;
}

StatusOr<HybridChoice> PlanHybridTopK(const simt::DeviceSpec& gpu_spec,
                                      const CpuSpec& cpu_spec,
                                      const cost::Workload& w,
                                      PlacementInput placement) {
  MPTOPK_ASSIGN_OR_RETURN(Plan gpu_plan, PlanTopK(gpu_spec, w));
  HybridChoice choice;
  choice.gpu_kernel_ms = gpu_plan.ranked.front().predicted_ms;
  choice.gpu_op = gpu_plan.best;
  choice.transfer_ms =
      placement == PlacementInput::kHostResident
          ? static_cast<double>(w.n) * w.elem_size /
                (gpu_spec.pcie_bw_gbps * 1e9) * 1e3
          : 0.0;
  choice.cpu_ms = CpuTopKCostMs(cpu_spec, w, &choice.cpu_op);

  const double gpu_total = choice.gpu_kernel_ms + choice.transfer_ms;
  choice.use_gpu = gpu_total <= choice.cpu_ms;
  choice.predicted_ms = choice.use_gpu ? gpu_total : choice.cpu_ms;
  return choice;
}

}  // namespace mptopk::planner
