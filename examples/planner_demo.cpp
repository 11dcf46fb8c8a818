// Cost-based planning: pick the best top-k algorithm per workload, the way
// a query optimizer would (paper Section 7 / conclusion).
//
//   $ ./planner_demo
//
// Prints the predicted cost of every algorithm across a (n, k) grid at the
// paper's hardware scale, the planner's choice, and — for a smaller point —
// a validation run showing the choice is right on the simulated device.
#include <cstdio>

#include "common/distributions.h"
#include "planner/plan_topk.h"

using namespace mptopk;

int main() {
  const auto spec = simt::DeviceSpec::TitanXMaxwell();

  std::printf("Predicted cost (ms) at the paper's scale, uniform floats:\n");
  std::printf("%-10s %-6s %-10s %-10s %-12s %-12s %-10s %s\n", "n", "k",
              "Sort", "RadixSel", "BucketSel", "PerThread", "Bitonic",
              "-> planner picks");
  for (size_t n_log2 : {26, 29}) {
    for (size_t k : {1, 32, 256, 1024}) {
      cost::Workload w{size_t{1} << n_log2, k, 4, 4, Distribution::kUniform};
      auto plan = planner::PlanTopK(spec, w);
      if (!plan.ok()) continue;
      double t[5] = {cost::SortCostMs(spec, w),
                     cost::RadixSelectCostMs(spec, w),
                     cost::BucketSelectCostMs(spec, w),
                     cost::PerThreadCostMs(spec, w),
                     cost::BitonicTopKCostMs(
                         spec, {w.n, NextPowerOfTwo(k), 4, 4, w.dist})};
      std::printf("2^%-8zu %-6zu %-10.1f %-10.1f %-12.1f ", n_log2, k, t[0],
                  t[1], t[2]);
      if (t[3] < 0) {
        std::printf("%-12s ", "infeasible");
      } else {
        std::printf("%-12.1f ", t[3]);
      }
      std::printf("%-10.1f %s\n", t[4], plan->best->name().c_str());
    }
  }

  // Validate one point against the simulator.
  std::printf("\nValidation at n=2^20, k=32 (simulated device):\n");
  const size_t n = 1 << 20;
  auto data = GenerateFloats(n, Distribution::kUniform);
  cost::Workload w{n, 32, 4, 4, Distribution::kUniform};
  auto plan = planner::PlanTopK(spec, w);
  if (!plan.ok()) return 1;
  for (const auto& e : plan->ranked) {
    simt::Device dev;
    dev.set_trace_sample_target(16);
    auto r = e.op->TopKHost(dev, data.data(), n, 32);
    std::printf("  %-14s predicted %8.3f ms   measured %8.3f ms\n",
                e.op->name().c_str(), e.predicted_ms,
                r.ok() ? dev.total_sim_ms() : -1.0);
  }
  std::printf("planner's pick: %s\n", plan->best->name().c_str());

  // With extensions enabled, the sampling hybrid (paper Section 8 future
  // work) joins the candidate set.
  auto ext = planner::PlanTopK(spec, w, /*include_extensions=*/true);
  if (ext.ok()) {
    std::printf("\nwith extensions enabled: %s (predicted %.3f ms)\n",
                ext->best->name().c_str(),
                ext->ranked.front().predicted_ms);
  }
  return 0;
}
