// Cross-hardware portability: the same kernels and cost models must run and
// stay consistent on a different DeviceSpec (paper Section 7's motivation:
// "to predict the performance on different hardware").
#include <gtest/gtest.h>

#include "common/distributions.h"
#include "cost/cost_model.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/perthread_topk.h"
#include "planner/plan_topk.h"

namespace mptopk {
namespace {

TEST(DevicePortabilityTest, AlgorithmsCorrectOnP100) {
  simt::Device dev(simt::DeviceSpec::TeslaP100());
  auto data = GenerateFloats(1 << 16, Distribution::kUniform, 31);
  std::vector<float> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<float>());
  for (const topk::TopKOperator* op : topk::GpuSweepOperators(true)) {
    auto r = op->TopKHost(dev, data.data(), data.size(), 32);
    ASSERT_TRUE(r.ok()) << op->name() << ": " << r.status();
    for (size_t i = 0; i < 32; ++i) {
      EXPECT_EQ(r->items[i], ref[i]) << op->name();
    }
  }
}

TEST(DevicePortabilityTest, FasterDeviceIsFaster) {
  // Large enough that bandwidth dominates launch overheads and the
  // single-block final kernel.
  auto data = GenerateFloats(1 << 22, Distribution::kUniform, 32);
  simt::Device maxwell(simt::DeviceSpec::TitanXMaxwell());
  simt::Device pascal(simt::DeviceSpec::TeslaP100());
  maxwell.set_trace_sample_target(16);
  pascal.set_trace_sample_target(16);
  auto rm = gpu::BitonicTopK(maxwell, data.data(), data.size(), 32);
  auto rp = gpu::BitonicTopK(pascal, data.data(), data.size(), 32);
  ASSERT_TRUE(rm.ok());
  ASSERT_TRUE(rp.ok());
  EXPECT_EQ(rm->items, rp->items) << "results must be device-independent";
  // ~3x the bandwidths should land in the 2x-4x speedup range.
  EXPECT_LT(pascal.total_sim_ms() * 2.0, maxwell.total_sim_ms());
  EXPECT_GT(pascal.total_sim_ms() * 5.0, maxwell.total_sim_ms());
}

TEST(DevicePortabilityTest, CostModelAndPlannerTransfer) {
  auto p100 = simt::DeviceSpec::TeslaP100();
  cost::Workload w{1ull << 29, 32, 4, 4, Distribution::kUniform};
  // Predictions scale with the new bandwidths...
  double maxwell_ms =
      cost::BitonicTopKCostMs(simt::DeviceSpec::TitanXMaxwell(), w);
  double pascal_ms = cost::BitonicTopKCostMs(p100, w);
  EXPECT_LT(pascal_ms, maxwell_ms / 2);
  // ...and the planner still produces the paper's qualitative choices.
  auto small_k = planner::PlanTopK(p100, w);
  ASSERT_TRUE(small_k.ok());
  EXPECT_EQ(small_k->best->name(), "BitonicTopK");
  cost::Workload big{1ull << 29, 1024, 4, 4, Distribution::kUniform};
  auto large_k = planner::PlanTopK(p100, big);
  ASSERT_TRUE(large_k.ok());
  EXPECT_EQ(large_k->best->name(), "RadixSelect");
}

TEST(DevicePortabilityTest, PerThreadLimitsFollowSharedMemory) {
  // The k=512 failure is a property of the 48 KiB/block limit, which P100
  // shares -> same boundary.
  simt::Device dev(simt::DeviceSpec::TeslaP100());
  auto data = GenerateFloats(1 << 14, Distribution::kUniform, 33);
  EXPECT_TRUE(
      gpu::PerThreadTopK(dev, data.data(), data.size(), 256).ok());
  EXPECT_FALSE(
      gpu::PerThreadTopK(dev, data.data(), data.size(), 512).ok());
}

}  // namespace
}  // namespace mptopk
