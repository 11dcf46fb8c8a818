// Tests for the hybrid CPU/GPU device-selection planner (paper Section 8
// future work).
#include <gtest/gtest.h>

#include "planner/hybrid.h"

namespace mptopk::planner {
namespace {

simt::DeviceSpec Gpu() { return simt::DeviceSpec::TitanXMaxwell(); }
CpuSpec Cpu() { return CpuSpec::PaperXeon(); }

cost::Workload W(size_t n, size_t k, Distribution d = Distribution::kUniform) {
  return cost::Workload{n, k, 4, 4, d};
}

TEST(HybridPlannerTest, DeviceResidentDataStaysOnGpu) {
  auto c = PlanHybridTopK(Gpu(), Cpu(), W(1ull << 28, 32),
                          PlacementInput::kDeviceResident);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->use_gpu);
  EXPECT_EQ(c->transfer_ms, 0.0);
}

TEST(HybridPlannerTest, HostResidentUniformPrefersCpu) {
  // Uniform data, one-shot use: PCIe staging alone exceeds the streaming
  // CPU heap cost (paper Section 1's motivation for on-GPU top-k: avoid
  // moving data, not move it in order to run top-k).
  auto c = PlanHybridTopK(Gpu(), Cpu(), W(1ull << 28, 32),
                          PlacementInput::kHostResident);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->use_gpu);
  EXPECT_GT(c->transfer_ms, c->cpu_ms * 0.5);
}

TEST(HybridPlannerTest, SortedInputPushesCpuTowardBitonic) {
  const topk::TopKOperator* best = nullptr;
  double uniform =
      CpuTopKCostMs(Cpu(), W(1ull << 26, 256), &best);
  double sorted = CpuTopKCostMs(
      Cpu(), W(1ull << 26, 256, Distribution::kIncreasing), &best);
  EXPECT_GT(sorted, uniform);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->name(), "cpu:Bitonic")
      << "insert-per-element input should switch to data-oblivious bitonic";
}

TEST(HybridPlannerTest, GpuWinsOnSortedHostData) {
  // Fig 15b: on sorted input the GPU is 60-120x faster than CPU heaps --
  // worth the transfer.
  auto c = PlanHybridTopK(Gpu(), Cpu(),
                          W(1ull << 28, 32, Distribution::kIncreasing),
                          PlacementInput::kHostResident);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->use_gpu);
}

TEST(HybridPlannerTest, ComponentsAreConsistent) {
  auto c = PlanHybridTopK(Gpu(), Cpu(), W(1 << 24, 64),
                          PlacementInput::kHostResident);
  ASSERT_TRUE(c.ok());
  double gpu_total = c->gpu_kernel_ms + c->transfer_ms;
  EXPECT_DOUBLE_EQ(c->predicted_ms,
                   c->use_gpu ? gpu_total : c->cpu_ms);
  EXPECT_GT(c->cpu_ms, 0);
  EXPECT_GT(c->gpu_kernel_ms, 0);
}

TEST(HybridPlannerTest, RejectsBadWorkload) {
  EXPECT_FALSE(PlanHybridTopK(Gpu(), Cpu(), W(16, 32),
                              PlacementInput::kHostResident)
                   .ok());
}

}  // namespace
}  // namespace mptopk::planner
