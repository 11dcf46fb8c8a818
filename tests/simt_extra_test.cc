// Additional simulator coverage: buffer ownership semantics, span
// sub-views, metrics arithmetic, partial-thread regions, dependent-latency
// pricing, and tracing determinism.
#include <gtest/gtest.h>

#include <numeric>

#include "simt/device.h"

namespace mptopk::simt {
namespace {

// --- DeviceBuffer ownership -----------------------------------------------------

TEST(DeviceBufferTest, MoveTransfersOwnership) {
  Device dev;
  auto a = dev.Alloc<float>(100).value();
  size_t bytes = dev.allocated_bytes();
  DeviceBuffer<float> b = std::move(a);
  EXPECT_EQ(dev.allocated_bytes(), bytes) << "move must not double-count";
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): documented
  DeviceBuffer<float> c;
  c = std::move(b);
  EXPECT_EQ(dev.allocated_bytes(), bytes);
  EXPECT_EQ(c.size(), 100u);
}

TEST(DeviceBufferTest, MoveAssignReleasesOldAllocation) {
  Device dev;
  auto a = dev.Alloc<float>(100).value();
  auto b = dev.Alloc<float>(200).value();
  EXPECT_EQ(dev.allocated_bytes(), 1200u);
  a = std::move(b);  // the 100-float allocation must be released
  EXPECT_EQ(dev.allocated_bytes(), 800u);
}

// --- GlobalSpan sub-views --------------------------------------------------------

TEST(GlobalSpanTest, SubspanAddressesAndBounds) {
  Device dev;
  auto buf = dev.Alloc<int>(128).value();
  std::iota(buf.host_data(), buf.host_data() + 128, 0);
  GlobalSpan<int> whole(buf);
  GlobalSpan<int> part = whole.subspan(32, 64);
  EXPECT_EQ(part.size(), 64u);
  auto stats = dev.Launch({.grid_dim = 1, .block_dim = 32}, [&](Block& blk) {
    blk.ForEachThread([&](Thread& t) {
      if (t.tid == 0) {
        EXPECT_EQ(part.Read(t, 0), 32);
        EXPECT_EQ(part.Read(t, 63), 95);
      }
    });
  });
  ASSERT_TRUE(stats.ok());
}

// --- Metrics arithmetic ----------------------------------------------------------

TEST(MetricsTest, ScaleRoundsCounters) {
  KernelMetrics m;
  m.global_bytes = 100;
  m.shared_cycles = 7;
  m.dependent_stall_cycles = 3;
  m.Scale(2.5);
  EXPECT_EQ(m.global_bytes, 250u);
  EXPECT_EQ(m.shared_cycles, 18u);  // 17.5 rounds
  EXPECT_EQ(m.dependent_stall_cycles, 8u);
}

TEST(MetricsTest, AccumulateAndPrint) {
  KernelMetrics a, b;
  a.global_bytes = 10;
  a.warp_instructions = 2;
  b.global_bytes = 5;
  b.blocks_traced = 1;
  a += b;
  EXPECT_EQ(a.global_bytes, 15u);
  EXPECT_EQ(a.blocks_traced, 1u);
  EXPECT_NE(a.ToString().find("global"), std::string::npos);
}

// --- Partial-thread regions ------------------------------------------------------

TEST(BlockTest, ForEachThreadBelowRunsSubset) {
  Device dev;
  auto buf = dev.Alloc<int>(64).value();
  std::fill(buf.host_data(), buf.host_data() + 64, 0);
  GlobalSpan<int> g(buf);
  auto stats = dev.Launch({.grid_dim = 1, .block_dim = 64}, [&](Block& blk) {
    blk.ForEachThreadBelow(16, [&](Thread& t) { g.Write(t, t.tid, 1); });
  });
  ASSERT_TRUE(stats.ok());
  int sum = std::accumulate(buf.host_data(), buf.host_data() + 64, 0);
  EXPECT_EQ(sum, 16);
}

// --- ThreadScratch stability -----------------------------------------------------

TEST(BlockTest, ThreadScratchPointersStableAcrossCalls) {
  Device dev;
  auto stats = dev.Launch({.grid_dim = 2, .block_dim = 32}, [&](Block& blk) {
    int* a = blk.ThreadScratch<int>(4);
    double* b = blk.ThreadScratch<double>(8);  // must not invalidate a
    int* a2 = a;
    blk.ForEachThread([&](Thread& t) {
      a2[t.tid * 4] = t.tid;
      b[t.tid * 8] = t.tid * 2.0;
    });
    blk.ForEachThread([&](Thread& t) {
      EXPECT_EQ(a[t.tid * 4], t.tid);
      EXPECT_EQ(b[t.tid * 8], t.tid * 2.0);
    });
  });
  ASSERT_TRUE(stats.ok());
}

// --- Dependent-latency pricing ---------------------------------------------------

TEST(TimingTest, DependentCyclesAddToTime) {
  Device dev;
  auto buf = dev.Alloc<float>(256).value();
  GlobalSpan<float> g(buf);
  auto run = [&](uint64_t dep) {
    auto stats = dev.Launch({.grid_dim = 1, .block_dim = 256},
                            [&](Block& blk) {
      blk.ForEachThread([&](Thread& t) {
        g.Write(t, t.tid, 1.0f);
        if (t.tracer != nullptr) t.tracer->RecordDependentCycles(dep);
      });
    });
    return stats->time;
  };
  KernelTime without = run(0);
  KernelTime with = run(10000);
  EXPECT_GT(with.dependent_ms, 0.0);
  EXPECT_NEAR(with.total_ms - without.total_ms, with.dependent_ms, 1e-9);
}

// --- Determinism -----------------------------------------------------------------

TEST(DeterminismTest, IdenticalRunsIdenticalMetrics) {
  auto run = [] {
    Device dev;
    auto buf = dev.Alloc<float>(1 << 14).value();
    GlobalSpan<float> g(buf);
    auto stats = dev.Launch({.grid_dim = 16, .block_dim = 256},
                            [&](Block& blk) {
      auto smem = blk.AllocShared<float>(1024);
      blk.ForEachThread([&](Thread& t) {
        size_t i = static_cast<size_t>(blk.block_idx()) * 1024 + t.tid;
        smem.Write(t, (t.tid * 17) % 1024, static_cast<float>(i));
      });
      blk.Sync();
      blk.ForEachThread([&](Thread& t) {
        size_t i = static_cast<size_t>(blk.block_idx()) * 1024 + t.tid;
        if (i < g.size()) g.Write(t, i, smem.Read(t, t.tid));
      });
    });
    return stats->time.total_ms;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// --- Occupancy corner cases ------------------------------------------------------

TEST(OccupancyTest, SingleBlockGridStillHasOneResidentBlock) {
  DeviceSpec spec = DeviceSpec::TitanXMaxwell();
  Occupancy occ = ComputeOccupancy(
      spec, KernelResources{.grid_dim = 1, .block_dim = 256,
                            .regs_per_thread = 32,
                            .shared_bytes_per_block = 0});
  // One busy SM hosts the whole block: 8 resident warps, not 8/24.
  EXPECT_GE(occ.resident_warps, 8.0);
  EXPECT_NEAR(occ.sm_utilization, 1.0 / 24, 1e-9);
}

TEST(OccupancyTest, SharedEfficiencySaturatesBeforeGlobal) {
  DeviceSpec spec = DeviceSpec::TitanXMaxwell();
  Occupancy occ = ComputeOccupancy(
      spec, KernelResources{.grid_dim = 1000, .block_dim = 256,
                            .regs_per_thread = 32,
                            .shared_bytes_per_block = 40 * 1024});
  // 2 blocks/SM -> 16 warps: enough for both pipelines...
  EXPECT_DOUBLE_EQ(occ.shared_efficiency, 1.0);
  EXPECT_DOUBLE_EQ(occ.bw_efficiency, 1.0);
  Occupancy low = ComputeOccupancy(
      spec, KernelResources{.grid_dim = 1000, .block_dim = 64,
                            .regs_per_thread = 32,
                            .shared_bytes_per_block = 40 * 1024});
  // 2 blocks/SM of 2 warps each: shared starved too, global more so.
  EXPECT_LT(low.bw_efficiency, low.shared_efficiency);
}

// --- Device geometry the tracer models -----------------------------------------

// A spec the warp analyzer cannot model exactly fails the launch cleanly
// instead of overflowing per-lane tables or miscounting sectors.
TEST(GeometryTest, LaunchRejectsUnmodeledGeometry) {
  auto launch = [](const DeviceSpec& spec) {
    Device dev(spec);
    return dev.Launch({.grid_dim = 2, .block_dim = 64},
                      [](Block& blk) { blk.ForEachThread([](Thread&) {}); })
        .status();
  };
  DeviceSpec wide = DeviceSpec::TitanXMaxwell();
  wide.warp_size = 64;
  EXPECT_EQ(launch(wide).code(), StatusCode::kInvalidArgument);
  DeviceSpec banks = DeviceSpec::TitanXMaxwell();
  banks.shared_mem_banks = 24;
  EXPECT_EQ(launch(banks).code(), StatusCode::kInvalidArgument);
  DeviceSpec sector = DeviceSpec::TitanXMaxwell();
  sector.sector_bytes = 48;
  EXPECT_EQ(launch(sector).code(), StatusCode::kInvalidArgument);
  DeviceSpec word = DeviceSpec::TitanXMaxwell();
  word.bank_width_bytes = 3;
  EXPECT_EQ(launch(word).code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(launch(DeviceSpec::TitanXMaxwell()).ok());
  EXPECT_TRUE(launch(DeviceSpec::TeslaP100()).ok());
}

}  // namespace
}  // namespace mptopk::simt
