// Unit tests for the shared device-side building blocks: TilePartition,
// LaunchGridStride, FillDevice, BlockExclusiveScan (property-tested across
// sizes), TwoWayCompactTile, and
// the one clock (simt::DeviceTimeTracker) that every reported time is read
// from.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "common/distributions.h"
#include "engine/query.h"
#include "engine/tweets.h"
#include "gputopk/kernel_util.h"
#include "topk/registry.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::Device;
using simt::GlobalSpan;
using simt::Thread;

// The block ranges tile [0, n) exactly, in order, with whole tiles per
// block; the grid is the bounded ceil(n / tile) and never zero.
TEST(TilePartitionTest, RangesCoverInputInWholeTiles) {
  for (size_t n : {0, 1, 2047, 2048, 5000, 262144, 262145, 1000003}) {
    const TilePartition part(n, 2048, 128);
    EXPECT_EQ(part.grid, static_cast<int>(std::clamp<uint64_t>(
                             CeilDiv(n, 2048), 1, 128)))
        << n;
    EXPECT_EQ(part.per_block % 2048, 0u) << n;
    size_t next = 0;
    for (int b = 0; b < part.grid; ++b) {
      EXPECT_EQ(part.lo(b), next) << n << " block " << b;
      EXPECT_LE(part.lo(b), part.hi(b));
      EXPECT_LE(part.hi(b) - part.lo(b), part.per_block);
      next = part.hi(b);
    }
    EXPECT_EQ(next, n);
  }
}

TEST(LaunchGridStrideTest, VisitsEveryIndexOnceWithinTheGridCap) {
  Device dev;
  auto buf = dev.Alloc<uint32_t>(10000).value();
  std::fill(buf.host_data(), buf.host_data() + 10000, 0u);
  GlobalSpan<uint32_t> g(buf);
  ASSERT_TRUE(LaunchGridStride(dev, "visit", 10000, 128, 8,
                               [&](Thread& t, size_t i) {
                                 g.Write(t, i, g.Read(t, i) + 1);
                               })
                  .ok());
  ASSERT_EQ(dev.kernel_log().size(), 1u);
  EXPECT_EQ(dev.kernel_log()[0].name, "visit");
  EXPECT_EQ(dev.kernel_log()[0].resources.grid_dim, 8);
  EXPECT_EQ(dev.kernel_log()[0].resources.block_dim, 128);
  for (size_t i = 0; i < 10000; ++i) ASSERT_EQ(buf.host_data()[i], 1u) << i;
}

TEST(FillDeviceTest, FillsExactRange) {
  Device dev;
  auto buf = dev.Alloc<uint32_t>(1000).value();
  std::fill(buf.host_data(), buf.host_data() + 1000, 7u);
  ASSERT_TRUE(FillDevice<uint32_t>(dev, buf, 100, 500, 42u).ok());
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(buf.host_data()[i], (i >= 100 && i < 600) ? 42u : 7u) << i;
  }
}

TEST(FillDeviceTest, ZeroCountIsNoop) {
  Device dev;
  auto buf = dev.Alloc<uint32_t>(8).value();
  size_t launches = dev.kernel_log().size();
  ASSERT_TRUE(FillDevice<uint32_t>(dev, buf, 0, 0, 1u).ok());
  EXPECT_EQ(dev.kernel_log().size(), launches);
}

class BlockScanTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BlockScanTest, MatchesSerialPrefixSum) {
  const size_t n = GetParam();
  Device dev;
  std::mt19937 rng(n);
  std::vector<uint32_t> input(n);
  for (auto& v : input) v = rng() % 100;

  auto out_buf = dev.Alloc<uint32_t>(n).value();
  auto total_buf = dev.Alloc<uint32_t>(1).value();
  GlobalSpan<uint32_t> out(out_buf), total_span(total_buf);
  auto stats = dev.Launch({.grid_dim = 1, .block_dim = 256}, [&](Block& blk) {
    auto data = blk.AllocShared<uint32_t>(n);
    auto scratch = blk.AllocShared<uint32_t>(n);
    blk.ForEachThread([&](Thread& t) {
      for (size_t i = t.tid; i < n; i += 256) data.Write(t, i, input[i]);
    });
    blk.Sync();
    uint32_t total = 0;
    BlockExclusiveScan(blk, data, n, scratch, &total);
    blk.ForEachThread([&](Thread& t) {
      for (size_t i = t.tid; i < n; i += 256) out.Write(t, i, data.Read(t, i));
      if (t.tid == 0) total_span.Write(t, 0, total);
    });
  });
  ASSERT_TRUE(stats.ok());

  uint32_t expect = 0;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out_buf.host_data()[i], expect) << "i=" << i;
    expect += input[i];
  }
  EXPECT_EQ(total_buf.host_data()[0], expect);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockScanTest,
                         ::testing::Values(1, 2, 3, 17, 255, 256, 257, 1000,
                                           2048),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(TwoWayCompactTest, SplitsHiEqDrop) {
  // Classify ints: >66 -> hi stream, ==66 -> eq stream, else dropped.
  Device dev;
  const size_t n = 4096;
  std::mt19937 rng(5);
  std::vector<int32_t> input(n);
  for (auto& v : input) v = rng() % 100;

  auto in_buf = dev.Alloc<int32_t>(n).value();
  dev.CopyToDevice(in_buf, input.data(), n);
  auto hi_buf = dev.Alloc<int32_t>(n).value();
  auto eq_buf = dev.Alloc<int32_t>(n).value();
  auto counters = dev.Alloc<uint32_t>(2).value();
  counters.host_data()[0] = 0;
  counters.host_data()[1] = 0;

  GlobalSpan<int32_t> in(in_buf), hi(hi_buf), eq(eq_buf);
  GlobalSpan<uint32_t> cnts(counters);
  auto stats = dev.Launch({.grid_dim = 2, .block_dim = 256}, [&](Block& blk) {
    auto w = TwoWayCompactWorkspace<int32_t>::Alloc(blk, 1024);
    size_t lo = static_cast<size_t>(blk.block_idx()) * (n / 2);
    for (size_t base = lo; base < lo + n / 2; base += 1024) {
      TwoWayCompactTile<int32_t>(
          blk, w, in, base, base + 1024,
          [](int32_t v) { return v > 66 ? 1 : (v == 66 ? 0 : -1); }, hi,
          /*out_hi_offset=*/0, eq, cnts);
    }
  });
  ASSERT_TRUE(stats.ok());

  size_t expect_hi = std::count_if(input.begin(), input.end(),
                                   [](int v) { return v > 66; });
  size_t expect_eq = std::count(input.begin(), input.end(), 66);
  EXPECT_EQ(counters.host_data()[0], expect_hi);
  EXPECT_EQ(counters.host_data()[1], expect_eq);

  // The streams must hold exactly the matching multisets.
  std::vector<int32_t> hi_out(hi_buf.host_data(),
                              hi_buf.host_data() + expect_hi);
  for (int32_t v : hi_out) EXPECT_GT(v, 66);
  std::vector<int32_t> want_hi;
  for (int32_t v : input) {
    if (v > 66) want_hi.push_back(v);
  }
  std::sort(hi_out.begin(), hi_out.end());
  std::sort(want_hi.begin(), want_hi.end());
  EXPECT_EQ(hi_out, want_hi);
  for (size_t i = 0; i < expect_eq; ++i) {
    EXPECT_EQ(eq_buf.host_data()[i], 66);
  }
}

TEST(TwoWayCompactTest, AllMatchAndNoneMatch) {
  Device dev;
  const size_t n = 2048;
  std::vector<int32_t> input(n, 5);
  auto in_buf = dev.Alloc<int32_t>(n).value();
  dev.CopyToDevice(in_buf, input.data(), n);
  auto hi_buf = dev.Alloc<int32_t>(n).value();
  auto eq_buf = dev.Alloc<int32_t>(n).value();
  auto counters = dev.Alloc<uint32_t>(2).value();

  for (auto [cls, expect_hi] :
       std::vector<std::pair<int, size_t>>{{1, n}, {-1, 0}}) {
    counters.host_data()[0] = 0;
    counters.host_data()[1] = 0;
    GlobalSpan<int32_t> in(in_buf), hi(hi_buf), eq(eq_buf);
    GlobalSpan<uint32_t> cnts(counters);
    auto stats = dev.Launch({.grid_dim = 1, .block_dim = 256},
                            [&](Block& blk) {
      auto w = TwoWayCompactWorkspace<int32_t>::Alloc(blk, 1024);
      for (size_t base = 0; base < n; base += 1024) {
        TwoWayCompactTile<int32_t>(
            blk, w, in, base, base + 1024,
            [cls](int32_t) { return cls; }, hi, 0, eq, cnts);
      }
    });
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(counters.host_data()[0], expect_hi);
    EXPECT_EQ(counters.host_data()[1], 0u);
  }
}

TEST(TracerDeterminismTest, SampledTimingIsStable) {
  // Repeated sampled launches of the same kernel produce identical
  // simulated times (the foundation of reproducible benches).
  auto run = [] {
    Device dev;
    dev.set_trace_sample_target(4);
    auto buf = dev.Alloc<float>(1 << 14).value();
    GlobalSpan<float> g(buf);
    auto stats = dev.Launch({.grid_dim = 64, .block_dim = 256},
                            [&](Block& blk) {
      blk.ForEachThread([&](Thread& t) {
        size_t i = (static_cast<size_t>(blk.block_idx()) * 256 + t.tid) %
                   (1 << 14);
        g.Write(t, i, 1.f);
      });
    });
    return stats->time.total_ms;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// --- The one clock -----------------------------------------------------------

template <typename E>
std::vector<E> ClockData(size_t n) {
  auto keys = GenerateFloats(n, Distribution::kUniform, 99);
  std::vector<E> data(n);
  for (size_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<E, KV>) {
      data[i] = KV{keys[i], static_cast<uint32_t>(i)};
    } else {
      data[i] = keys[i];
    }
  }
  return data;
}

// Every operator call is explained by the kernel log: the kernels it
// appended, added in launch order onto the tracker's start value, give the
// device's end value exactly.
template <typename E>
void ExpectClockExplainsCall(const topk::TopKOperator& op) {
  const size_t n = 1 << 14, k = 32;
  const auto data = ClockData<E>(n);
  Device dev;
  auto buf = dev.Alloc<E>(n).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
  // Earlier work, so the tracker starts from a non-zero clock.
  auto scratch = dev.Alloc<uint32_t>(4096).value();
  ASSERT_TRUE(FillDevice<uint32_t>(dev, scratch, 0, 4096, 0u).ok());

  const size_t first = dev.kernel_log().size();
  const simt::DeviceTimeTracker clock(dev);
  double clock_ms = dev.total_sim_ms();
  ASSERT_TRUE(op.TopKDevice(dev, buf, n, k).ok());
  for (size_t i = first; i < dev.kernel_log().size(); ++i) {
    clock_ms += dev.kernel_log()[i].time.total_ms;
  }
  EXPECT_EQ(clock_ms, dev.total_sim_ms()) << op.name();  // exact, not near
  EXPECT_EQ(static_cast<size_t>(clock.Launches()),
            dev.kernel_log().size() - first)
      << op.name();
  EXPECT_GT(clock.ElapsedMs(), 0.0) << op.name();
  EXPECT_GT(clock.PcieMs(), 0.0) << op.name();  // the k-item readback
}

// Bottom-k is top-k over negated keys: the call launches exactly the kernels
// top-k launches on host-negated data, after one extra negate_keys pass.
template <typename E>
void ExpectBottomKAddsNegatePass(const topk::TopKOperator& op) {
  const size_t n = 1 << 14, k = 32;
  const auto data = ClockData<E>(n);
  std::vector<E> negated(data);
  for (E& e : negated) e = ElementTraits<E>::Negated(e);

  Device top_dev, bottom_dev;
  auto top_buf = top_dev.Alloc<E>(n).value();
  auto bottom_buf = bottom_dev.Alloc<E>(n).value();
  ASSERT_TRUE(top_dev.CopyToDevice(top_buf, negated.data(), n).ok());
  ASSERT_TRUE(bottom_dev.CopyToDevice(bottom_buf, data.data(), n).ok());
  const simt::DeviceTimeTracker top_clock(top_dev);
  const simt::DeviceTimeTracker bottom_clock(bottom_dev);
  ASSERT_TRUE(op.TopKDevice(top_dev, top_buf, n, k).ok());
  ASSERT_TRUE(op.BottomKDevice(bottom_dev, bottom_buf, n, k).ok());

  ASSERT_EQ(bottom_clock.Launches(), top_clock.Launches() + 1) << op.name();
  const auto& top_log = top_dev.kernel_log();
  const auto& bottom_log = bottom_dev.kernel_log();
  EXPECT_EQ(bottom_log[0].name, "negate_keys") << op.name();
  for (size_t i = 0; i < top_log.size(); ++i) {
    EXPECT_EQ(bottom_log[i + 1].name, top_log[i].name) << op.name() << " " << i;
  }
  EXPECT_GT(bottom_clock.ElapsedMs(), top_clock.ElapsedMs()) << op.name();
}

TEST(DeviceClockTest, KernelLogExplainsEveryOperatorCall) {
  for (const topk::TopKOperator* op : topk::GpuSweepOperators(true)) {
    ExpectClockExplainsCall<float>(*op);
    ExpectClockExplainsCall<KV>(*op);
  }
}

TEST(DeviceClockTest, BottomKAddsOneNegatePass) {
  for (const topk::TopKOperator* op : topk::GpuSweepOperators(true)) {
    ExpectBottomKAddsNegatePass<float>(*op);
    ExpectBottomKAddsNegatePass<KV>(*op);
  }
}

// Paper Q4's phase split adds up to the time measured around the query.
TEST(DeviceClockTest, GroupByPhasesAddUpToTheQuery) {
  Device dev;
  auto table = std::move(engine::MakeTweetsTable(&dev, 1 << 14, 5).value());
  for (auto strategy :
       {engine::GroupByStrategy::kSort, engine::GroupByStrategy::kBitonic}) {
    const simt::DeviceTimeTracker clock(dev);
    auto r = engine::GroupByCountTopKQuery(*table, "uid", 50, strategy);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_GT(r->groupby_ms, 0.0);
    EXPECT_GT(r->topk_ms, 0.0);
    EXPECT_NEAR(r->groupby_ms + r->topk_ms, clock.ElapsedMs(),
                1e-12 * clock.ElapsedMs());
  }
}

}  // namespace
}  // namespace mptopk::gpu
