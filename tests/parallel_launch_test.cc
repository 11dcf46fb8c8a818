// The parallel block launcher's determinism contract (simt/workers.h):
// for every worker count, simulated metrics, timings, race accounting and
// canonical top-k results must be bit-identical to a one-worker launch.
// Sweeps every registered GPU operator, the chunked executor and the query
// engine across workers in {1, 2, 7, 8} (7 catches shard-boundary bugs),
// stress-tests the global-atomic turnstile, and runs a compact
// differential sweep at 4 workers. The TSan CI leg runs this binary with
// MPTOPK_WORKERS=4 to prove the launcher data-race-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "common/key_transform.h"
#include "engine/query.h"
#include "engine/table.h"
#include "engine/tweets.h"
#include "gputopk/chunked.h"
#include "simt/device.h"
#include "simt/workers.h"

namespace mptopk {
namespace {

using simt::Block;
using simt::Device;
using simt::GlobalSpan;
using simt::KernelMetrics;
using simt::KernelStats;
using simt::Thread;

constexpr int kWorkerSweep[] = {1, 2, 7, 8};

void ExpectMetricsEq(const KernelMetrics& a, const KernelMetrics& b,
                     const std::string& label) {
  EXPECT_EQ(a.global_transactions, b.global_transactions) << label;
  EXPECT_EQ(a.global_bytes, b.global_bytes) << label;
  EXPECT_EQ(a.global_useful_bytes, b.global_useful_bytes) << label;
  EXPECT_EQ(a.local_bytes, b.local_bytes) << label;
  EXPECT_EQ(a.shared_cycles, b.shared_cycles) << label;
  EXPECT_EQ(a.shared_bytes, b.shared_bytes) << label;
  EXPECT_EQ(a.shared_useful_bytes, b.shared_useful_bytes) << label;
  EXPECT_EQ(a.bank_conflict_cycles, b.bank_conflict_cycles) << label;
  EXPECT_EQ(a.shared_atomic_cycles, b.shared_atomic_cycles) << label;
  EXPECT_EQ(a.global_atomics, b.global_atomics) << label;
  EXPECT_EQ(a.dependent_stall_cycles, b.dependent_stall_cycles) << label;
  EXPECT_EQ(a.warp_instructions, b.warp_instructions) << label;
  EXPECT_EQ(a.divergent_lane_slots, b.divergent_lane_slots) << label;
  EXPECT_EQ(a.blocks_traced, b.blocks_traced) << label;
  EXPECT_EQ(a.blocks_launched, b.blocks_launched) << label;
}

// Full simulated-time fingerprint of a device after a run: every kernel's
// metrics and timeline placement plus the device clocks. Doubles are
// compared with EXPECT_EQ — the contract is bit-identity, not tolerance.
void ExpectLogsEq(const Device& base, const Device& dev,
                  const std::string& label) {
  EXPECT_EQ(base.total_sim_ms(), dev.total_sim_ms()) << label;
  EXPECT_EQ(base.makespan_ms(), dev.makespan_ms()) << label;
  EXPECT_EQ(base.pcie_ms(), dev.pcie_ms()) << label;
  ASSERT_EQ(base.kernel_log().size(), dev.kernel_log().size()) << label;
  for (size_t i = 0; i < base.kernel_log().size(); ++i) {
    const KernelStats& a = base.kernel_log()[i];
    const KernelStats& b = dev.kernel_log()[i];
    const std::string l = label + " kernel[" + std::to_string(i) + "]=" +
                          a.name;
    EXPECT_EQ(a.name, b.name) << l;
    EXPECT_EQ(a.time.total_ms, b.time.total_ms) << l;
    EXPECT_EQ(a.start_ms, b.start_ms) << l;
    EXPECT_EQ(a.end_ms, b.end_ms) << l;
    EXPECT_EQ(a.race.hazard_count, b.race.hazard_count) << l;
    ExpectMetricsEq(a.metrics, b.metrics, l);
  }
}

std::vector<float> UniformData(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> uni(-1000.0f, 1000.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = uni(rng);
  return v;
}

// --- Turnstile semantics -----------------------------------------------------

// Every thread of every block hammers counter[0] with a value-returning
// AtomicAdd and counter[1] with a ReduceAdd. Totals must be exact, and the
// turnstile must make each AtomicAdd return exactly its sequential ticket
// (block-major, then thread order within the block).
TEST(ParallelLaunch, AtomicCounterStress) {
  constexpr int kGrid = 48, kBlock = 64;
  constexpr size_t kN = static_cast<size_t>(kGrid) * kBlock;
  for (int w : kWorkerSweep) {
    Device dev;
    dev.set_host_workers(w);
    auto counters = dev.Alloc<uint32_t>(2).value();
    auto tickets = dev.Alloc<uint32_t>(kN).value();
    counters.host_data()[0] = 0;
    counters.host_data()[1] = 0;
    GlobalSpan<uint32_t> ctr(counters);
    GlobalSpan<uint32_t> out(tickets);
    auto st = dev.Launch(
        {.grid_dim = kGrid, .block_dim = kBlock, .name = "atomic_stress"},
        [&](Block& blk) {
          blk.ForEachThread([&](Thread& t) {
            uint32_t ticket = ctr.AtomicAdd(t, 0, 1u);
            out.Write(t,
                      static_cast<size_t>(blk.block_idx()) * kBlock + t.tid,
                      ticket);
            ctr.ReduceAdd(t, 1, 1u);
          });
        });
    ASSERT_TRUE(st.ok()) << st.status();
    EXPECT_EQ(counters.host_data()[0], kN) << "workers=" << w;
    EXPECT_EQ(counters.host_data()[1], kN) << "workers=" << w;
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(tickets.host_data()[i], i) << "workers=" << w << " i=" << i;
    }
  }
}

// First-wins election through a value-returning atomic: the winner must be
// the sequential one (block 0, thread 0) under every worker count.
TEST(ParallelLaunch, ElectionIsSequentialEquivalent) {
  constexpr int kGrid = 16, kBlock = 32;
  for (int w : kWorkerSweep) {
    Device dev;
    dev.set_host_workers(w);
    auto flag = dev.Alloc<uint32_t>(1).value();
    auto winner = dev.Alloc<uint32_t>(1).value();
    flag.host_data()[0] = 0;
    winner.host_data()[0] = 0xffffffffu;
    GlobalSpan<uint32_t> f(flag);
    GlobalSpan<uint32_t> win(winner);
    auto st = dev.Launch(
        {.grid_dim = kGrid, .block_dim = kBlock, .name = "election"},
        [&](Block& blk) {
          blk.ForEachThread([&](Thread& t) {
            if (f.AtomicAdd(t, 0, 1u) == 0) {
              win.Write(t, 0,
                        static_cast<uint32_t>(blk.block_idx()) * kBlock +
                            t.tid);
            }
          });
        });
    ASSERT_TRUE(st.ok()) << st.status();
    EXPECT_EQ(winner.host_data()[0], 0u) << "workers=" << w;
  }
}

// A grid that divides into neither 2, 7 nor 8 shards: every block must run
// exactly once.
TEST(ParallelLaunch, OddGridFullCoverage) {
  constexpr int kGrid = 13, kBlock = 32;
  for (int w : kWorkerSweep) {
    Device dev;
    dev.set_host_workers(w);
    auto buf = dev.Alloc<uint32_t>(kGrid).value();
    std::fill(buf.host_data(), buf.host_data() + kGrid, 0u);
    GlobalSpan<uint32_t> out(buf);
    auto st = dev.Launch(
        {.grid_dim = kGrid, .block_dim = kBlock, .name = "coverage"},
        [&](Block& blk) {
          blk.ForEachThread([&](Thread& t) {
            if (t.tid == 0) {
              out.ReduceAdd(t, static_cast<size_t>(blk.block_idx()), 1u);
            }
          });
        });
    ASSERT_TRUE(st.ok()) << st.status();
    for (int b = 0; b < kGrid; ++b) {
      EXPECT_EQ(buf.host_data()[b], 1u) << "workers=" << w << " block=" << b;
    }
  }
}

// --- Worker-count resolution -------------------------------------------------

TEST(ParallelLaunch, WorkerCountResolution) {
  {
    Device dev;
    dev.set_host_workers(6);
    EXPECT_EQ(dev.host_workers(), 6);
    dev.set_host_workers(0);  // clamps to 1
    EXPECT_EQ(dev.host_workers(), 1);
  }
  {
    ::setenv("MPTOPK_WORKERS", "3", 1);
    Device dev;
    EXPECT_EQ(dev.host_workers(), 3);
    ::unsetenv("MPTOPK_WORKERS");
  }
}

// --- Error paths -------------------------------------------------------------

TEST(ParallelLaunch, SharedOverflowStillFails) {
  for (int w : {1, 4}) {
    Device dev;
    dev.set_host_workers(w);
    auto st = dev.Launch(
        {.grid_dim = 8, .block_dim = 32, .name = "overflow"},
        [&](Block& blk) {
          auto s = blk.AllocShared<float>(64 * 1024);  // 256 KiB > 48 KiB
          blk.ForEachThread([&](Thread& t) { s.Write(t, t.tid, 0.0f); });
        });
    ASSERT_FALSE(st.ok()) << "workers=" << w;
    EXPECT_EQ(st.status().code(), StatusCode::kResourceExhausted)
        << "workers=" << w;
    EXPECT_NE(st.status().ToString().find("shared memory"), std::string::npos)
        << st.status().ToString();
  }
}

// --- Trace sampling ----------------------------------------------------------

// Ceil-division stride: grid 10 at target 3 must trace blocks {0, 4, 8} —
// three blocks, not the four the old floor-division stride produced.
TEST(ParallelLaunch, SampleStrideCeilDivision) {
  for (int w : kWorkerSweep) {
    Device dev;
    dev.set_host_workers(w);
    dev.set_trace_sample_target(3);
    auto buf = dev.Alloc<uint32_t>(320).value();
    GlobalSpan<uint32_t> out(buf);
    auto st = dev.Launch(
        {.grid_dim = 10, .block_dim = 32, .name = "sampled"},
        [&](Block& blk) {
          blk.ForEachThread([&](Thread& t) {
            out.Write(t, static_cast<size_t>(blk.block_idx()) * 32 + t.tid,
                      1u);
          });
        });
    ASSERT_TRUE(st.ok()) << st.status();
    EXPECT_EQ(st->metrics.blocks_traced, 3u) << "workers=" << w;
    EXPECT_EQ(st->metrics.blocks_launched, 10u) << "workers=" << w;
  }
}

// --- Full algorithm sweep ----------------------------------------------------

class AlgorithmSweep
    : public ::testing::TestWithParam<const topk::TopKOperator*> {};

TEST_P(AlgorithmSweep, BitIdenticalAcrossWorkerCounts) {
  const topk::TopKOperator* op = GetParam();
  const size_t n = 16384;
  // Power-of-two k so the hybrid runs too.
  const size_t k = 32;
  const auto data = UniformData(n, 20260807);

  Device base;
  base.set_host_workers(1);
  auto r0 = op->TopKHost(base, data.data(), n, k);
  ASSERT_TRUE(r0.ok()) << r0.status();

  for (int w : kWorkerSweep) {
    if (w == 1) continue;
    Device dev;
    dev.set_host_workers(w);
    auto r = op->TopKHost(dev, data.data(), n, k);
    ASSERT_TRUE(r.ok()) << r.status();
    const std::string label = op->name() + " workers=" + std::to_string(w);
    ASSERT_EQ(r0->items.size(), r->items.size()) << label;
    for (size_t i = 0; i < r->items.size(); ++i) {
      EXPECT_EQ(KeyTraits<float>::ToOrderedBits(r0->items[i]),
                KeyTraits<float>::ToOrderedBits(r->items[i]))
          << label << " i=" << i;
    }
    ExpectLogsEq(base, dev, label);
  }
}

TEST_P(AlgorithmSweep, BitIdenticalUnderTraceSampling) {
  const topk::TopKOperator* op = GetParam();
  const size_t n = 16384;
  const size_t k = 32;
  const auto data = UniformData(n, 77);

  Device base;
  base.set_host_workers(1);
  base.set_trace_sample_target(4);
  auto r0 = op->TopKHost(base, data.data(), n, k);
  ASSERT_TRUE(r0.ok()) << r0.status();

  for (int w : {7, 8}) {
    Device dev;
    dev.set_host_workers(w);
    dev.set_trace_sample_target(4);
    auto r = op->TopKHost(dev, data.data(), n, k);
    ASSERT_TRUE(r.ok()) << r.status();
    ExpectLogsEq(base, dev, op->name() + " sampled workers=" +
                                std::to_string(w));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSweep,
    ::testing::ValuesIn(topk::GpuSweepOperators(true)),
    [](const auto& info) { return info.param->name(); });

TEST(ParallelLaunch, ChunkedBitIdenticalAcrossWorkerCounts) {
  const size_t n = 16384, k = 37;
  const auto data = UniformData(n, 4242);
  const size_t chunk = n / 3 + 1;

  Device base;
  base.set_host_workers(1);
  auto r0 = gpu::ChunkedTopK(base, data.data(), n, k, chunk);
  ASSERT_TRUE(r0.ok()) << r0.status();

  for (int w : kWorkerSweep) {
    if (w == 1) continue;
    Device dev;
    dev.set_host_workers(w);
    auto r = gpu::ChunkedTopK(dev, data.data(), n, k, chunk);
    ASSERT_TRUE(r.ok()) << r.status();
    const std::string label = "chunked workers=" + std::to_string(w);
    ASSERT_EQ(r0->items.size(), r->items.size()) << label;
    for (size_t i = 0; i < r->items.size(); ++i) {
      EXPECT_EQ(KeyTraits<float>::ToOrderedBits(r0->items[i]),
                KeyTraits<float>::ToOrderedBits(r->items[i]))
          << label << " i=" << i;
    }
    ExpectLogsEq(base, dev, label);
  }
}

// --- Engine queries ----------------------------------------------------------

// Filter + top-k (the scatter-counter path) and hash group-by (the CAS
// path) across worker counts: results, per-query times and the device's
// whole simulated timeline must match workers=1.
TEST(ParallelLaunch, EngineQueriesBitIdentical) {
  using namespace mptopk::engine;
  constexpr size_t kRows = 1 << 15;

  struct Run {
    QueryResult q1;
    GroupByResult q4;
    double q1_ms, q4_ms;
    double total_sim_ms;
    double makespan_ms;
  };
  auto run_queries = [&](int workers, Device* dev_out) {
    Device& dev = *dev_out;
    dev.set_host_workers(workers);
    auto table = std::move(MakeTweetsTable(&dev, kRows, 123).value());
    Filter f{{{"tweet_time", CompareOp::kLt, 0.5 * kTweetTimeRange}}};
    Ranking rank{{{"retweet_count", 1.0}}};
    const simt::DeviceTimeTracker q1_clock(dev);
    auto q1 = FilterTopKQuery(*table, f, rank, "id", 50,
                              TopKStrategy::kFilterBitonic);
    EXPECT_TRUE(q1.ok()) << q1.status();
    const double q1_ms = q1_clock.ElapsedMs();
    const simt::DeviceTimeTracker q4_clock(dev);
    auto q4 = GroupByCountTopKQuery(*table, "uid", 50, GroupByStrategy::kSort);
    EXPECT_TRUE(q4.ok()) << q4.status();
    if (!q1.ok() || !q4.ok()) return Run{};
    return Run{*q1, *q4, q1_ms, q4_clock.ElapsedMs(), dev.total_sim_ms(),
               dev.makespan_ms()};
  };

  Device base_dev;
  Run base = run_queries(1, &base_dev);
  for (int w : kWorkerSweep) {
    if (w == 1) continue;
    Device dev;
    Run r = run_queries(w, &dev);
    const std::string label = "engine workers=" + std::to_string(w);
    EXPECT_EQ(base.q1.ids, r.q1.ids) << label;
    EXPECT_EQ(base.q1.rank_values, r.q1.rank_values) << label;
    EXPECT_EQ(base.q1.matched_rows, r.q1.matched_rows) << label;
    EXPECT_EQ(base.q1_ms, r.q1_ms) << label;
    EXPECT_EQ(base.q4.keys, r.q4.keys) << label;
    EXPECT_EQ(base.q4.counts, r.q4.counts) << label;
    EXPECT_EQ(base.q4.num_groups, r.q4.num_groups) << label;
    EXPECT_EQ(base.q4_ms, r.q4_ms) << label;
    EXPECT_EQ(base.total_sim_ms, r.total_sim_ms) << label;
    EXPECT_EQ(base.makespan_ms, r.makespan_ms) << label;
    ExpectLogsEq(base_dev, dev, label);
  }
}

// --- Racecheck under parallel execution --------------------------------------

// The checker analyzes traced blocks independently; per-block reports are
// merged in block order, so hazard attribution matches workers=1 exactly.
TEST(ParallelLaunch, RacecheckReportsMatchSequential) {
  auto racy_launch = [](Device& dev) {
    auto buf = dev.Alloc<uint32_t>(6 * 64).value();
    GlobalSpan<uint32_t> data(buf);
    return dev.Launch(
        {.grid_dim = 6, .block_dim = 64, .name = "racy"},
        [&](Block& blk) {
          auto s = blk.AllocShared<uint32_t>(64);
          blk.ForEachThread(
              [&](Thread& t) { s.Write(t, t.tid, t.tid); });
          // Missing Sync(): same-epoch cross-warp R/W hazard on shared
          // memory. Global writes stay per-block disjoint — cross-block
          // plain writes to one address would be a real host race here,
          // exactly as they would be UB on hardware.
          blk.ForEachThread([&](Thread& t) {
            data.Write(t, static_cast<size_t>(blk.block_idx()) * 64 + t.tid,
                       s.Read(t, 63 - t.tid));
          });
        });
  };

  Device base;
  base.set_host_workers(1);
  base.set_racecheck(true);
  auto r0 = racy_launch(base);
  ASSERT_TRUE(r0.ok()) << r0.status();
  ASSERT_GT(r0->race.hazard_count, 0u);

  for (int w : {2, 7, 8}) {
    Device dev;
    dev.set_host_workers(w);
    dev.set_racecheck(true);
    auto r = racy_launch(dev);
    ASSERT_TRUE(r.ok()) << r.status();
    const std::string label = "racecheck workers=" + std::to_string(w);
    EXPECT_EQ(r0->race.hazard_count, r->race.hazard_count) << label;
    ASSERT_EQ(r0->race.hazards.size(), r->race.hazards.size()) << label;
    for (size_t i = 0; i < r0->race.hazards.size(); ++i) {
      EXPECT_EQ(r0->race.hazards[i].block_idx, r->race.hazards[i].block_idx)
          << label << " i=" << i;
      EXPECT_EQ(r0->race.hazards[i].a.tid, r->race.hazards[i].a.tid)
          << label << " i=" << i;
      EXPECT_EQ(r0->race.hazards[i].b.tid, r->race.hazards[i].b.tid)
          << label << " i=" << i;
    }
    EXPECT_EQ(base.race_report().hazard_count, dev.race_report().hazard_count)
        << label;
  }
}

// --- Differential sweep at 4 workers -----------------------------------------

// A compact version of the property-differential campaign pinned to 4
// workers: every algorithm + chunked against the partial_sort oracle. (CI
// additionally runs the full 240-case sweep with MPTOPK_WORKERS=4 on the
// Release leg.)
TEST(ParallelLaunch, DifferentialSweepAtFourWorkers) {
  for (size_t n : {257u, 4096u, 16384u}) {
    for (size_t k : {1u, 32u, 100u}) {
      const size_t kk = std::min(k, n);
      const auto data = UniformData(n, 1000 + n + k);
      std::vector<uint32_t> oracle(n);
      for (size_t i = 0; i < n; ++i) {
        oracle[i] = KeyTraits<float>::ToOrderedBits(data[i]);
      }
      std::partial_sort(oracle.begin(), oracle.begin() + kk, oracle.end(),
                        std::greater<uint32_t>());
      oracle.resize(kk);

      auto check = [&](const std::vector<float>& items,
                       const std::string& name) {
        ASSERT_EQ(items.size(), kk) << name << " n=" << n << " k=" << kk;
        std::vector<uint32_t> bits;
        for (float v : items) bits.push_back(KeyTraits<float>::ToOrderedBits(v));
        std::sort(bits.begin(), bits.end(), std::greater<uint32_t>());
        EXPECT_EQ(bits, oracle) << name << " n=" << n << " k=" << kk;
      };

      for (const topk::TopKOperator* op : topk::GpuSweepOperators()) {
        Device dev;
        dev.set_host_workers(4);
        auto r = op->TopKHost(dev, data.data(), n, kk);
        ASSERT_TRUE(r.ok()) << op->name() << " n=" << n << " k=" << kk
                            << ": " << r.status().ToString();
        check(r->items, op->name());
      }
      {
        Device dev;
        dev.set_host_workers(4);
        auto r = gpu::ChunkedTopK(dev, data.data(), n, kk,
                                  std::max(kk, n / 3 + 1));
        ASSERT_TRUE(r.ok()) << "chunked n=" << n << " k=" << kk;
        check(r->items, "chunked");
      }
    }
  }
}

}  // namespace
}  // namespace mptopk
