// Barrier-epoch race checker (simt/racecheck.h): true-positive mutant
// kernels with a deliberately removed Sync() MUST be flagged with the right
// (epoch, tid) attribution; lockstep / atomic exemptions must hold; and the
// false-positive gate asserts every shipped kernel — the five gputopk
// algorithms, hybrid, chunked, and the engine's fused query kernels —
// launches clean under the checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "engine/query.h"
#include "engine/tweets.h"
#include "gputopk/chunked.h"
#include "simt/device.h"
#include "simt/racecheck.h"

namespace mptopk {
namespace {

using simt::Block;
using simt::Device;
using simt::RaceHazard;
using simt::RaceReport;
using simt::Thread;

Device RacecheckDevice() {
  Device dev;
  dev.set_racecheck(true);
  return dev;
}

// --- True positives: mutants the checker MUST flag -------------------------

// A write region followed by a cross-thread read region with the barrier
// deliberately removed — the canonical missing-__syncthreads bug. The
// sequential ForEachThread loops still compute the "right" values, which is
// exactly why only the checker can catch it.
TEST(RacecheckMutants, MissingSyncReadAfterWriteIsFlagged) {
  Device dev = RacecheckDevice();
  auto st = dev.Launch({1, 64, 32, "mutant_missing_sync"}, [&](Block& blk) {
    auto buf = blk.AllocShared<float>(64);
    float* sink = blk.ThreadScratch<float>(1);
    blk.ForEachThread(
        [&](Thread& t) { buf.Write(t, t.tid, static_cast<float>(t.tid)); });
    // MISSING blk.Sync(): the reads below cross thread boundaries.
    blk.ForEachThread(
        [&](Thread& t) { sink[t.tid] = buf.Read(t, (t.tid + 1) % 64); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  const RaceReport& report = dev.race_report();
  ASSERT_FALSE(report.clean()) << "mutant not flagged";
  EXPECT_GE(report.hazard_count, 64u);  // one RW pair per element
  // Attribution: tid 1's write of element 1 races tid 0's read of it, in
  // epoch 0 (no barrier ever executed), at byte range [4, 8) of the arena.
  bool found = false;
  for (const RaceHazard& h : report.hazards) {
    EXPECT_EQ(h.epoch, 0u) << h.ToString();
    EXPECT_EQ(h.space, RaceHazard::Space::kShared) << h.ToString();
    EXPECT_NE(h.a.tid, h.b.tid) << h.ToString();
    if (h.a.tid == 0 && h.b.tid == 1 && h.addr == 4 && h.bytes == 4 &&
        !h.a.write && h.b.write) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "expected tid0-read vs tid1-write hazard at [4,8): "
                     << report.Summary();
  // The per-launch report on KernelStats carries the same hazards.
  ASSERT_FALSE(dev.kernel_log().empty());
  EXPECT_EQ(dev.kernel_log().back().race.hazard_count, report.hazard_count);
}

// Same mutant, but with a barrier placed *before* the racing regions: the
// hazards must be attributed to epoch 1, proving the epoch counter follows
// Sync() rather than region boundaries.
TEST(RacecheckMutants, EpochAttributionFollowsSync) {
  Device dev = RacecheckDevice();
  auto st = dev.Launch({1, 64, 32, "mutant_epoch1"}, [&](Block& blk) {
    auto buf = blk.AllocShared<float>(64);
    float* sink = blk.ThreadScratch<float>(1);
    blk.ForEachThread([&](Thread& t) { buf.Write(t, t.tid, 0.0f); });
    blk.Sync();  // epoch 0 -> 1
    blk.ForEachThread(
        [&](Thread& t) { buf.Write(t, t.tid, static_cast<float>(t.tid)); });
    // MISSING blk.Sync()
    blk.ForEachThread(
        [&](Thread& t) { sink[t.tid] = buf.Read(t, (t.tid + 1) % 64); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  const RaceReport& report = dev.race_report();
  ASSERT_FALSE(report.clean());
  for (const RaceHazard& h : report.hazards) {
    EXPECT_EQ(h.epoch, 1u) << h.ToString();
  }
}

// Restoring the barrier makes the same kernel clean: write (epoch 0) and
// read (epoch 1) no longer conflict.
TEST(RacecheckMutants, SyncRepairsTheMutant) {
  Device dev = RacecheckDevice();
  auto st = dev.Launch({1, 64, 32, "repaired"}, [&](Block& blk) {
    auto buf = blk.AllocShared<float>(64);
    float* sink = blk.ThreadScratch<float>(1);
    blk.ForEachThread(
        [&](Thread& t) { buf.Write(t, t.tid, static_cast<float>(t.tid)); });
    blk.Sync();
    blk.ForEachThread(
        [&](Thread& t) { sink[t.tid] = buf.Read(t, (t.tid + 1) % 64); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE(dev.race_report().clean()) << dev.race_report().Summary();
}

// Intra-region write/write overlap: every thread stores to shared word 0 in
// one region. Lanes of one warp do so in lockstep (same SIMT instruction —
// exempt, as on real racecheck), but the two warps of the block genuinely
// race each other.
TEST(RacecheckMutants, CrossWarpWriteWriteFlaggedLockstepExempt) {
  Device dev = RacecheckDevice();
  auto st = dev.Launch({1, 64, 32, "mutant_ww"}, [&](Block& blk) {
    auto buf = blk.AllocShared<float>(1);
    blk.ForEachThread([&](Thread& t) { buf.Write(t, 0, 1.0f); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  const RaceReport& report = dev.race_report();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.hazard_count, 32u * 32u);  // warp0 x warp1 pairs
  for (const RaceHazard& h : report.hazards) {
    EXPECT_NE(h.a.warp, h.b.warp) << "lockstep pair flagged: " << h.ToString();
    EXPECT_TRUE(h.a.write && h.b.write) << h.ToString();
  }

  // A single warp doing the same thing is pure lockstep: clean.
  Device one_warp = RacecheckDevice();
  st = one_warp.Launch({1, 32, 32, "lockstep"}, [&](Block& blk) {
    auto buf = blk.AllocShared<float>(1);
    blk.ForEachThread([&](Thread& t) { buf.Write(t, 0, 1.0f); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE(one_warp.race_report().clean())
      << one_warp.race_report().Summary();
}

// Atomics serialize in hardware: a block-wide shared AtomicAdd to one word
// is exempt, but a plain write racing those atomics is still a hazard.
TEST(RacecheckMutants, AtomicsExemptPlainWriteAgainstAtomicFlagged) {
  Device dev = RacecheckDevice();
  auto st = dev.Launch({1, 64, 32, "atomic_clean"}, [&](Block& blk) {
    auto cnt = blk.AllocShared<uint32_t>(1);
    blk.ForEachThread([&](Thread& t) {
      if (t.tid == 0) cnt.Write(t, 0, 0);
    });
    blk.Sync();
    blk.ForEachThread([&](Thread& t) { cnt.AtomicAdd(t, 0, 1u); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE(dev.race_report().clean()) << dev.race_report().Summary();

  Device mixed = RacecheckDevice();
  st = mixed.Launch({1, 64, 32, "atomic_vs_write"}, [&](Block& blk) {
    auto cnt = blk.AllocShared<uint32_t>(1);
    blk.ForEachThread([&](Thread& t) {
      if (t.tid == 63) {
        cnt.Write(t, 0, 0);  // plain store racing the atomics below
      } else {
        cnt.AtomicAdd(t, 0, 1u);
      }
    });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  const RaceReport& report = mixed.race_report();
  ASSERT_FALSE(report.clean());
  for (const RaceHazard& h : report.hazards) {
    EXPECT_TRUE(!h.a.atomic || !h.b.atomic) << h.ToString();
  }
}

// Global memory is checked per block too: conflicting plain stores to one
// global word are flagged, the atomic equivalent is not.
TEST(RacecheckMutants, GlobalPerBlockHazard) {
  Device dev = RacecheckDevice();
  auto buf = dev.Alloc<uint32_t>(1).value();
  simt::GlobalSpan<uint32_t> g(buf);
  auto st = dev.Launch({1, 64, 32, "mutant_global_ww"}, [&](Block& blk) {
    blk.ForEachThread(
        [&](Thread& t) { g.Write(t, 0, static_cast<uint32_t>(t.tid)); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  const RaceReport& report = dev.race_report();
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.hazards.front().space, RaceHazard::Space::kGlobal);

  Device atomic_dev = RacecheckDevice();
  auto buf2 = atomic_dev.Alloc<uint32_t>(1).value();
  simt::GlobalSpan<uint32_t> g2(buf2);
  st = atomic_dev.Launch({1, 64, 32, "global_atomic"}, [&](Block& blk) {
    blk.ForEachThread([&](Thread& t) { g2.AtomicAdd(t, 0, 1u); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE(atomic_dev.race_report().clean())
      << atomic_dev.race_report().Summary();
}

// With the checker off, the same mutant reports nothing (and no launch ever
// pays for checking): opt-in means opt-in.
TEST(RacecheckMutants, CheckerOffReportsNothing) {
  Device dev;  // racecheck defaults off (absent MPTOPK_RACECHECK)
  if (dev.racecheck()) GTEST_SKIP() << "MPTOPK_RACECHECK set in environment";
  auto st = dev.Launch({1, 64, 32, "mutant_missing_sync"}, [&](Block& blk) {
    auto buf = blk.AllocShared<float>(64);
    float* sink = blk.ThreadScratch<float>(1);
    blk.ForEachThread(
        [&](Thread& t) { buf.Write(t, t.tid, static_cast<float>(t.tid)); });
    blk.ForEachThread(
        [&](Thread& t) { sink[t.tid] = buf.Read(t, (t.tid + 1) % 64); });
  });
  ASSERT_TRUE(st.ok()) << st.status().ToString();
  EXPECT_TRUE(dev.race_report().clean());
  EXPECT_EQ(dev.race_report().blocks_checked, 0u);
}

// The checker is analysis-only: enabling it must not move a single bit of
// the simulated timings (the zero-cost-when-off acceptance criterion, tested
// from the stronger side: even ON it changes nothing).
TEST(Racecheck, TimingsBitIdenticalWithCheckerOnAndOff) {
  auto data = GenerateFloats(1 << 14, Distribution::kUniform, 11);
  Device off;
  off.set_racecheck(false);
  Device on = RacecheckDevice();
  const topk::TopKOperator* bitonic =
      topk::FindOperator("BitonicTopK").value();
  auto r_off = bitonic->TopKHost(off, data.data(), data.size(), 64);
  auto r_on = bitonic->TopKHost(on, data.data(), data.size(), 64);
  ASSERT_TRUE(r_off.ok() && r_on.ok());
  EXPECT_EQ(off.total_sim_ms(), on.total_sim_ms());  // exact, not near
}

// --- False-positive gate: every shipped kernel launches clean --------------

TEST(RacecheckGate, AllGpuAlgorithmsClean) {
  auto data = GenerateFloats(1 << 15, Distribution::kUniform, 7);
  for (const topk::TopKOperator* op : topk::GpuSweepOperators(true)) {
    for (size_t k : {size_t{1}, size_t{32}, size_t{100}, size_t{256}}) {
      Device dev = RacecheckDevice();
      auto r = op->TopKHost(dev, data.data(), data.size(), k);
      if (!r.ok()) {
        // Per-thread top-k legitimately exhausts shared memory at large k.
        ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
            << op->name() << " k=" << k << ": " << r.status().ToString();
        continue;
      }
      EXPECT_TRUE(dev.race_report().clean())
          << op->name() << " k=" << k << ": " << dev.race_report().Summary();
      EXPECT_GT(dev.race_report().blocks_checked, 0u) << op->name();
    }
  }
}

TEST(RacecheckGate, ChunkedClean) {
  auto data = GenerateFloats(1 << 15, Distribution::kUniform, 9);
  Device dev = RacecheckDevice();
  auto r = gpu::ChunkedTopK(dev, data.data(), data.size(), 64,
                            /*chunk_elems=*/1 << 13);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(dev.race_report().clean()) << dev.race_report().Summary();
}

TEST(RacecheckGate, EngineQueriesClean) {
  simt::Device dev;
  auto table = engine::MakeTweetsTable(&dev, 1 << 14, 123).value();
  dev.set_racecheck(true);
  engine::Filter filter{{engine::FilterClause{
      "tweet_time", engine::CompareOp::kLt, 1000.0}}};
  engine::Ranking ranking{{engine::RankingTerm{"retweet_count", 1.0}}};
  for (auto strategy :
       {engine::TopKStrategy::kFilterSort, engine::TopKStrategy::kFilterBitonic,
        engine::TopKStrategy::kCombinedBitonic}) {
    const uint64_t checked = dev.race_report().blocks_checked;
    auto r = engine::FilterTopKQuery(*table, filter, ranking, "id", 64,
                                     strategy);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(dev.race_report().clean())
        << StrategyName(strategy) << ": " << dev.race_report().Summary();
    EXPECT_GT(dev.race_report().blocks_checked, checked)
        << StrategyName(strategy);
  }

  auto g = engine::GroupByCountTopKQuery(*table, "lang", 8,
                                         engine::GroupByStrategy::kBitonic);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_TRUE(dev.race_report().clean()) << dev.race_report().Summary();
}

TEST(Racecheck, EnvToggleEnablesDevice) {
  const char* orig = std::getenv("MPTOPK_RACECHECK");
  const std::string saved = orig != nullptr ? orig : "";
  ASSERT_EQ(setenv("MPTOPK_RACECHECK", "1", 1), 0);
  Device on;
  EXPECT_TRUE(on.racecheck());
  ASSERT_EQ(setenv("MPTOPK_RACECHECK", "0", 1), 0);
  Device off;
  EXPECT_FALSE(off.racecheck());
  if (orig != nullptr) {
    setenv("MPTOPK_RACECHECK", saved.c_str(), 1);
  } else {
    unsetenv("MPTOPK_RACECHECK");
  }
}

}  // namespace
}  // namespace mptopk
