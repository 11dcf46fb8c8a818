// The region memo (simt::Block::ForEachThreadOblivious) must be invisible in
// every simulated number. Each case runs the same call on a device with the
// race checker off, where traced blocks take data-oblivious region costs
// from the per-worker memo, and on one with it armed, where the tracer
// retains accesses and the memo is bypassed; every launch's KernelStats
// must be equal, including the bits of its simulated times.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "common/tuple_types.h"
#include "engine/query.h"
#include "engine/tweets.h"
#include "gputopk/kernel_util.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

constexpr uint64_t kSeed = 11;

// Same as trace_equivalence_test: 64-byte sectors and 16 banks of 8 bytes.
simt::DeviceSpec OtherGeometry() {
  simt::DeviceSpec spec = simt::DeviceSpec::TeslaP100();
  spec.sector_bytes = 64;
  spec.bank_width_bytes = 8;
  spec.shared_mem_banks = 16;
  return spec;
}

// A device whose traced blocks use the memo, and its memo-off reference.
struct DevicePair {
  explicit DevicePair(
      const simt::DeviceSpec& spec = simt::DeviceSpec::TitanXMaxwell())
      : memo(spec), reference(spec) {
    memo.set_racecheck(false);
    reference.set_racecheck(true);
  }
  simt::Device memo;
  simt::Device reference;
};

// Expects launches [from, end) of the two logs to be identical.
void ExpectSameLaunches(const simt::Device& got, size_t got_from,
                        const simt::Device& want, size_t want_from,
                        const std::string& what) {
  const auto& a = got.kernel_log();
  const auto& b = want.kernel_log();
  ASSERT_EQ(a.size() - got_from, b.size() - want_from) << what;
  for (size_t i = 0; i < a.size() - got_from; ++i) {
    const simt::KernelStats& x = a[got_from + i];
    const simt::KernelStats& y = b[want_from + i];
    const std::string at = what + ", launch " + std::to_string(i) + " " + x.name;
    EXPECT_EQ(x.name, y.name) << at;
    EXPECT_EQ(x.resources.grid_dim, y.resources.grid_dim) << at;
    EXPECT_EQ(x.resources.block_dim, y.resources.block_dim) << at;
    EXPECT_EQ(x.resources.shared_bytes_per_block,
              y.resources.shared_bytes_per_block) << at;
    const simt::KernelMetrics& m = x.metrics;
    const simt::KernelMetrics& n = y.metrics;
    EXPECT_EQ(m.global_transactions, n.global_transactions) << at;
    EXPECT_EQ(m.global_bytes, n.global_bytes) << at;
    EXPECT_EQ(m.global_useful_bytes, n.global_useful_bytes) << at;
    EXPECT_EQ(m.local_bytes, n.local_bytes) << at;
    EXPECT_EQ(m.shared_cycles, n.shared_cycles) << at;
    EXPECT_EQ(m.shared_bytes, n.shared_bytes) << at;
    EXPECT_EQ(m.shared_useful_bytes, n.shared_useful_bytes) << at;
    EXPECT_EQ(m.bank_conflict_cycles, n.bank_conflict_cycles) << at;
    EXPECT_EQ(m.shared_atomic_cycles, n.shared_atomic_cycles) << at;
    EXPECT_EQ(m.global_atomics, n.global_atomics) << at;
    EXPECT_EQ(m.dependent_stall_cycles, n.dependent_stall_cycles) << at;
    EXPECT_EQ(m.warp_instructions, n.warp_instructions) << at;
    EXPECT_EQ(m.divergent_lane_slots, n.divergent_lane_slots) << at;
    EXPECT_EQ(m.blocks_traced, n.blocks_traced) << at;
    EXPECT_EQ(m.blocks_launched, n.blocks_launched) << at;
    EXPECT_EQ(std::bit_cast<uint64_t>(x.time.total_ms),
              std::bit_cast<uint64_t>(y.time.total_ms)) << at;
    EXPECT_EQ(std::bit_cast<uint64_t>(x.end_ms),
              std::bit_cast<uint64_t>(y.end_ms)) << at;
  }
}

template <typename E>
std::vector<E> MakeInput(size_t n);

template <>
std::vector<float> MakeInput<float>(size_t n) {
  return GenerateFloats(n, Distribution::kUniform, kSeed);
}
template <>
std::vector<KV> MakeInput<KV>(size_t n) {
  std::vector<KV> out;
  for (float key : GenerateFloats(n, Distribution::kUniform, kSeed)) {
    out.push_back(KV{key, static_cast<uint32_t>(out.size())});
  }
  return out;
}
template <>
std::vector<KKKV> MakeInput<KKKV>(size_t n) {
  std::vector<KKKV> out;
  const auto keys = GenerateFloats(n, Distribution::kUniform, kSeed);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(KKKV{keys[i], keys[(i * 7) % n], keys[(i * 13) % n],
                       static_cast<uint32_t>(i)});
  }
  return out;
}

// Runs `op` on `in` on both devices of `pair` and compares the launches and
// answers.
template <typename E>
void CompareCall(const std::string& op_name, const std::vector<E>& in,
                 size_t k, DevicePair* pair) {
  const topk::TopKOperator* op = topk::FindOperator(op_name).value();
  const std::string what = op_name + " sizeof(E)=" +
                           std::to_string(sizeof(E)) + " n=" +
                           std::to_string(in.size()) +
                           " k=" + std::to_string(k);
  const size_t memo_from = pair->memo.kernel_log().size();
  const size_t ref_from = pair->reference.kernel_log().size();
  auto got = op->TopKHost(pair->memo, in.data(), in.size(), k);
  auto want = op->TopKHost(pair->reference, in.data(), in.size(), k);
  ASSERT_EQ(got.status().code(), want.status().code()) << what;
  if (got.ok()) {
    ASSERT_EQ(got->items.size(), want->items.size()) << what;
    EXPECT_EQ(0, std::memcmp(got->items.data(), want->items.data(),
                             got->items.size() * sizeof(E)))
        << what;
  }
  ExpectSameLaunches(pair->memo, memo_from, pair->reference, ref_from, what);
}

template <typename E>
void CompareBitonicFamily(size_t n) {
  const std::vector<E> in = MakeInput<E>(n);
  for (const char* op : {"BitonicTopK", "HybridTopK"}) {
    for (size_t k : {1, 32, 256, 1024}) {
      DevicePair pair;
      CompareCall<E>(op, in, k, &pair);
    }
  }
}

TEST(RegionMemo, BitonicAndHybridMatchMemoOff) {
  for (size_t n : {5000, 131172}) {
    CompareBitonicFamily<float>(n);
    CompareBitonicFamily<KV>(n);
    CompareBitonicFamily<KKKV>(n);
  }
}

TEST(RegionMemo, SortMatchesMemoOff) {
  for (size_t n : {5000, 40000}) {
    DevicePair pair;
    CompareCall<float>("Sort", MakeInput<float>(n), 64, &pair);
    CompareCall<KV>("Sort", MakeInput<KV>(n), 64, &pair);
  }
}

TEST(RegionMemo, TweetQueriesMatchMemoOff) {
  using engine::CompareOp;
  using engine::Filter;
  using engine::Ranking;
  using engine::TopKStrategy;
  constexpr size_t kRows = 5000;
  const Ranking by_retweets{{{"retweet_count", 1.0}}};
  struct Q {
    const char* name;
    Filter filter;
    Ranking ranking;
    size_t k;
  };
  const std::vector<Q> queries = {
      {"q1", Filter{{{"tweet_time", CompareOp::kLt,
                      0.5 * engine::kTweetTimeRange}}},
       by_retweets, 50},
      {"q2", Filter{},
       Ranking{{{"retweet_count", 1.0}, {"likes_count", 0.5}}}, 64},
      {"q3", Filter{{{"lang", CompareOp::kEq, engine::kLangEn},
                     {"lang", CompareOp::kEq, engine::kLangEs}}},
       by_retweets, 64},
  };
  for (const Q& q : queries) {
    for (TopKStrategy strategy :
         {TopKStrategy::kFilterSort, TopKStrategy::kFilterBitonic,
          TopKStrategy::kCombinedBitonic}) {
      DevicePair pair;
      auto memo_table =
          engine::MakeTweetsTable(&pair.memo, kRows, kSeed).value();
      auto ref_table =
          engine::MakeTweetsTable(&pair.reference, kRows, kSeed).value();
      const size_t memo_from = pair.memo.kernel_log().size();
      const size_t ref_from = pair.reference.kernel_log().size();
      auto got = engine::FilterTopKQuery(*memo_table, q.filter, q.ranking,
                                         "id", q.k, strategy);
      auto want = engine::FilterTopKQuery(*ref_table, q.filter, q.ranking,
                                          "id", q.k, strategy);
      const std::string what =
          std::string(q.name) + "/" + engine::StrategyName(strategy);
      ASSERT_TRUE(got.ok() && want.ok()) << what;
      EXPECT_EQ(got->ids, want->ids) << what;
      ExpectSameLaunches(pair.memo, memo_from, pair.reference, ref_from,
                         what);
    }
  }
  for (engine::GroupByStrategy strategy :
       {engine::GroupByStrategy::kSort, engine::GroupByStrategy::kBitonic}) {
    DevicePair pair;
    auto memo_table = engine::MakeTweetsTable(&pair.memo, kRows, kSeed).value();
    auto ref_table =
        engine::MakeTweetsTable(&pair.reference, kRows, kSeed).value();
    const size_t memo_from = pair.memo.kernel_log().size();
    const size_t ref_from = pair.reference.kernel_log().size();
    auto got = engine::GroupByCountTopKQuery(*memo_table, "uid", 50, strategy);
    auto want = engine::GroupByCountTopKQuery(*ref_table, "uid", 50, strategy);
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(got->keys, want->keys);
    EXPECT_EQ(got->counts, want->counts);
    ExpectSameLaunches(pair.memo, memo_from, pair.reference, ref_from, "q4");
  }
}

// A second call finds every region in the memo; it must log exactly what
// the first (cold) call logged on a fresh device.
TEST(RegionMemo, WarmMemoEqualsCold) {
  const std::vector<float> in = MakeInput<float>(131172);
  const topk::TopKOperator* op = topk::FindOperator("BitonicTopK").value();
  simt::Device cold;
  simt::Device warm;
  cold.set_racecheck(false);
  warm.set_racecheck(false);
  ASSERT_TRUE(op->TopKHost(cold, in.data(), in.size(), 256).ok());
  ASSERT_TRUE(op->TopKHost(warm, in.data(), in.size(), 256).ok());
  const auto first = warm.region_memo_stats();
  EXPECT_GT(first.misses, 0u);
  EXPECT_GT(first.hits, 0u);
  warm.ResetAccounting();
  ASSERT_TRUE(op->TopKHost(warm, in.data(), in.size(), 256).ok());
  const auto second = warm.region_memo_stats();
  EXPECT_EQ(second.misses, first.misses) << "the second call missed";
  EXPECT_GT(second.hits, first.hits);
  ExpectSameLaunches(warm, 0, cold, 0, "warm vs cold");
}

// Two devices of different bank and sector geometry, called in turn: each
// keeps its own memo, so neither prices a region with the other's costs.
TEST(RegionMemo, DevicesOfDifferentGeometryKeepTheirOwnCosts) {
  DevicePair titan;
  DevicePair other(OtherGeometry());
  const std::vector<float> in = MakeInput<float>(40000);
  for (size_t k : {32, 256, 32, 256}) {
    CompareCall<float>("BitonicTopK", in, k, &titan);
    CompareCall<float>("BitonicTopK", in, k, &other);
  }
  EXPECT_GT(titan.memo.region_memo_stats().hits, 0u);
  EXPECT_GT(other.memo.region_memo_stats().hits, 0u);
}

// A launch of `grid` blocks of 64 threads whose every block runs `body`.
template <typename Body>
void LaunchBoth(DevicePair* pair, int grid, const Body& body) {
  for (simt::Device* dev : {&pair->memo, &pair->reference}) {
    ASSERT_TRUE(dev->Launch({.grid_dim = grid, .block_dim = 64}, body).ok());
  }
}

// Regions of one shape run with 40 threads (a partial second warp) and with
// 64; and one shape over span pairs whose relative bank offset differs, so
// a key without the count or the base offsets gives a wrong cost.
TEST(RegionMemo, PartialWarpsAndBaseOffsets) {
  DevicePair pair;
  LaunchBoth(&pair, 6, [](simt::Block& blk) {
    auto x = blk.AllocShared<uint32_t>(32);  // at 0
    auto y = blk.AllocShared<uint32_t>(48);  // at 128 B
    auto z = blk.AllocShared<uint32_t>(64);  // at 320 B
    for (int count : {40, 64, 40}) {
      blk.ForEachThreadOblivious(
          simt::RegionShape(1, y.base_offset(), z.base_offset()), count,
          [&](simt::Thread& t) {
            z.Write(t, t.tid, y.Read(t, (t.tid * 3) % 48));
          },
          [&] {
            for (int tid = 0; tid < count; ++tid) {
              z.Untraced(tid) = y.Untraced((tid * 3) % 48);
            }
          });
      blk.Sync();
    }
    // Lanes 0-15 read x[lane] and lanes 16-31 b[lane - 16] in one warp
    // instruction: two-way conflicted when b - x is a multiple of the
    // 128-byte bank row (y), conflict-free at +320 B (z).
    for (auto b : {y, z, y}) {
      blk.ForEachThreadOblivious(
          simt::RegionShape(2, x.base_offset(), b.base_offset()), 32,
          [&](simt::Thread& t) {
            if (t.lane < 16) {
              x.Read(t, t.lane);
            } else {
              b.Read(t, t.lane - 16);
            }
          },
          [] {});
      blk.Sync();
    }
  });
  ExpectSameLaunches(pair.memo, 0, pair.reference, 0, "custom regions");
  // Each worker's first block misses the four shapes once; every other
  // region hits (at most six workers share the six blocks).
  const auto st = pair.memo.region_memo_stats();
  EXPECT_EQ(st.hits + st.misses, 6u * 6u);
  EXPECT_EQ(st.misses % 4, 0u);
  EXPECT_GE(st.hits, 2u * 6u);
}

// A memo hit runs the native body alone: it records no access, so the
// tracer's open slot tables stay empty, and it adds exactly the cost the
// miss stored. A native body that ran the SIMT code with the tracer still
// set would trace every hit a second time.
TEST(RegionMemo, HitRecordsNothingAndAddsTheStoredCost) {
  const simt::DeviceSpec spec = simt::DeviceSpec::TitanXMaxwell();
  simt::RegionMemo memo;
  simt::BlockTracer tracer(spec, 64, /*retain_accesses=*/false, &memo);
  simt::Block blk(spec, 1, 64);
  blk.ResetFor(0, &tracer);
  auto x = blk.AllocShared<uint32_t>(64);
  // Stride-2 writes, two-way bank-conflicted: evens, then odds.
  auto slot = [](int tid) { return (tid % 32) * 2 + tid / 32; };
  int simt_threads = 0;
  int native_runs = 0;
  auto region = [&] {
    blk.ForEachThreadOblivious(
        simt::RegionShape(1, x.base_offset()), 64,
        [&](simt::Thread& t) {
          ++simt_threads;
          x.Write(t, slot(t.tid), t.tid);
        },
        [&] {
          ++native_runs;
          for (int tid = 0; tid < 64; ++tid) x.Untraced(slot(tid)) = tid;
        });
  };
  region();  // miss: traced, stored
  ASSERT_EQ(memo.misses(), 1u);
  ASSERT_EQ(simt_threads, 64);
  simt::KernelMetrics stored;
  tracer.Analyze(&stored);
  ASSERT_GT(stored.bank_conflict_cycles, 0u);

  region();  // hit
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(simt_threads, 64) << "a hit ran the SIMT body";
  EXPECT_EQ(native_runs, 1);
  for (int tid = 0; tid < 64; ++tid) EXPECT_EQ(x.data()[slot(tid)], tid);
  EXPECT_EQ(tracer.EndRegion().warp_instructions, 0u)
      << "a hit left rows in the open slot tables";
  simt::KernelMetrics after;
  tracer.Analyze(&after);
  EXPECT_EQ(after.warp_instructions, 2 * stored.warp_instructions);
  EXPECT_EQ(after.shared_cycles, 2 * stored.shared_cycles);
  EXPECT_EQ(after.shared_bytes, 2 * stored.shared_bytes);
  EXPECT_EQ(after.shared_useful_bytes, 2 * stored.shared_useful_bytes);
  EXPECT_EQ(after.bank_conflict_cycles, 2 * stored.bank_conflict_cycles);
  EXPECT_EQ(after.divergent_lane_slots, 2 * stored.divergent_lane_slots);
  EXPECT_EQ(after.global_transactions, 0u);
  EXPECT_EQ(after.blocks_traced, 1u);
}

// Two block scans of one size whose scratch lies 0 and 112 bytes past a
// 128-byte bank row from the data: the keys differ only in the base
// offsets, and the offset-4 step's mixed rows (lanes 0-3 write scratch,
// the rest read data) are two-way conflicted in one layout and
// conflict-free in the other.
TEST(RegionMemo, ScansDifferingOnlyInBaseOffsets) {
  DevicePair pair;
  LaunchBoth(&pair, 4, [](simt::Block& blk) {
    auto data = blk.AllocShared<uint32_t>(64);       // at 0
    auto row_aligned = blk.AllocShared<uint32_t>(64);  // at 256 B
    blk.AllocShared<uint32_t>(28);                     // 112 B of padding
    auto skewed = blk.AllocShared<uint32_t>(64);       // at 624 B
    for (auto scratch : {row_aligned, skewed, row_aligned}) {
      blk.ForEachThread([&](simt::Thread& t) { data.Write(t, t.tid, 1); });
      blk.Sync();
      uint32_t total = 0;
      gpu::BlockExclusiveScan(blk, data, 64, scratch, &total);
      EXPECT_EQ(total, 64u);
    }
  });
  ExpectSameLaunches(pair.memo, 0, pair.reference, 0, "scan layouts");
  EXPECT_GT(pair.memo.region_memo_stats().hits, 0u);
}

// A region that breaks the contract by making block-dependent global
// accesses: its cost is never stored (debug builds assert instead), so
// every block is priced by its own trace.
void GlobalRegionKernel(simt::Device* dev, simt::DeviceBuffer<uint32_t>& buf) {
  simt::GlobalSpan<uint32_t> g(buf);
  ASSERT_TRUE(dev->Launch({.grid_dim = 4, .block_dim = 32},
                          [&](simt::Block& blk) {
                            const size_t stride = blk.block_idx() * 8 + 1;
                            blk.ForEachThreadOblivious(
                                simt::RegionShape(3), 32,
                                [&](simt::Thread& t) {
                                  g.Read(t, t.tid * stride);
                                },
                                [] {});
                          })
                  .ok());
}

#ifdef NDEBUG
TEST(RegionMemo, RegionWithGlobalTrafficIsNotStored) {
  DevicePair pair;
  auto memo_buf = pair.memo.Alloc<uint32_t>(32 * 32).value();
  auto ref_buf = pair.reference.Alloc<uint32_t>(32 * 32).value();
  GlobalRegionKernel(&pair.memo, memo_buf);
  GlobalRegionKernel(&pair.reference, ref_buf);
  ExpectSameLaunches(pair.memo, 0, pair.reference, 0, "global region");
  EXPECT_EQ(pair.memo.region_memo_stats().hits, 0u);
}
#else
TEST(RegionMemoDeathTest, RegionWithGlobalTrafficAsserts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        simt::Device dev;
        dev.set_racecheck(false);
        auto buf = dev.Alloc<uint32_t>(32 * 32).value();
        GlobalRegionKernel(&dev, buf);
      },
      "oblivious region");
}
#endif

}  // namespace
}  // namespace mptopk
