// Correctness tests for bitonic top-k across element types, sizes, k values,
// distributions and every optimization level (each Section 4.3 optimization
// must not change results). Reference = sort-descending-take-k.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/distributions.h"
#include "gputopk/bitonic_topk.h"

namespace mptopk::gpu {
namespace {

template <typename E>
std::vector<E> ReferenceTopK(std::vector<E> data, size_t k) {
  std::sort(data.begin(), data.end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(b, a); });
  data.resize(k);
  return data;
}

// Results must be in descending order and (as key multisets) equal the
// reference. Payload correctness for KV types is checked via exact multiset
// equality when keys are unique.
template <typename E>
void CheckResult(const std::vector<E>& got, const std::vector<E>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_FALSE(ElementTraits<E>::Less(got[i - 1], got[i]))
        << "result not descending at " << i;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(ElementTraits<E>::PrimaryKey(got[i]),
              ElementTraits<E>::PrimaryKey(expect[i]))
        << "key mismatch at rank " << i;
  }
}

template <typename E>
void RunCase(const std::vector<E>& data, size_t k,
             const BitonicOptions& opts = {}) {
  simt::Device dev;
  auto result = BitonicTopK(dev, data.data(), data.size(), k, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  CheckResult(result->items, ReferenceTopK(data, k));
  EXPECT_GT(dev.total_sim_ms(), 0.0);
  EXPECT_FALSE(dev.kernel_log().empty());
}

// --- Basic functionality ------------------------------------------------------

TEST(BitonicTopKTest, TinyInput) {
  RunCase<float>({3.f, 1.f, 4.f, 1.5f, 9.f, 2.6f, 5.f, 3.5f}, 4);
}

TEST(BitonicTopKTest, KEqualsOne) {
  auto data = GenerateFloats(10000, Distribution::kUniform);
  RunCase(data, 1);
}

TEST(BitonicTopKTest, KEqualsN) {
  auto data = GenerateFloats(256, Distribution::kUniform);
  RunCase(data, 256);
}

TEST(BitonicTopKTest, NonPowerOfTwoN) {
  auto data = GenerateFloats(100003, Distribution::kUniform);
  RunCase(data, 32);
}

TEST(BitonicTopKTest, SingleElement) { RunCase<float>({42.f}, 1); }

TEST(BitonicTopKTest, DuplicateKeys) {
  std::vector<float> data(5000, 7.0f);
  for (int i = 0; i < 100; ++i) data[i * 37] = 9.0f;
  RunCase(data, 64);
}

TEST(BitonicTopKTest, NegativeValues) {
  auto data = GenerateFloats(20000, Distribution::kUniform);
  for (size_t i = 0; i < data.size(); i += 2) data[i] = -data[i];
  RunCase(data, 128);
}

// --- Validation -----------------------------------------------------------------

TEST(BitonicTopKTest, RejectsNonPowerOfTwoK) {
  simt::Device dev;
  auto data = GenerateFloats(1024, Distribution::kUniform);
  auto r = BitonicTopK(dev, data.data(), data.size(), 3);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BitonicTopKTest, RejectsKGreaterThanN) {
  simt::Device dev;
  auto data = GenerateFloats(16, Distribution::kUniform);
  EXPECT_FALSE(BitonicTopK(dev, data.data(), data.size(), 32).ok());
}

TEST(BitonicTopKTest, RejectsZeroK) {
  simt::Device dev;
  auto data = GenerateFloats(16, Distribution::kUniform);
  EXPECT_FALSE(BitonicTopK(dev, data.data(), data.size(), 0).ok());
}

TEST(BitonicTopKTest, RejectsOversizedK) {
  simt::Device dev;
  auto data = GenerateFloats(1 << 16, Distribution::kUniform);
  auto r = BitonicTopK(dev, data.data(), data.size(), 4096);
  ASSERT_FALSE(r.ok());
}

// --- Parameterized sweep: k x distribution (property-style) ---------------------

struct SweepParam {
  size_t k;
  Distribution dist;
};

class BitonicSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(BitonicSweepTest, MatchesReference) {
  auto [k, dist] = GetParam();
  auto data = GenerateFloats(1 << 16, dist, /*seed=*/k * 7919 + 1);
  RunCase(data, k);
}

INSTANTIATE_TEST_SUITE_P(
    KAndDistribution, BitonicSweepTest,
    ::testing::Values(
        SweepParam{1, Distribution::kUniform},
        SweepParam{2, Distribution::kUniform},
        SweepParam{8, Distribution::kUniform},
        SweepParam{32, Distribution::kUniform},
        SweepParam{64, Distribution::kUniform},
        SweepParam{256, Distribution::kUniform},
        SweepParam{512, Distribution::kUniform},
        SweepParam{1024, Distribution::kUniform},
        SweepParam{32, Distribution::kIncreasing},
        SweepParam{32, Distribution::kDecreasing},
        SweepParam{32, Distribution::kBucketKiller},
        SweepParam{256, Distribution::kIncreasing},
        SweepParam{1024, Distribution::kDecreasing}),
    [](const auto& info) {
      return std::string(DistributionName(info.param.dist)) + "_k" +
             std::to_string(info.param.k);
    });

// --- Optimization levels must all be correct -------------------------------------

BitonicOptions LevelOpts(int level) {
  BitonicOptions o = BitonicOptions::Naive();
  if (level >= 1) o.use_shared_memory = true;
  if (level >= 2) o.fuse_kernels = true;
  if (level >= 3) o.combine_steps = true;
  if (level >= 4) o.pad_shared = true;
  if (level >= 5) o.chunk_permute = true;
  if (level >= 6) o.reassign_partitions = true;
  return o;
}

class BitonicOptLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(BitonicOptLevelTest, CorrectAtEveryLevel) {
  auto data = GenerateFloats(1 << 15, Distribution::kUniform, 99);
  RunCase(data, 32, LevelOpts(GetParam()));
  RunCase(data, 256, LevelOpts(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Levels, BitonicOptLevelTest,
                         ::testing::Range(0, 7));

// Optimizations must never change the simulated *result*, only the time;
// and each cumulative level should not be slower than the previous by more
// than noise (monotone ladder, paper Section 4.3).
TEST(BitonicOptLevelTest, LadderIsMonotoneForTop32) {
  auto data = GenerateFloats(1 << 18, Distribution::kUniform, 5);
  double prev_ms = 1e30;
  for (int level = 0; level <= 6; ++level) {
    simt::Device dev;
    auto r = BitonicTopK(dev, data.data(), data.size(), 32, LevelOpts(level));
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_LE(dev.total_sim_ms(), prev_ms * 1.10)
        << "optimization level " << level << " slowed things down";
    prev_ms = dev.total_sim_ms();
  }
}

// --- Elements-per-thread (paper Figure 8 parameter) --------------------------------

class BitonicElemsPerThreadTest : public ::testing::TestWithParam<int> {};

TEST_P(BitonicElemsPerThreadTest, CorrectForAllB) {
  BitonicOptions o;
  o.elems_per_thread = GetParam();
  auto data = GenerateFloats(1 << 15, Distribution::kUniform, 17);
  RunCase(data, 32, o);
}

INSTANTIATE_TEST_SUITE_P(B, BitonicElemsPerThreadTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

// --- Element types -------------------------------------------------------------------

TEST(BitonicTopKTypesTest, U32Keys) {
  auto data = GenerateU32(1 << 15, Distribution::kUniform);
  RunCase(data, 64);
}

TEST(BitonicTopKTypesTest, I32KeysWithNegatives) {
  auto data = GenerateI32(1 << 15, Distribution::kUniform);
  RunCase(data, 64);
}

TEST(BitonicTopKTypesTest, DoubleKeys) {
  auto data = GenerateDoubles(1 << 15, Distribution::kUniform);
  RunCase(data, 64);
}

TEST(BitonicTopKTypesTest, KVCarriesPayload) {
  auto keys = GenerateFloats(1 << 14, Distribution::kUniform);
  std::vector<KV> data(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  simt::Device dev;
  auto r = BitonicTopK(dev, data.data(), data.size(), 32);
  ASSERT_TRUE(r.ok()) << r.status();
  auto expect = ReferenceTopK(data, 32);
  // Uniform floats from mt19937 are almost surely unique -> payloads must
  // match exactly.
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(r->items[i].key, expect[i].key);
    EXPECT_EQ(r->items[i].value, expect[i].value)
        << "payload lost at rank " << i;
  }
}

TEST(BitonicTopKTypesTest, KKVLexicographicTieBreak) {
  // Primary keys drawn from a tiny set force key2 to decide order.
  std::mt19937 rng(3);
  std::vector<KKV> data(1 << 13);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = KKV{static_cast<float>(rng() % 4),
                  static_cast<float>(rng() % 1000) / 1000.f,
                  static_cast<uint32_t>(i)};
  }
  simt::Device dev;
  auto r = BitonicTopK(dev, data.data(), data.size(), 16);
  ASSERT_TRUE(r.ok()) << r.status();
  auto expect = ReferenceTopK(data, 16);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(r->items[i].key, expect[i].key);
    EXPECT_EQ(r->items[i].key2, expect[i].key2);
  }
}

TEST(BitonicTopKTypesTest, KKKVRuns) {
  std::mt19937 rng(4);
  std::vector<KKKV> data(1 << 13);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = KKKV{static_cast<float>(rng()) / 4e9f,
                   static_cast<float>(rng()) / 4e9f,
                   static_cast<float>(rng()) / 4e9f,
                   static_cast<uint32_t>(i)};
  }
  simt::Device dev;
  auto r = BitonicTopK(dev, data.data(), data.size(), 64);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckResult(r->items, ReferenceTopK(data, 64));
}

// --- Performance-model sanity ---------------------------------------------------------

TEST(BitonicTopKPerfTest, DistributionInvariantTime) {
  // The bitonic network is data-oblivious: simulated time must be nearly
  // identical across distributions (paper Section 6.4).
  const size_t n = 1 << 18;
  double base_ms = -1;
  for (auto dist : {Distribution::kUniform, Distribution::kIncreasing,
                    Distribution::kBucketKiller}) {
    simt::Device dev;
    auto data = GenerateFloats(n, dist);
    auto r = BitonicTopK(dev, data.data(), n, 32);
    ASSERT_TRUE(r.ok());
    if (base_ms < 0) {
      base_ms = dev.total_sim_ms();
    } else {
      EXPECT_NEAR(dev.total_sim_ms(), base_ms, base_ms * 0.02);
    }
  }
}

TEST(BitonicTopKPerfTest, PaddingReducesBankConflicts) {
  const size_t n = 1 << 18;
  auto data = GenerateFloats(n, Distribution::kUniform);
  BitonicOptions unpadded;
  unpadded.pad_shared = false;
  unpadded.chunk_permute = false;
  unpadded.elems_per_thread = 16;
  BitonicOptions padded = unpadded;
  padded.pad_shared = true;

  simt::Device d1, d2;
  ASSERT_TRUE(BitonicTopK(d1, data.data(), n, 32, unpadded).ok());
  ASSERT_TRUE(BitonicTopK(d2, data.data(), n, 32, padded).ok());
  EXPECT_LT(d2.total_metrics().bank_conflict_cycles,
            d1.total_metrics().bank_conflict_cycles / 2);
}

}  // namespace
}  // namespace mptopk::gpu
