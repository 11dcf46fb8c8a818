// Cross-algorithm correctness tests: the registry's core GPU operators (Sort,
// PerThread, RadixSelect, BucketSelect, Bitonic) over k x distribution x
// type sweeps.
// All algorithms must agree with the host reference (primary-key multiset).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/distributions.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/bucket_select.h"
#include "gputopk/perthread_topk.h"
#include "topk/registry.h"

namespace mptopk::gpu {
namespace {

/// Simulated kernel ms of the registry operator `name` on host data.
template <typename E>
double KernelMs(const char* name, simt::Device& dev,
                const std::vector<E>& data, size_t k) {
  const simt::DeviceTimeTracker clock(dev);
  EXPECT_TRUE(topk::FindOperator(name)
                  .value()
                  ->TopKHost(dev, data.data(), data.size(), k)
                  .ok());
  return clock.ElapsedMs();
}

template <typename E>
std::vector<typename ElementTraits<E>::Key> ReferenceKeys(std::vector<E> data,
                                                          size_t k) {
  std::sort(data.begin(), data.end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(b, a); });
  std::vector<typename ElementTraits<E>::Key> keys(k);
  for (size_t i = 0; i < k; ++i) keys[i] = ElementTraits<E>::PrimaryKey(data[i]);
  return keys;
}

template <typename E>
void CheckKeys(const TopKResult<E>& got, const std::vector<E>& data,
               size_t k) {
  auto expect = ReferenceKeys(data, k);
  ASSERT_EQ(got.items.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(ElementTraits<E>::PrimaryKey(got.items[i]), expect[i])
        << "rank " << i;
  }
}

struct AlgoCase {
  const topk::TopKOperator* op;
  int index;  ///< position in the sweep, seeds the input
  size_t k;
  Distribution dist;
};

class AlgoSweepTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(AlgoSweepTest, MatchesReference) {
  auto [op, index, k, dist] = GetParam();
  auto data = GenerateFloats(1 << 16, dist, /*seed=*/k * 31 + index);
  simt::Device dev;
  auto r = op->TopKHost(dev, data.data(), data.size(), k);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckKeys(*r, data, k);
}

std::vector<AlgoCase> AllCases() {
  std::vector<AlgoCase> cases;
  int index = 0;
  for (const topk::TopKOperator* op : topk::GpuSweepOperators()) {
    for (size_t k : {1, 2, 7, 32, 100, 256}) {
      cases.push_back({op, index, k, Distribution::kUniform});
    }
    cases.push_back({op, index, 32, Distribution::kIncreasing});
    cases.push_back({op, index, 32, Distribution::kDecreasing});
    cases.push_back({op, index, 32, Distribution::kBucketKiller});
    ++index;
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, AlgoSweepTest, ::testing::ValuesIn(AllCases()),
    [](const auto& info) {
      return info.param.op->name() + "_k" +
             std::to_string(info.param.k) + "_" +
             DistributionName(info.param.dist);
    });

// --- Type coverage ---------------------------------------------------------

template <typename E>
void TypeCase(const std::vector<E>& data, size_t k) {
  for (const topk::TopKOperator* op : topk::GpuSweepOperators()) {
    simt::Device dev;
    auto r = op->TopKHost(dev, data.data(), data.size(), k);
    ASSERT_TRUE(r.ok()) << op->name() << ": " << r.status();
    CheckKeys(*r, data, k);
  }
}

TEST(AlgoTypesTest, U32) { TypeCase(GenerateU32(1 << 15, Distribution::kUniform), 64); }
TEST(AlgoTypesTest, I32) { TypeCase(GenerateI32(1 << 15, Distribution::kUniform), 64); }
TEST(AlgoTypesTest, F64) { TypeCase(GenerateDoubles(1 << 15, Distribution::kUniform), 64); }

TEST(AlgoTypesTest, KVPayloadSurvivesAllAlgorithms) {
  auto keys = GenerateFloats(1 << 14, Distribution::kUniform);
  std::vector<KV> data(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  for (const topk::TopKOperator* op : topk::GpuSweepOperators()) {
    simt::Device dev;
    auto r = op->TopKHost(dev, data.data(), data.size(), 32);
    ASSERT_TRUE(r.ok()) << op->name() << ": " << r.status();
    // Keys unique -> the payload must identify the original element.
    for (const KV& kv : r->items) {
      EXPECT_EQ(data[kv.value].key, kv.key) << op->name();
    }
  }
}

// --- Paper resource-limit behaviour (Section 4.1 / 6.2) --------------------

TEST(PerThreadLimitsTest, FailsAtK512Floats) {
  simt::Device dev;
  auto data = GenerateFloats(1 << 16, Distribution::kUniform);
  auto r = PerThreadTopK(dev, data.data(), data.size(), 512);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(PerThreadLimitsTest, FailsAtK256Doubles) {
  simt::Device dev;
  auto data = GenerateDoubles(1 << 15, Distribution::kUniform);
  EXPECT_TRUE(PerThreadTopK(dev, data.data(), data.size(), 128).ok());
  auto r = PerThreadTopK(dev, data.data(), data.size(), 256);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(PerThreadLimitsTest, K256FloatsStillWorks) {
  simt::Device dev;
  auto data = GenerateFloats(1 << 16, Distribution::kUniform);
  auto r = PerThreadTopK(dev, data.data(), data.size(), 256);
  ASSERT_TRUE(r.ok()) << r.status();
  CheckKeys(*r, data, 256);
}

// --- Register variant (Appendix A) ------------------------------------------

TEST(PerThreadRegistersTest, CorrectAcrossK) {
  auto data = GenerateFloats(1 << 16, Distribution::kUniform, 11);
  for (size_t k : {8, 32, 64}) {
    simt::Device dev;
    PerThreadOptions o;
    o.use_registers = true;
    auto r = PerThreadTopK(dev, data.data(), data.size(), k, o);
    ASSERT_TRUE(r.ok()) << r.status();
    CheckKeys(*r, data, k);
  }
}

TEST(PerThreadRegistersTest, SpillsBillLocalTraffic) {
  auto data = GenerateFloats(1 << 16, Distribution::kUniform, 11);
  PerThreadOptions o;
  o.use_registers = true;
  simt::Device small, large;
  ASSERT_TRUE(PerThreadTopK(small, data.data(), data.size(), 32, o).ok());
  ASSERT_TRUE(PerThreadTopK(large, data.data(), data.size(), 128, o).ok());
  EXPECT_EQ(small.total_metrics().local_bytes, 0u)
      << "k=32 fits the register budget";
  EXPECT_GT(large.total_metrics().local_bytes, 0u)
      << "k=128 must spill to local memory";
}

// --- Performance shape checks (paper Section 6) -----------------------------

TEST(AlgoShapeTest, SortIsFlatInK) {
  auto data = GenerateFloats(1 << 18, Distribution::kUniform);
  double t32, t256;
  {
    simt::Device dev;
    t32 = KernelMs("Sort", dev, data, 32);
  }
  {
    simt::Device dev;
    t256 = KernelMs("Sort", dev, data, 256);
  }
  EXPECT_NEAR(t32, t256, t32 * 0.02);
}

TEST(AlgoShapeTest, BitonicBeatsSortAtSmallK) {
  auto data = GenerateFloats(1 << 20, Distribution::kUniform);
  simt::Device d1, d2;
  double bitonic = KernelMs("BitonicTopK", d1, data, 32);
  double sort = KernelMs("Sort", d2, data, 32);
  EXPECT_LT(bitonic * 4, sort) << "paper reports up to 15x";
}

TEST(AlgoShapeTest, RadixSelectFasterOnUniformIntsThanFloats) {
  // Uniform u32 keys give maximal per-pass reduction on the first digit;
  // U(0,1) floats concentrate in few exponent buckets (paper Section 6.3).
  const size_t n = 1 << 20;
  simt::Device d1, d2;
  auto f = GenerateFloats(n, Distribution::kUniform);
  auto u = GenerateU32(n, Distribution::kUniform);
  double tf = KernelMs("RadixSelect", d1, f, 64);
  double tu = KernelMs("RadixSelect", d2, u, 64);
  EXPECT_LT(tu, tf);
}

TEST(AlgoShapeTest, BucketKillerDegradesRadixSelectToSortCost) {
  const size_t n = 1 << 20;
  simt::Device d1, d2, d3;
  auto killer = GenerateFloats(n, Distribution::kBucketKiller);
  auto uniform = GenerateFloats(n, Distribution::kUniform);
  double t_killer = KernelMs("RadixSelect", d1, killer, 32);
  double t_uniform = KernelMs("RadixSelect", d2, uniform, 32);
  EXPECT_GT(t_killer, t_uniform * 1.5);
  // And bitonic is unaffected (data-oblivious).
  double t_bitonic = KernelMs("BitonicTopK", d3, killer, 32);
  EXPECT_LT(t_bitonic, t_killer);
}

TEST(AlgoShapeTest, BucketSelectFastAtK1) {
  const size_t n = 1 << 20;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device d1, d2;
  double t1 = KernelMs("BucketSelect", d1, data, 1);
  double t64 = KernelMs("BucketSelect", d2, data, 64);
  EXPECT_LT(t1, t64 * 0.7) << "k=1 returns right after min/max";
}

// Bucket-killer input: every k > 1 takes 7 histogram passes at each of
// these n (the killer keys' range spans 3 of the 4 key bytes), and k = 1
// none (it returns right after min/max). BucketSelectCostMs prices the
// same 7 (tests/plan_agreement_test.cc).
TEST(AlgoShapeTest, BucketSelectPassesOnBucketKiller) {
  for (size_t n : {size_t{1} << 14, size_t{1} << 16, size_t{1} << 18}) {
    const auto data = GenerateFloats(n, Distribution::kBucketKiller);
    for (size_t k : {1, 32, 256, 1024}) {
      simt::Device dev;
      dev.set_trace_sample_target(1);
      auto r = topk::FindOperator("BucketSelect")
                   .value()
                   ->TopKHost(dev, data.data(), n, k);
      ASSERT_TRUE(r.ok()) << "n=" << n << " k=" << k;
      CheckKeys(*r, data, k);
      int passes = 0;
      for (const auto& launch : dev.kernel_log()) {
        passes += launch.name == "bucket_histogram";
      }
      EXPECT_EQ(passes, k == 1 ? 0 : 7) << "n=" << n << " k=" << k;
    }
  }
}

// 8-byte keys on bucket-killer and all-equal input: the oracle answer
// within the pass bound of BucketRangePasses (16 histogram passes for the
// full 64-bit key range, then one flush).
template <typename E>
void CheckBucketSelectEightByteKeys(const std::vector<E>& data,
                                    int want_passes) {
  const int bound = BucketRangePasses(UINT64_MAX);
  for (size_t k : {32, 256, 1024}) {
    simt::Device dev;
    dev.set_trace_sample_target(1);
    auto r = topk::FindOperator("BucketSelect")
                 .value()
                 ->TopKHost(dev, data.data(), data.size(), k);
    ASSERT_TRUE(r.ok()) << "k=" << k << ": " << r.status();
    CheckKeys(*r, data, k);
    int passes = 0;
    for (const auto& launch : dev.kernel_log()) {
      passes += launch.name == "bucket_histogram";
    }
    EXPECT_LE(passes, bound) << "k=" << k;
    EXPECT_EQ(passes, want_passes) << "k=" << k;
  }
}

TEST(AlgoShapeTest, BucketSelectEightByteKeysWithinPassBound) {
  const size_t n = 1 << 14;
  const std::vector<double> killer =
      GenerateDoubles(n, Distribution::kBucketKiller);
  std::vector<uint64_t> killer_bits(n);
  for (size_t i = 0; i < n; ++i) {
    killer_bits[i] = std::bit_cast<uint64_t>(killer[i]);
  }
  // The killer keys span 7 of the 8 key bytes: 15 passes.
  CheckBucketSelectEightByteKeys(killer, 15);
  CheckBucketSelectEightByteKeys(killer_bits, 15);
  // All equal: the range is empty from the start, so the first iteration
  // flushes.
  CheckBucketSelectEightByteKeys(std::vector<double>(n, 0.75), 0);
  CheckBucketSelectEightByteKeys(std::vector<uint64_t>(n, uint64_t{1} << 40),
                                 0);
}

TEST(AlgoShapeTest, PerThreadOccupancyCliffAtLargeK) {
  const size_t n = 1 << 20;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device d1, d2;
  double t16 = KernelMs("PerThreadTopK", d1, data, 16);
  double t256 = KernelMs("PerThreadTopK", d2, data, 256);
  EXPECT_GT(t256, t16 * 2) << "shared-memory occupancy loss (paper Fig 11a)";
}

}  // namespace
}  // namespace mptopk::gpu
