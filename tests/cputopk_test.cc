// Tests for the CPU top-k algorithms (paper Section 6.7 / Appendix C).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/distributions.h"
#include "cputopk/cpu_topk.h"

namespace mptopk::cpu {
namespace {

template <typename E>
std::vector<E> Reference(std::vector<E> data, size_t k) {
  std::sort(data.begin(), data.end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(b, a); });
  data.resize(k);
  return data;
}

struct CpuCase {
  CpuAlgorithm algo;
  size_t k;
  Distribution dist;
  int threads;
};

class CpuSweepTest : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuSweepTest, MatchesReference) {
  auto [algo, k, dist, threads] = GetParam();
  auto data = GenerateFloats(1 << 16, dist, 7 * k + threads);
  auto r = CpuTopK(data.data(), data.size(), k, algo, threads);
  ASSERT_TRUE(r.ok()) << r.status();
  auto expect = Reference(data, k);
  ASSERT_EQ(r->items.size(), k);
  for (size_t i = 0; i < k; ++i) {
    EXPECT_EQ(r->items[i], expect[i]) << "rank " << i;
  }
}

std::vector<CpuCase> CpuCases() {
  std::vector<CpuCase> cases;
  for (CpuAlgorithm a : {CpuAlgorithm::kStlPq, CpuAlgorithm::kHandPq,
                         CpuAlgorithm::kBitonic}) {
    for (size_t k : {1, 2, 32, 256}) {
      for (int threads : {1, 4}) {
        cases.push_back({a, k, Distribution::kUniform, threads});
      }
    }
    cases.push_back({a, 32, Distribution::kIncreasing, 4});
    cases.push_back({a, 32, Distribution::kDecreasing, 4});
  }
  // Non-power-of-two k for the heap variants only.
  cases.push_back({CpuAlgorithm::kStlPq, 100, Distribution::kUniform, 2});
  cases.push_back({CpuAlgorithm::kHandPq, 100, Distribution::kUniform, 2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, CpuSweepTest, ::testing::ValuesIn(CpuCases()), [](const auto& info) {
      std::string name = CpuAlgorithmName(info.param.algo);
      for (auto& c : name) {
        if (c == ' ') c = '_';
      }
      return name + "_k" + std::to_string(info.param.k) + "_" +
             DistributionName(info.param.dist) + "_t" +
             std::to_string(info.param.threads);
    });

TEST(CpuTopKTest, RejectsBadArguments) {
  auto data = GenerateFloats(128, Distribution::kUniform);
  EXPECT_FALSE(CpuTopK(data.data(), 128, 0, CpuAlgorithm::kHandPq).ok());
  EXPECT_FALSE(CpuTopK(data.data(), 128, 200, CpuAlgorithm::kHandPq).ok());
  // Bitonic: non-power-of-two or oversized k.
  EXPECT_FALSE(CpuTopK(data.data(), 128, 3, CpuAlgorithm::kBitonic).ok());
  auto big = GenerateFloats(1 << 14, Distribution::kUniform);
  EXPECT_FALSE(
      CpuTopK(big.data(), big.size(), 512, CpuAlgorithm::kBitonic).ok());
}

TEST(CpuTopKTest, KVPayloads) {
  auto keys = GenerateFloats(1 << 14, Distribution::kUniform);
  std::vector<KV> data(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  for (CpuAlgorithm a : {CpuAlgorithm::kStlPq, CpuAlgorithm::kHandPq,
                         CpuAlgorithm::kBitonic}) {
    auto r = CpuTopK(data.data(), data.size(), 16, a, 2);
    ASSERT_TRUE(r.ok()) << r.status();
    for (const KV& kv : r->items) {
      EXPECT_EQ(data[kv.value].key, kv.key);
    }
  }
}

TEST(CpuTopKTest, DoubleKeys) {
  auto data = GenerateDoubles(1 << 14, Distribution::kUniform);
  auto r = CpuTopK(data.data(), data.size(), 64, CpuAlgorithm::kBitonic, 2);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->items, Reference(data, 64));
}

TEST(CpuTopKTest, HonorsSingleThreadRequest) {
  auto data = GenerateFloats(1 << 16, Distribution::kUniform);
  auto r = CpuTopK(data.data(), data.size(), 32, CpuAlgorithm::kHandPq, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->threads_used, 1);
}

TEST(CpuTopKTest, TinyInputSingleThreaded) {
  // n too small to split across threads: the thread clamp must kick in.
  auto data = GenerateFloats(64, Distribution::kUniform);
  auto r = CpuTopK(data.data(), data.size(), 16, CpuAlgorithm::kHandPq, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->threads_used, 1);
  EXPECT_EQ(r->items, Reference(data, 16));
}

}  // namespace
}  // namespace mptopk::cpu
