// Tests for the bottom-k direction ("largest or smallest", paper abstract):
// implemented as top-k over order-negated keys, so every algorithm must
// work symmetrically.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/distributions.h"
#include "topk/registry.h"

namespace mptopk::gpu {
namespace {

template <typename E>
std::vector<E> ReferenceBottom(std::vector<E> data, size_t k) {
  std::sort(data.begin(), data.end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(a, b); });
  data.resize(k);
  return data;
}

const topk::TopKOperator* Bitonic() {
  return topk::FindOperator("BitonicTopK").value();
}

class BottomKTest
    : public ::testing::TestWithParam<const topk::TopKOperator*> {};

TEST_P(BottomKTest, FloatsAscending) {
  auto data = GenerateFloats(1 << 15, Distribution::kUniform, 21);
  simt::Device dev;
  auto r = GetParam()->BottomKHost(dev, data.data(), data.size(), 32);
  ASSERT_TRUE(r.ok()) << r.status();
  auto expect = ReferenceBottom(data, 32);
  ASSERT_EQ(r->items.size(), 32u);
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(r->items[i], expect[i]) << "rank " << i;
  }
}

TEST_P(BottomKTest, SignedIntsIncludingMin) {
  auto data = GenerateI32(1 << 14, Distribution::kUniform, 22);
  data[100] = INT32_MIN;  // ~x must handle the extremes
  data[200] = INT32_MAX;
  simt::Device dev;
  auto r = GetParam()->BottomKHost(dev, data.data(), data.size(), 16);
  ASSERT_TRUE(r.ok()) << r.status();
  auto expect = ReferenceBottom(data, 16);
  EXPECT_EQ(r->items, expect);
  EXPECT_EQ(r->items.front(), INT32_MIN);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BottomKTest,
                         ::testing::ValuesIn(topk::GpuSweepOperators(true)),
                         [](const auto& info) { return info.param->name(); });

TEST(BottomKTest, KVPayloadsFollowSmallestKeys) {
  auto keys = GenerateFloats(1 << 14, Distribution::kUniform, 23);
  std::vector<KV> data(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    data[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  simt::Device dev;
  auto r = Bitonic()->BottomKHost(dev, data.data(), data.size(), 16);
  ASSERT_TRUE(r.ok()) << r.status();
  for (const KV& kv : r->items) {
    EXPECT_EQ(data[kv.value].key, kv.key);
  }
  auto expect = ReferenceBottom(data, 16);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(r->items[i].key, expect[i].key);
  }
}

TEST(BottomKTest, LargestUnchangedByEntryPoint) {
  auto data = GenerateFloats(4096, Distribution::kUniform, 24);
  simt::Device d1, d2;
  auto a = Bitonic()->TopKHost(d1, data.data(), data.size(), 8);
  auto buf = d2.Alloc<float>(data.size()).value();
  ASSERT_TRUE(d2.CopyToDevice(buf, data.data(), data.size()).ok());
  auto b = Bitonic()->TopKDevice(d2, buf, data.size(), 8);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->items, b->items);
}

TEST(BottomKTest, NegationIsInvolution) {
  for (float v : {0.0f, -0.0f, 1.5f, -3e38f}) {
    EXPECT_EQ(ElementTraits<float>::Negated(ElementTraits<float>::Negated(v)),
              v);
  }
  for (int32_t v : {0, -1, INT32_MIN, INT32_MAX}) {
    EXPECT_EQ(
        ElementTraits<int32_t>::Negated(ElementTraits<int32_t>::Negated(v)),
        v);
  }
  // Order reversal for ints: a < b  <=>  ~b < ~a.
  EXPECT_LT(ElementTraits<int32_t>::Negated(INT32_MAX),
            ElementTraits<int32_t>::Negated(INT32_MIN));
}

}  // namespace
}  // namespace mptopk::gpu
