// Tests for larger-than-memory chunked streaming top-k.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/distributions.h"
#include "gputopk/chunked.h"

namespace mptopk::gpu {
namespace {

TEST(ChunkedTopKTest, MatchesSingleShot) {
  const size_t n = 1 << 18;
  auto data = GenerateFloats(n, Distribution::kUniform, 3);
  simt::Device d1, d2;
  auto whole = topk::FindOperator("BitonicTopK").value()->TopKHost(
      d1, data.data(), n, 64);
  auto chunked = ChunkedTopK(d2, data.data(), n, 64, n / 8);
  ASSERT_TRUE(whole.ok());
  ASSERT_TRUE(chunked.ok());
  EXPECT_EQ(chunked->chunks, 8);
  EXPECT_EQ(whole->items, chunked->items);
}

TEST(ChunkedTopKTest, UnevenChunksAndTinyTail) {
  const size_t n = 100003;  // not a multiple of anything nice
  auto data = GenerateFloats(n, Distribution::kUniform, 5);
  simt::Device dev;
  auto r = ChunkedTopK(dev, data.data(), n, 32, 30000);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->chunks, 4);
  std::vector<float> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<float>());
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(r->items[i], ref[i]);
  }
}

TEST(ChunkedTopKTest, SingleChunkDegenerates) {
  const size_t n = 1 << 14;
  auto data = GenerateFloats(n, Distribution::kUniform, 6);
  simt::Device dev;
  auto r = ChunkedTopK(dev, data.data(), n, 16, n);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->chunks, 1);
}

TEST(ChunkedTopKTest, AccountsTransferSeparately) {
  const size_t n = 1 << 16;
  auto data = GenerateFloats(n, Distribution::kUniform, 7);
  simt::Device dev;
  auto r = ChunkedTopK(dev, data.data(), n, 16, n / 4);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->pcie_ms, 0);
  EXPECT_GT(r->kernel_ms, 0);
  EXPECT_DOUBLE_EQ(r->serialized_ms, r->kernel_ms + r->pcie_ms);
  EXPECT_DOUBLE_EQ(r->overlapped_ms, std::max(r->kernel_ms, r->pcie_ms));
}

TEST(ChunkedTopKTest, RejectsBadK) {
  auto data = GenerateFloats(128, Distribution::kUniform);
  simt::Device dev;
  EXPECT_FALSE(ChunkedTopK(dev, data.data(), 128, 0).ok());
  EXPECT_FALSE(ChunkedTopK(dev, data.data(), 128, 500).ok());
}

TEST(ChunkedTopKTest, WorksWithRadixSelect) {
  const size_t n = 1 << 16;
  auto data = GenerateFloats(n, Distribution::kUniform, 8);
  simt::Device dev;
  auto r = ChunkedTopK(dev, data.data(), n, 100, n / 4,
                       topk::FindOperator("RadixSelect").value());
  ASSERT_TRUE(r.ok());
  std::vector<float> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<float>());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(r->items[i], ref[i]);
  }
}

}  // namespace
}  // namespace mptopk::gpu
