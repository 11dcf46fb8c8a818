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
  std::vector<float> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<float>());
  // k = 100 is not a power of two: the bitonic reduction rounds it up.
  for (size_t k : {32, 100}) {
    simt::Device dev;
    auto r = ChunkedTopK(dev, data.data(), n, k, 30000);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->chunks, 4);
    ASSERT_EQ(r->items.size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(r->items[i], ref[i]) << "k=" << k << " rank " << i;
    }
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
  EXPECT_GT(dev.pcie_ms(), 0);
  EXPECT_GT(dev.total_sim_ms(), 0);
}

TEST(ChunkedTopKTest, DefaultChunkStaysWithinInputSize) {
  // The auto chunk (an eighth of device memory) is capped at the input, so
  // a small call allocates O(n) device memory, not the whole chunk.
  const size_t n = 4096;
  auto data = GenerateFloats(n, Distribution::kUniform, 8);
  std::vector<float> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<float>());
  simt::Device dev;
  auto r = ChunkedTopK(dev, data.data(), n, 16);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->chunks, 1);
  EXPECT_EQ(r->items, std::vector<float>(ref.begin(), ref.begin() + 16));
  EXPECT_LE(dev.peak_allocated_bytes(), 4 * n * sizeof(float));
}

TEST(ChunkedTopKTest, RejectsBadK) {
  auto data = GenerateFloats(128, Distribution::kUniform);
  simt::Device dev;
  EXPECT_FALSE(ChunkedTopK(dev, data.data(), 128, 0).ok());
  EXPECT_FALSE(ChunkedTopK(dev, data.data(), 128, 500).ok());
}

}  // namespace
}  // namespace mptopk::gpu
