// Pins what every GPU top-k operator, the chunked executor and the engine's
// Q1-Q4 queries launch: each case hashes the kernel log of one call (name,
// grid, block, registers, shared bytes, every KernelMetrics counter and the
// bits of the kernel's simulated ms) together with the returned items or
// status code. The expected hashes are constants, so any change to a
// kernel's geometry, access pattern, shared-memory layout or answer shows
// up here, including ones the perfbench fingerprints (2^16 f32 inputs) do
// not reach: 8- and 16-byte elements, k = 1 / 7 / 256, bucket-killer
// input, bottom-k, a non-tile-multiple n and HybridTopK's sampling path.
//
// A deliberate change to simulated behavior updates the constants in the
// same change; the failure message prints the new value.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "common/tuple_types.h"
#include "engine/query.h"
#include "engine/tweets.h"
#include "gputopk/chunked.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

constexpr size_t kN = 5000;  // not a multiple of any kernel's tile
constexpr uint64_t kSeed = 7;

// FNV-1a over everything a launch records plus the call's answer.
class LogHash {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }

  // Hashes the launches dev logged from index `from` on.
  void Launches(const simt::Device& dev, size_t from) {
    const auto& log = dev.kernel_log();
    Pod(log.size() - from);
    for (size_t i = from; i < log.size(); ++i) {
      const simt::KernelStats& s = log[i];
      Str(s.name);
      Pod(s.resources.grid_dim);
      Pod(s.resources.block_dim);
      Pod(s.resources.regs_per_thread);
      Pod(s.resources.shared_bytes_per_block);
      const simt::KernelMetrics& m = s.metrics;
      for (uint64_t c :
           {m.global_transactions, m.global_bytes, m.global_useful_bytes,
            m.local_bytes, m.shared_cycles, m.shared_bytes,
            m.shared_useful_bytes, m.bank_conflict_cycles,
            m.shared_atomic_cycles, m.global_atomics,
            m.dependent_stall_cycles, m.warp_instructions,
            m.divergent_lane_slots, m.blocks_traced, m.blocks_launched}) {
        Pod(c);
      }
      Pod(std::bit_cast<uint64_t>(s.time.total_ms));
    }
  }

  template <typename R>
  void Result(const StatusOr<R>& r) {
    Pod(static_cast<int>(r.status().code()));
    if (!r.ok()) return;
    const auto& items = r.value().items;
    Pod(items.size());
    Bytes(items.data(), items.size() * sizeof(items[0]));
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

template <typename E>
std::vector<E> MakeInput(size_t n, Distribution d);

template <>
std::vector<float> MakeInput<float>(size_t n, Distribution d) {
  return GenerateFloats(n, d, kSeed);
}
template <>
std::vector<uint64_t> MakeInput<uint64_t>(size_t n, Distribution d) {
  // Non-negative doubles order like their bit patterns, so the doubles'
  // bucket-killer digits carry over to the u64 keys.
  std::vector<uint64_t> out;
  for (double v : GenerateDoubles(n, d, kSeed)) {
    out.push_back(std::bit_cast<uint64_t>(v));
  }
  return out;
}
template <>
std::vector<KV> MakeInput<KV>(size_t n, Distribution d) {
  std::vector<KV> out;
  const auto keys = GenerateFloats(n, d, kSeed);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(KV{keys[i], static_cast<uint32_t>(i)});
  }
  return out;
}
template <>
std::vector<KKKV> MakeInput<KKKV>(size_t n, Distribution d) {
  std::vector<KKKV> out;
  const auto keys = GenerateFloats(n, d, kSeed);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(KKKV{keys[i], keys[(i * 7) % n], keys[(i * 13) % n],
                       static_cast<uint32_t>(i)});
  }
  return out;
}

// One operator call on a fresh device, hashed into h; the names of the
// kernels it launched are added to *kernels when given.
template <typename E>
void HashCall(const topk::TopKOperator& op, bool bottom, size_t n, size_t k,
              Distribution d, LogHash* h,
              std::set<std::string>* kernels = nullptr) {
  simt::Device dev;
  const std::vector<E> in = MakeInput<E>(n, d);
  auto buf = dev.Alloc<E>(n);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(dev.CopyToDevice(*buf, in.data(), n).ok());
  const size_t from = dev.kernel_log().size();
  auto r = bottom ? op.BottomKDevice(dev, *buf, n, k)
                  : op.TopKDevice(dev, *buf, n, k);
  h->Launches(dev, from);
  h->Result(r);
  if (kernels == nullptr) return;
  for (size_t i = from; i < dev.kernel_log().size(); ++i) {
    kernels->insert(dev.kernel_log()[i].name);
  }
}

template <typename E>
void HashOperatorCases(const topk::TopKOperator& op, bool bottom, LogHash* h,
                       std::set<std::string>* kernels) {
  for (Distribution d : {Distribution::kUniform, Distribution::kBucketKiller}) {
    for (size_t k : {1, 7, 256}) HashCall<E>(op, bottom, kN, k, d, h, kernels);
  }
}

struct Pin {
  const char* name;
  uint64_t hash;
};

// Recorded at the commit before the launch scaffold was shared. Operator
// pins cover f32, u64, KV and KKKV x {uniform, bucket-killer} x k in
// {1, 7, 256} at n = 5000, top-k and bottom-k; query pins cover paper
// Q1-Q4 on a 5000-row tweets table under every strategy.
const Pin kPins[] = {
    {"Sort/top", 0x20b9f72418913191ull},
    {"Sort/bottom", 0x8daccb7e5bd41b5full},
    {"PerThreadTopK/top", 0x75f8c3d26649373full},
    {"PerThreadTopK/bottom", 0x7166b24cc043f8c3ull},
    {"RadixSelect/top", 0x4daaa5f6abfc0ae5ull},
    {"RadixSelect/bottom", 0x101bdf532440922eull},
    {"BucketSelect/top", 0x36fd208b8f2369ccull},
    {"BucketSelect/bottom", 0xbf64453d4b91f17dull},
    {"BitonicTopK/top", 0x30f4cbb1bb2d5480ull},
    {"BitonicTopK/bottom", 0xf8fca8395dddfb6bull},
    // At n = 5000 HybridTopK does not sample; it runs plain bitonic.
    {"HybridTopK/top", 0x30f4cbb1bb2d5480ull},
    {"HybridTopK/bottom", 0xf8fca8395dddfb6bull},
    {"HybridTopK/2^17+3", 0x2635e55e18b0f116ull},
    {"ChunkedTopK/1024", 0x8f5bb00d52f31a96ull},
    {"q1/sort", 0x52a6bd6f6dc0eddeull},
    {"q1/bitonic", 0xdf7cc2f258a478a2ull},
    {"q1/combined", 0x4e496f1e225f5df3ull},
    {"q2/sort", 0x166fb0418f72dfa9ull},
    {"q2/bitonic", 0x3db4e655341e0753ull},
    {"q2/combined", 0xaccdbb5ccf962f8dull},
    {"q3/sort", 0xdc524f9051d14b7full},
    {"q3/bitonic", 0xafb071d50cf020e9ull},
    {"q3/combined", 0x0b8410ed1d8e2600ull},
    {"q4/sort", 0x6ef9fb0cce61a96cull},
    {"q4/bitonic", 0x38a457d18325f7b2ull},
};

void CheckPin(const std::string& name, uint64_t got) {
  uint64_t want = 0;
  for (const Pin& p : kPins) {
    if (name == p.name) want = p.hash;
  }
  EXPECT_EQ(Hex(got), Hex(want))
      << "kernel log of " << name << " changed; new pin: {\"" << name
      << "\", " << Hex(got) << "ull},";
}

TEST(KernelLogPin, EveryGpuOperator) {
  const auto ops = topk::GpuSweepOperators(/*include_extensions=*/true);
  ASSERT_GE(ops.size(), 6u);
  std::set<std::string> kernels;
  for (const topk::TopKOperator* op : ops) {
    for (bool bottom : {false, true}) {
      LogHash h;
      HashOperatorCases<float>(*op, bottom, &h, &kernels);
      HashOperatorCases<uint64_t>(*op, bottom, &h, &kernels);
      HashOperatorCases<KV>(*op, bottom, &h, &kernels);
      HashOperatorCases<KKKV>(*op, bottom, &h, &kernels);
      CheckPin(op->name() + (bottom ? "/bottom" : "/top"),
               h.value());
    }
  }
  // The sweep reaches every select kernel (BucketSelect's k = 1 exit
  // included), the bottom-k negate pass and Sort's emit kernel.
  for (const char* name :
       {"select_histogram", "select_cluster", "select_copy_out",
        "bucket_minmax", "bucket_gather_max", "bucket_histogram",
        "bucket_cluster", "bucket_copy_out", "negate_keys", "fill",
        "sort_emit_topk"}) {
    EXPECT_EQ(kernels.count(name), 1u) << name;
  }
}

// n = 2^17 + 3 is large enough for HybridTopK to sample (n > 4 x 16384):
// uniform input takes the threshold-filter path, bucket-killer input
// overflows the candidate cap and falls back to plain bitonic.
TEST(KernelLogPin, HybridSamplingPath) {
  const topk::TopKOperator* op = topk::FindOperator("HybridTopK").value();
  LogHash h;
  std::set<std::string> kernels;
  for (Distribution d : {Distribution::kUniform, Distribution::kBucketKiller}) {
    HashCall<float>(*op, /*bottom=*/false, (size_t{1} << 17) + 3, 256, d, &h,
                    &kernels);
  }
  EXPECT_EQ(kernels.count("hybrid_sample"), 1u);
  EXPECT_EQ(kernels.count("hybrid_threshold_filter"), 1u);
  CheckPin("HybridTopK/2^17+3", h.value());
}

TEST(KernelLogPin, ChunkedSmallChunks) {
  LogHash h;
  for (size_t k : {7, 256}) {
    simt::Device dev;
    const auto in = MakeInput<float>(kN, Distribution::kUniform);
    auto r = gpu::ChunkedTopK(simt::ExecCtx(dev), in.data(), kN, k,
                              /*chunk_elems=*/1024);
    h.Launches(dev, 0);
    h.Result(r);
    simt::Device dev_kv;
    const auto in_kv = MakeInput<KV>(kN, Distribution::kBucketKiller);
    auto r_kv = gpu::ChunkedTopK(simt::ExecCtx(dev_kv), in_kv.data(), kN, k,
                                 /*chunk_elems=*/1024);
    h.Launches(dev_kv, 0);
    h.Result(r_kv);
  }
  CheckPin("ChunkedTopK/1024", h.value());
}

TEST(KernelLogPin, TweetQueries) {
  using engine::CompareOp;
  using engine::Filter;
  using engine::Ranking;
  using engine::TopKStrategy;
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
  const std::pair<TopKStrategy, const char*> strategies[] = {
      {TopKStrategy::kFilterSort, "sort"},
      {TopKStrategy::kFilterBitonic, "bitonic"},
      {TopKStrategy::kCombinedBitonic, "combined"},
  };
  for (const Q& q : queries) {
    for (const auto& [strategy, sname] : strategies) {
      simt::Device dev;
      auto table = engine::MakeTweetsTable(&dev, kN, kSeed).value();
      const size_t from = dev.kernel_log().size();
      auto r = engine::FilterTopKQuery(*table, q.filter, q.ranking, "id", q.k,
                                       strategy);
      LogHash h;
      h.Launches(dev, from);
      h.Pod(static_cast<int>(r.status().code()));
      if (r.ok()) {
        h.Pod(r->matched_rows);
        h.Bytes(r->ids.data(), r->ids.size() * sizeof(r->ids[0]));
        h.Bytes(r->rank_values.data(),
                r->rank_values.size() * sizeof(r->rank_values[0]));
      }
      CheckPin(std::string(q.name) + "/" + sname, h.value());
    }
  }
  const std::pair<engine::GroupByStrategy, const char*> group_strategies[] = {
      {engine::GroupByStrategy::kSort, "sort"},
      {engine::GroupByStrategy::kBitonic, "bitonic"},
  };
  for (const auto& [strategy, sname] : group_strategies) {
    simt::Device dev;
    auto table = engine::MakeTweetsTable(&dev, kN, kSeed).value();
    const size_t from = dev.kernel_log().size();
    auto r = engine::GroupByCountTopKQuery(*table, "uid", 50, strategy);
    LogHash h;
    h.Launches(dev, from);
    h.Pod(static_cast<int>(r.status().code()));
    if (r.ok()) {
      h.Pod(r->num_groups);
      h.Bytes(r->keys.data(), r->keys.size() * sizeof(r->keys[0]));
      h.Bytes(r->counts.data(), r->counts.size() * sizeof(r->counts[0]));
    }
    CheckPin(std::string("q4/") + sname, h.value());
  }
}

}  // namespace
}  // namespace mptopk
