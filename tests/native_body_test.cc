// The two bodies of every data-oblivious region
// (simt::Block::ForEachThreadOblivious) must leave the same bits behind.
// An untraced block runs the native bodies and a block traced without a
// memo runs the SIMT bodies, so each case stages the same shared tile in
// one block of each kind, runs the same site on both and compares shared
// bytes, the merge's register scratch and the scan's total. The inputs are
// tie-heavy: long runs of equal keys with distinct payloads, +-0.0 and
// NaNs. A second suite checks that sampled tracing, whose untraced blocks
// take the native bodies, returns the answers of exact tracing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/distributions.h"
#include "common/tuple_types.h"
#include "engine/query.h"
#include "engine/tweets.h"
#include "gputopk/bitonic_kernels.h"
#include "gputopk/bitonic_topk.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

using gpu::BitonicGeometry;
using gpu::BitonicOp;
using gpu::BitonicWindow;

uint32_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<uint32_t>(x);
}

// A key from a small pool; for floats it holds +-0.0, NaNs of both signs
// and infinities.
template <typename K>
K PoolKey(uint32_t r) {
  if constexpr (std::is_floating_point_v<K>) {
    constexpr K kNan = std::numeric_limits<K>::quiet_NaN();
    constexpr K kInf = std::numeric_limits<K>::infinity();
    const K pool[] = {K(0), -K(0), kNan, -kNan, K(1), K(-1), kInf, -kInf};
    return pool[r % 8];
  } else {
    const K pool[] = {K(0), K(1), std::numeric_limits<K>::max(),
                      std::numeric_limits<K>::lowest()};
    return pool[r % 4];
  }
}

// Element i of a tie-heavy input: keys repeat in runs of 16 (all of them
// when `all_equal`), payloads are distinct.
template <typename E>
E TieElem(size_t i, bool all_equal) {
  const uint32_t r = all_equal ? 3 : Mix(i / 16);
  const uint32_t payload = static_cast<uint32_t>(i);
  E e{};  // zeroes the padding of KV64
  if constexpr (std::is_same_v<E, KV> || std::is_same_v<E, KV64>) {
    e.key = PoolKey<decltype(e.key)>(r);
    e.value = payload;
  } else if constexpr (std::is_same_v<E, KKV>) {
    e.key = PoolKey<float>(r);
    e.key2 = PoolKey<float>(r >> 8);
    e.value = payload;
  } else if constexpr (std::is_same_v<E, KKKV>) {
    e.key = PoolKey<float>(r);
    e.key2 = PoolKey<float>(r >> 8);
    e.key3 = PoolKey<float>(r >> 16);
    e.value = payload;
  } else {
    e = PoolKey<E>(r);
  }
  return e;
}

// One block that runs every oblivious region's native body (untraced) and
// one that runs its SIMT body (traced, no memo), over the same geometry.
struct BlockPair {
  explicit BlockPair(int nt)
      : native(spec, 1, nt), simt(spec, 1, nt), tracer(spec, nt) {
    Reset();
  }
  // Rewinds both blocks: shared spans and ThreadScratch chunks are handed
  // out again from the start, with their contents kept.
  void Reset() {
    native.ResetFor(0, nullptr);
    tracer.Reset(native.block_dim());
    simt.ResetFor(0, &tracer);
  }

  const simt::DeviceSpec spec = simt::DeviceSpec::TitanXMaxwell();
  simt::Block native;
  simt::Block simt;
  simt::BlockTracer tracer;
};

// Allocates n elements in both blocks and stages the same bytes in each.
template <typename E>
std::pair<simt::SharedSpan<E>, simt::SharedSpan<E>> StageBoth(
    BlockPair* p, const std::vector<E>& in) {
  auto a = p->native.AllocShared<E>(in.size());
  auto b = p->simt.AllocShared<E>(in.size());
  std::memcpy(a.data(), in.data(), in.size() * sizeof(E));
  std::memcpy(b.data(), in.data(), in.size() * sizeof(E));
  return {a, b};
}

template <typename E>
bool SameBytes(const E* a, const E* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(E)) == 0;
}

template <typename E>
std::vector<E> TieTile(size_t n, size_t salt) {
  std::vector<E> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = TieElem<E>(i + salt, salt % 5 == 4);
  return v;
}

// A window as RunWindowShared runs it: the array extent, the thread count
// and the window's bits and steps.
using WindowKey = std::tuple<size_t, int, int, int, std::vector<uint64_t>>;

// Every (window, extent, threads) and merge extent the kernels run for one
// geometry: the fused SortReducer and BitonicReducer, the final reduce over
// each power of two from k to the tile, its closing rebuild, and the
// unfused staged local sort and rebuild.
struct Plan {
  std::set<WindowKey> windows;
  std::set<size_t> merges;
};

void AddSteps(Plan* plan, size_t m, const std::vector<gpu::BitonicStep>& steps,
              int threads, const BitonicGeometry& g) {
  const size_t ept = m / std::max(1, threads);
  for (const BitonicWindow& w :
       gpu::PlanBitonicWindows(steps, g.WindowBudget(ept))) {
    std::vector<uint64_t> st;
    for (const gpu::BitonicStep& s : w.steps) {
      st.push_back(uint64_t{s.dir} << 32 | s.inc);
    }
    plan->windows.insert({m, threads, w.lo_bit, w.hi_bit, st});
  }
}

void AddSchedule(Plan* plan, const std::vector<BitonicOp>& ops,
                 const gpu::BitonicNetwork& net, const BitonicGeometry& g) {
  for (const BitonicOp& op : ops) {
    if (op.kind == BitonicOp::kLocalSort) {
      AddSteps(plan, op.m, net.local_sort, g.nt, g);
    } else if (op.kind == BitonicOp::kRebuild) {
      AddSteps(plan, op.m, net.rebuild, gpu::bitonic::RebuildThreads(g, op.m),
               g);
    } else {
      plan->merges.insert(op.m);
    }
  }
}

Plan PlanFor(const BitonicGeometry& g, size_t k) {
  Plan plan;
  const gpu::BitonicNetwork net(k);
  for (bool unsorted : {true, false}) {
    AddSchedule(&plan, gpu::BitonicReduceSchedule(g.tile, g.OutPerBlock(),
                                                  unsorted),
                net, g);
    for (size_t p2 = k; p2 <= g.tile; p2 <<= 1) {
      AddSchedule(&plan, gpu::BitonicReduceSchedule(p2, k, unsorted), net, g);
    }
  }
  AddSteps(&plan, k, net.rebuild, gpu::bitonic::RebuildThreads(g, k), g);
  AddSteps(&plan, g.tile, net.local_sort, g.nt, g);
  AddSteps(&plan, g.tile, net.rebuild, g.nt, g);
  return plan;
}

// Runs every window and merge of PlanFor(g, k) on both blocks.
template <typename E>
void CheckPlan(const BitonicGeometry& g, size_t k, const std::string& what) {
  const Plan plan = PlanFor(g, k);
  BlockPair p(g.nt);
  size_t salt = 0;
  for (const WindowKey& key : plan.windows) {
    const auto& [m, threads, lo, hi, packed] = key;
    BitonicWindow w{lo, hi, {}};
    for (uint64_t s : packed) {
      w.steps.push_back({static_cast<uint32_t>(s >> 32),
                         static_cast<uint32_t>(s)});
    }
    p.Reset();
    auto [a, b] = StageBoth(&p, TieTile<E>(g.SharedElems(m), ++salt));
    gpu::bitonic::RunWindowShared(p.native, a, m, w, threads, g);
    gpu::bitonic::RunWindowShared(p.simt, b, m, w, threads, g);
    ASSERT_TRUE(SameBytes(a.data(), b.data(), a.size()))
        << what << " window m=" << m << " threads=" << threads
        << " bits=[" << lo << "," << hi << "] steps=" << packed.size();
  }
  for (size_t m : plan.merges) {
    p.Reset();
    auto [a, b] = StageBoth(&p, TieTile<E>(g.SharedElems(m), ++salt));
    gpu::bitonic::MergeShared(p.native, a, m, k, g);
    gpu::bitonic::MergeShared(p.simt, b, m, k, g);
    ASSERT_TRUE(SameBytes(a.data(), b.data(), a.size()))
        << what << " merge m=" << m;
    // The merge's first ThreadScratch chunk is handed out again after a
    // reset: compare every slot merge write read.
    const size_t outs = m / 2;
    const size_t at = std::min<size_t>(g.nt, outs);
    const size_t opt = CeilDiv(outs, at);
    p.Reset();
    const E* sa = p.native.ThreadScratch<E>(opt);
    const E* sb = p.simt.ThreadScratch<E>(opt);
    for (size_t j = 0; j < outs; ++j) {
      const size_t slot = (j % at) * opt + j / at;
      ASSERT_TRUE(SameBytes(sa + slot, sb + slot, 1))
          << what << " merge m=" << m << " scratch slot " << slot;
    }
  }
}

template <typename E>
void CheckAllPlans(const char* type) {
  for (size_t k : {1, 7, 32, 256, 1024}) {
    for (bool pad : {true, false}) {
      for (bool permute : {true, false}) {
        gpu::BitonicOptions opts;
        opts.pad_shared = pad;
        opts.chunk_permute = permute;
        const size_t k2 = NextPowerOfTwo(k);
        auto g = gpu::ResolveBitonicGeometry(simt::DeviceSpec::TitanXMaxwell(),
                                             sizeof(E), k2, opts);
        if (!g.ok()) continue;  // two k-runs exceed this type's tile
        CheckPlan<E>(*g, k2,
                     std::string(type) + " k=" + std::to_string(k2) +
                         " pad=" + std::to_string(pad) +
                         " permute=" + std::to_string(permute));
      }
    }
  }
}

TEST(NativeBody, BitonicWindowsAndMergesMatchSimt) {
#define MPTOPK_X(E, tag, name) CheckAllPlans<E>(name);
  MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X
}

// Scan step, bounce and shift: sizes with and without the bounce, a
// single element, partial warps, and data placed before or after scratch.
TEST(NativeBody, BlockScanMatchesSimt) {
  for (int nt : {64, 256}) {
    for (size_t n : {1, 2, 3, 31, 32, 33, 64, 100, 128, 255, 256}) {
      for (bool data_first : {true, false}) {
        BlockPair p(nt);
        std::vector<uint32_t> in(n);
        for (size_t i = 0; i < n; ++i) {
          in[i] = i % 7 == 0 ? 0xfffffff0u + Mix(i) % 16 : Mix(i) % 5;
        }
        simt::SharedSpan<uint32_t> scratch[2], data[2];
        simt::Block* blocks[2] = {&p.native, &p.simt};
        uint32_t total[2] = {7, 7};
        for (int s = 0; s < 2; ++s) {
          if (data_first) {
            data[s] = blocks[s]->AllocShared<uint32_t>(n);
            scratch[s] = blocks[s]->AllocShared<uint32_t>(n);
          } else {
            scratch[s] = blocks[s]->AllocShared<uint32_t>(n);
            data[s] = blocks[s]->AllocShared<uint32_t>(n);
          }
          std::memcpy(data[s].data(), in.data(), n * sizeof(uint32_t));
          std::memset(scratch[s].data(), 0xab, n * sizeof(uint32_t));
          gpu::BlockExclusiveScan(*blocks[s], data[s], n, scratch[s],
                                  &total[s]);
        }
        const std::string what = "nt=" + std::to_string(nt) +
                                 " n=" + std::to_string(n) +
                                 " data_first=" + std::to_string(data_first);
        EXPECT_TRUE(SameBytes(data[0].data(), data[1].data(), n)) << what;
        EXPECT_TRUE(SameBytes(scratch[0].data(), scratch[1].data(), n))
            << what;
        EXPECT_EQ(total[0], total[1]) << what;
        uint32_t sum = 0;
        for (uint32_t v : in) sum += v;
        EXPECT_EQ(total[0], sum) << what;
      }
    }
  }
}

// --- Sampled tracing returns the answers of exact tracing --------------------

template <typename E>
std::vector<E> TieInput(size_t n) {
  std::vector<E> v(n);
  const auto keys = GenerateFloats(n, Distribution::kUniform, 5);
  for (size_t i = 0; i < n; ++i) {
    // Every fourth element joins a run of tie-heavy keys.
    v[i] = TieElem<E>(i, false);
    if (i % 4 != 0) {
      if constexpr (std::is_same_v<E, KV>) {
        v[i].key = keys[i];
      } else {
        v[i] = keys[i];
      }
    }
  }
  return v;
}

template <typename E>
void CompareSampled(const char* op_name, const std::vector<E>& in, size_t k) {
  const topk::TopKOperator* op = topk::FindOperator(op_name).value();
  simt::Device exact;
  simt::Device sampled;
  sampled.set_trace_sample_target(1);
  auto want = op->TopKHost(exact, in.data(), in.size(), k);
  auto got = op->TopKHost(sampled, in.data(), in.size(), k);
  const std::string what = std::string(op_name) + " sizeof(E)=" +
                           std::to_string(sizeof(E)) +
                           " k=" + std::to_string(k);
  ASSERT_TRUE(want.ok() && got.ok()) << what;
  ASSERT_EQ(got->items.size(), want->items.size()) << what;
  EXPECT_TRUE(SameBytes(got->items.data(), want->items.data(),
                        got->items.size()))
      << what;
}

TEST(NativeBody, SampledOperatorsAnswerAsExact) {
  constexpr size_t kN = size_t{1} << 18;
  const auto floats = TieInput<float>(kN);
  const auto kvs = TieInput<KV>(kN);
  for (const char* op : {"BitonicTopK", "HybridTopK", "Sort"}) {
    for (size_t k : {7, 256}) {
      CompareSampled<float>(op, floats, k);
      CompareSampled<KV>(op, kvs, k);
    }
  }
}

TEST(NativeBody, SampledFusedQ1AnswersAsExact) {
  constexpr size_t kRows = size_t{1} << 17;
  simt::Device exact;
  simt::Device sampled;
  sampled.set_trace_sample_target(1);
  const engine::Filter q1{{{"tweet_time", engine::CompareOp::kLt,
                            0.5 * engine::kTweetTimeRange}}};
  const engine::Ranking by_retweets{{{"retweet_count", 1.0}}};
  auto exact_table = engine::MakeTweetsTable(&exact, kRows, 3).value();
  auto sampled_table = engine::MakeTweetsTable(&sampled, kRows, 3).value();
  for (size_t k : {50, 256}) {
    auto want = engine::FilterTopKQuery(*exact_table, q1, by_retweets, "id", k,
                                        engine::TopKStrategy::kCombinedBitonic);
    auto got = engine::FilterTopKQuery(*sampled_table, q1, by_retweets, "id",
                                       k, engine::TopKStrategy::kCombinedBitonic);
    ASSERT_TRUE(want.ok() && got.ok()) << k;
    EXPECT_EQ(got->ids, want->ids) << k;
  }
}

}  // namespace
}  // namespace mptopk
