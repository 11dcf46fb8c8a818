// The launch plans the cost model prices are the ones the kernels execute.
//
//  * For BitonicTopK (gputopk/bitonic_plan.h's geometry) and PerThreadTopK
//    (PlanPerThreadPasses), every launch in the kernel log of a real call
//    has the name, grid and block size its plan predicts. The sizes are not
//    tile multiples, where an integer grid rule and a float mirror of it
//    part ways (n = 131172 at k = 32: the per-thread kernel launches one
//    first-pass block).
//  * For all six GPU operators, the number of launches a Section 7 model
//    prices equals the kernel log's length of a real registry call. The
//    count is read off the model itself: the prediction moves by one
//    launch overhead per launch when only the overhead changes.
//  * RadixSelect and BucketSelect launch a fill + histogram per pass, a
//    fill + cluster per pass that reduces and one copy-out
//    (SelectLaunches), which the models count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <cmath>

#include "common/distributions.h"
#include "common/tuple_types.h"
#include "cost/cost_model.h"
#include "gputopk/bitonic_plan.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/kernel_util.h"
#include "gputopk/perthread_topk.h"
#include "topk/registry.h"

namespace mptopk::gpu {
namespace {

struct Launch {
  std::string name;
  int grid;
  int block;
  bool operator==(const Launch&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Launch& l) {
  return os << l.name << "<<<" << l.grid << ", " << l.block << ">>>";
}

template <typename E>
std::vector<E> MakeInput(size_t n,
                         Distribution dist = Distribution::kUniform) {
  const auto keys = GenerateFloats(n, dist, 11);
  std::vector<E> out(n);
  for (size_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<E, float>) {
      out[i] = keys[i];
    } else if constexpr (std::is_same_v<E, KV>) {
      out[i] = KV{keys[i], static_cast<uint32_t>(i)};
    } else {
      out[i] = KKKV{keys[i], keys[(i * 7) % n], keys[(i * 13) % n],
                    static_cast<uint32_t>(i)};
    }
  }
  return out;
}

// Runs `call` on a fresh device holding the input and returns the status
// and the launches it logged.
template <typename E, typename Call>
std::vector<Launch> Run(size_t n, Call call, Status* status,
                        Distribution dist = Distribution::kUniform) {
  simt::Device dev;
  dev.set_trace_sample_target(1);  // launches do not depend on tracing
  const std::vector<E> in = MakeInput<E>(n, dist);
  auto buf = dev.Alloc<E>(n);
  EXPECT_TRUE(buf.ok());
  EXPECT_TRUE(dev.CopyToDevice(*buf, in.data(), n).ok());
  const size_t from = dev.kernel_log().size();
  *status = call(dev, *buf).status();
  std::vector<Launch> out;
  const auto& log = dev.kernel_log();
  for (size_t i = from; i < log.size(); ++i) {
    out.push_back({log[i].name, log[i].resources.grid_dim,
                   log[i].resources.block_dim});
  }
  return out;
}

// The fused bitonic pipeline as its geometry plans it.
std::vector<Launch> BitonicLaunches(const BitonicGeometry& g, size_t n) {
  const int nt = g.nt;
  if (n <= g.tile) return {{"bitonic_final_reduce", 1, nt}};
  std::vector<Launch> out = {
      {"bitonic_sort_reducer", static_cast<int>(g.Blocks(n)), nt}};
  for (size_t m = g.Reduced(n); m > g.tile; m = g.Reduced(m)) {
    out.push_back({"bitonic_reducer", static_cast<int>(g.Blocks(m)), nt});
  }
  out.push_back({"bitonic_final_reduce", 1, nt});
  return out;
}

std::vector<Launch> PerThreadLaunches(const PerThreadPlan& plan) {
  std::vector<Launch> out;
  for (int grid : plan.grids) out.push_back({"perthread_heap", grid, plan.nt});
  out.push_back({"perthread_final", 1, plan.ft});
  return out;
}

template <typename E>
void CheckPlans() {
  const simt::DeviceSpec spec;
  for (size_t n : {size_t{5000}, size_t{131172}, size_t{262444}}) {
    for (size_t k : {1, 32, 256, 1024}) {
      SCOPED_TRACE("sizeof(E)=" + std::to_string(sizeof(E)) +
                   " n=" + std::to_string(n) + " k=" + std::to_string(k));
      Status st;
      const auto bitonic = Run<E>(
          n,
          [&](simt::Device& dev, simt::DeviceBuffer<E>& buf) {
            return BitonicTopKDevice(dev, buf, n, k);
          },
          &st);
      const auto g = ResolveBitonicGeometry(spec, sizeof(E), k, {});
      ASSERT_EQ(st.ok(), g.ok()) << st;
      if (g.ok()) {
        EXPECT_EQ(bitonic, BitonicLaunches(*g, n));
      }

      const auto perthread = Run<E>(
          n,
          [&](simt::Device& dev, simt::DeviceBuffer<E>& buf) {
            return PerThreadTopKDevice(dev, buf, n, k);
          },
          &st);
      const auto plan = PlanPerThreadPasses(spec, sizeof(E), n, k, false);
      ASSERT_EQ(st.ok(), plan.ok()) << st;
      if (plan.ok()) {
        EXPECT_EQ(perthread, PerThreadLaunches(*plan));
      }
    }
  }
}

TEST(PlanAgreementTest, Float) { CheckPlans<float>(); }
TEST(PlanAgreementTest, KeyValue) { CheckPlans<KV>(); }
TEST(PlanAgreementTest, ThreeKeysValue) { CheckPlans<KKKV>(); }

// --- Launch counts: model vs kernel log -------------------------------------

// The launches the operator's cost hook prices for (E, n, k, dist): the
// prediction's change when only the launch overhead changes, in overheads.
template <typename E>
int ModelLaunches(const topk::TopKOperator& op, size_t n, size_t k,
                  Distribution dist) {
  const cost::Workload w{n, k, sizeof(E), sizeof(KeyBits<E>), dist};
  const simt::DeviceSpec spec;
  simt::DeviceSpec slow = spec;
  slow.kernel_launch_overhead_us += 100.0;
  const double extra_ms = 100.0 * 1e-3;
  return static_cast<int>(
      std::lround((op.CostMs(slow, w) - op.CostMs(spec, w)) / extra_ms));
}

// The registry operator's launches on a real call.
template <typename E>
std::vector<Launch> RunOp(const topk::TopKOperator& op, size_t n, size_t k,
                          Distribution dist) {
  Status st;
  auto log = Run<E>(
      n,
      [&](simt::Device& dev, simt::DeviceBuffer<E>& buf) {
        return op.TopKDevice(dev, buf, n, k);
      },
      &st, dist);
  EXPECT_TRUE(st.ok()) << st;
  return log;
}

int Count(const std::vector<Launch>& log, const std::string& name) {
  int c = 0;
  for (const Launch& l : log) c += l.name == name;
  return c;
}

template <typename E>
void ExpectModelLaunches(const std::string& name, size_t n, size_t k,
                         Distribution dist = Distribution::kUniform) {
  const topk::TopKOperator& op = *topk::FindOperator(name).value();
  SCOPED_TRACE(name + " sizeof(E)=" + std::to_string(sizeof(E)) +
               " n=" + std::to_string(n) + " k=" + std::to_string(k) +
               " dist=" + DistributionName(dist));
  const auto log = RunOp<E>(op, n, k, dist);
  EXPECT_EQ(ModelLaunches<E>(op, n, k, dist), static_cast<int>(log.size()));
}

TEST(LaunchAgreementTest, Sort) {
  for (size_t n : {size_t{5000}, size_t{131172}}) {
    ExpectModelLaunches<float>("Sort", n, 32);
    ExpectModelLaunches<KV>("Sort", n, 7);
  }
}

TEST(LaunchAgreementTest, BitonicTopK) {
  const auto& op = *topk::FindOperator("BitonicTopK").value();
  // One tile: bitonic_final_reduce is the only kernel.
  ExpectModelLaunches<KV>("BitonicTopK", 256, 256);
  ExpectModelLaunches<float>("BitonicTopK", 3000, 32);
  ExpectModelLaunches<KKKV>("BitonicTopK", 2000, 16);
  // SortReducer, BitonicReducers, final kernel.
  for (size_t n : {size_t{131172}, size_t{262444}}) {
    ExpectModelLaunches<float>("BitonicTopK", n, 32);
    ExpectModelLaunches<KV>("BitonicTopK", n, 256);
  }
  EXPECT_GE(Count(RunOp<float>(op, 262444, 32, Distribution::kUniform),
                  "bitonic_reducer"),
            1);
}

// CheckPlans' points where the heaps fit shared memory.
template <typename E>
void CheckPerThreadLaunches() {
  for (size_t n : {size_t{5000}, size_t{131172}, size_t{262444}}) {
    for (size_t k : {1, 32, 256, 1024}) {
      if (PlanPerThreadPasses(simt::DeviceSpec{}, sizeof(E), n, k, false)
              .ok()) {
        ExpectModelLaunches<E>("PerThreadTopK", n, k);
      }
    }
  }
}

TEST(LaunchAgreementTest, PerThreadTopK) {
  CheckPerThreadLaunches<float>();
  CheckPerThreadLaunches<KV>();
  CheckPerThreadLaunches<KKKV>();
}

TEST(LaunchAgreementTest, HybridTopK) {
  // Not sampled: plain bitonic top-k.
  ExpectModelLaunches<float>("HybridTopK", 5000, 32);
  ExpectModelLaunches<KV>("HybridTopK", 65536, 64);
  // Sampled: hybrid_sample, bitonic over the sample, the threshold filter,
  // bitonic over the candidates.
  ExpectModelLaunches<float>("HybridTopK", 131172, 32);
  ExpectModelLaunches<KV>("HybridTopK", 262444, 256);
  // Sampled, but the pivot keeps everything: bitonic over the input.
  ExpectModelLaunches<float>("HybridTopK", 131172, 32,
                             Distribution::kBucketKiller);
}

// When k rounds up past n, the comparison-network operators run radix
// select, and their hooks price radix select's launches.
TEST(LaunchAgreementTest, RoundUpPastNRunsRadixSelect) {
  const auto& radix = *topk::FindOperator("RadixSelect").value();
  const size_t n = 300, k = 260;
  for (const char* name : {"BitonicTopK", "HybridTopK"}) {
    const auto& op = *topk::FindOperator(name).value();
    const auto log = RunOp<KV>(op, n, k, Distribution::kUniform);
    EXPECT_GE(Count(log, "select_histogram"), 1) << name;
    EXPECT_EQ(ModelLaunches<KV>(op, n, k, Distribution::kUniform),
              ModelLaunches<KV>(radix, n, k, Distribution::kUniform))
        << name;
  }
}

TEST(LaunchAgreementTest, BucketSelect) {
  // k = 1: bucket_minmax and the gather.
  ExpectModelLaunches<float>("BucketSelect", 131172, 1);
  // n = k: min/max and the flush.
  ExpectModelLaunches<KV>("BucketSelect", 256, 256);
  ExpectModelLaunches<float>("BucketSelect", 512, 512);
  // Bucket killer: 7 passes until the key range collapses.
  for (size_t n : {size_t{1} << 14, size_t{1} << 16, size_t{131172}}) {
    for (size_t k : {32, 256, 1024}) {
      ExpectModelLaunches<float>("BucketSelect", n, k,
                                 Distribution::kBucketKiller);
    }
  }
}

// The select launch rule against the log's own histogram and cluster
// counts, on inputs where passes skip (bucket killer) and stop early.
template <typename E>
void CheckSelectRule() {
  const auto& radix = *topk::FindOperator("RadixSelect").value();
  const auto& bucket = *topk::FindOperator("BucketSelect").value();
  for (Distribution dist :
       {Distribution::kUniform, Distribution::kBucketKiller}) {
    for (size_t n : {size_t{256}, size_t{5000}, size_t{32768}}) {
      for (size_t k : {size_t{7}, size_t{50}, size_t{256}}) {
        SCOPED_TRACE("sizeof(E)=" + std::to_string(sizeof(E)) +
                     " n=" + std::to_string(n) + " k=" + std::to_string(k) +
                     " dist=" + DistributionName(dist));
        const auto r = RunOp<E>(radix, n, k, dist);
        EXPECT_EQ(static_cast<int>(r.size()),
                  SelectLaunches(Count(r, "select_histogram"),
                                 Count(r, "select_cluster")));
        const auto b = RunOp<E>(bucket, n, k, dist);
        EXPECT_EQ(static_cast<int>(b.size()),
                  1 + SelectLaunches(Count(b, "bucket_histogram"),
                                     Count(b, "bucket_cluster")));
        EXPECT_EQ(Count(b, "bucket_histogram"), Count(b, "bucket_cluster"));
      }
    }
  }
}

TEST(LaunchAgreementTest, SelectRuleFloat) { CheckSelectRule<float>(); }
TEST(LaunchAgreementTest, SelectRuleKeyValue) { CheckSelectRule<KV>(); }

TEST(PlanAgreementTest, PerThreadFirstPassAtNonTileMultiple) {
  // m / (16k) = 256.2 threads: the integer rule launches one 256-thread
  // block, a float ceil would plan two.
  const auto plan = PlanPerThreadPasses(simt::DeviceSpec{}, sizeof(float),
                                        131172, 32, false);
  ASSERT_TRUE(plan.ok());
  ASSERT_FALSE(plan->grids.empty());
  EXPECT_EQ(plan->grids.front(), 1);
}

}  // namespace
}  // namespace mptopk::gpu
