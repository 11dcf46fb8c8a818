// Pins every Section 7 cost prediction the planner and the benches read: the
// bit pattern (printf %a) of each registry CostMs hook, of the
// cost::BitonicTopKCost breakdown, of PerThreadCostMs and of HybridCostMs,
// over element sizes 4/8/12/16, radix key sizes 4/8, k in {1, 7, 32, 256,
// 1024, 2048} raw and rounded up to a power of two, five input sizes, the
// four distributions and 1 or 4 concurrent streams.
//
// The predictions fall into three groups, each hashed on its own:
//  * kStable: everything not named below.
//  * kPerThreadBands: the per-thread predictions at n = 2^17 + 3 for the
//    (element size, k) pairs where the cost model used to size its passes
//    with a float ceil(m / (16k) / nt) while the kernel uses integer
//    division; the model now reads the kernel's pass plan, so these moved
//    (for example 2 first-pass blocks priced where the kernel launches 1 at
//    f32, k = 32).
//  * kBitonicFit: k = 2048, where one geometry resolver now decides whether
//    two k-runs fit a tile. HybridTopK is feasible for elements of 8 bytes
//    or less (the kernels answer it), and the raw bitonic and hybrid models
//    report infeasible (-1) for larger elements (the kernels reject them).
//
// A deliberate change to a prediction updates the constant of its group in
// the same change; the failure message prints the new value.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/bits.h"
#include "cost/cost_model.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

enum Group { kStable, kPerThreadBands, kBitonicFit, kGroups };

// The value a prediction is hashed under: its function and its input.
enum class Fn { kHook, kBitonicBreakdown, kPerThread, kHybrid };

Group GroupOf(Fn fn, const std::string& hook, const cost::Workload& w) {
  const bool perthread =
      fn == Fn::kPerThread || (fn == Fn::kHook && hook == "PerThreadTopK");
  if (perthread && w.n == (size_t{1} << 17) + 3 &&
      (w.k == 1 || w.k == 8 || w.k == 32 ||
       (w.k == 256 && w.elem_size == 4))) {
    return kPerThreadBands;
  }
  if (w.k == 2048) {
    if (fn == Fn::kHook && hook == "HybridTopK" && w.elem_size <= 8) {
      return kBitonicFit;
    }
    if ((fn == Fn::kBitonicBreakdown || fn == Fn::kHybrid) &&
        w.elem_size > 8) {
      return kBitonicFit;
    }
  }
  return kStable;
}

class Fnv {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 1099511628211ull;
    h_ = (h_ ^ 0xffu) * 1099511628211ull;  // separator
    ++count_;
  }
  uint64_t value() const { return h_; }
  size_t count() const { return count_; }

 private:
  uint64_t h_ = 14695981039346656037ull;
  size_t count_ = 0;
};

std::string Bits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::vector<cost::Workload> PinnedWorkloads() {
  std::vector<cost::Workload> out;
  for (size_t es : {4, 8, 12, 16}) {
    for (size_t ks : {4, 8}) {
      if (ks > es) continue;
      for (size_t k : {1, 7, 8, 32, 256, 1024, 2048}) {  // 8 = 7 rounded up
        for (size_t n : {size_t{5000}, size_t{1} << 16, (size_t{1} << 17) + 3,
                         size_t{1} << 20, size_t{1} << 29}) {
          for (Distribution d :
               {Distribution::kUniform, Distribution::kIncreasing,
                Distribution::kDecreasing, Distribution::kBucketKiller}) {
            for (int streams : {1, 4}) {
              out.push_back(cost::Workload{n, k, es, ks, d, streams});
            }
          }
        }
      }
    }
  }
  return out;
}

TEST(CostPinTest, PredictionsBitIdentical) {
  const simt::DeviceSpec spec;
  std::array<Fnv, kGroups> h;
  auto add = [&](Fn fn, const std::string& hook, const cost::Workload& w,
                 const std::string& tag, double v) {
    char input[128];
    std::snprintf(input, sizeof(input), "es=%zu ks=%zu k=%zu n=%zu d=%d s=%d ",
                  w.elem_size, w.key_size, w.k, w.n, static_cast<int>(w.dist),
                  w.concurrent_streams);
    h[GroupOf(fn, hook, w)].Add(input + tag + " " + Bits(v));
  };
  for (const cost::Workload& w : PinnedWorkloads()) {
    for (const topk::TopKOperator* op : topk::Registry::Instance().All()) {
      if (op->caps().cost_ms == nullptr) continue;
      add(Fn::kHook, op->name(), w, "hook:" + op->name(), op->CostMs(spec, w));
    }
    const cost::BitonicCostBreakdown b = cost::BitonicTopKCost(spec, w);
    for (double v : {b.sort_reducer_global_ms, b.sort_reducer_shared_ms,
                     b.reducer_tail_ms, b.total_ms, b.shared_traffic_in_d}) {
      add(Fn::kBitonicBreakdown, "", w, "bitonic", v);
    }
    add(Fn::kPerThread, "", w, "perthread", cost::PerThreadCostMs(spec, w));
    add(Fn::kHybrid, "", w, "hybrid", cost::HybridCostMs(spec, w));
  }
  // Before the model read the kernels' plans, kPerThreadBands hashed to
  // 0xd7015436313920db and kBitonicFit to 0xe3d9ec82b889e0f7; kStable is
  // unchanged since then.
  const std::array<uint64_t, kGroups> want = {
      0xefe99fb0496b842eull, 0x2bbd7a6d7a9a12ddull, 0xed2f99497f310da0ull};
  const std::array<size_t, kGroups> want_count = {24048, 352, 1080};
  const char* names[kGroups] = {"stable", "perthread_bands", "bitonic_fit"};
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_EQ(h[g].count(), want_count[g]) << names[g];
    EXPECT_EQ(h[g].value(), want[g])
        << names[g] << " predictions changed; new constant "
        << Hex(h[g].value());
  }
}

}  // namespace
}  // namespace mptopk
