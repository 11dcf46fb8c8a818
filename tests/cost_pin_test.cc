// Pins every Section 7 cost prediction the planner and the benches read: the
// bit pattern (printf %a) of each registry CostMs hook, of the
// cost::BitonicTopKCost breakdown, of PerThreadCostMs and of HybridCostMs,
// over element sizes 4/8/12/16, radix key sizes 4/8, k in {1, 7, 32, 256,
// 1024, 2048} raw and rounded up to a power of two, five input sizes, the
// four distributions and 1 or 4 concurrent streams.
//
// Each GPU operator's model is hashed on its own, so a change to one
// operator's launch plan moves only that operator's constant. A deliberate
// change to a prediction updates the constant of its group in the same
// change; the failure message prints the new value.
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

enum Group { kSort, kPerThread, kRadixSelect, kBucketSelect, kBitonic,
             kHybrid, kGroups };

// The value a prediction is hashed under: its function and its input.
enum class Fn { kHook, kBitonicBreakdown, kPerThread, kHybrid };

Group GroupOf(Fn fn, const std::string& hook) {
  switch (fn) {
    case Fn::kBitonicBreakdown:
      return kBitonic;
    case Fn::kPerThread:
      return kPerThread;
    case Fn::kHybrid:
      return kHybrid;
    case Fn::kHook:
      break;
  }
  if (hook == "Sort") return kSort;
  if (hook == "PerThreadTopK") return kPerThread;
  if (hook == "RadixSelect") return kRadixSelect;
  if (hook == "BucketSelect") return kBucketSelect;
  if (hook == "BitonicTopK") return kBitonic;
  EXPECT_EQ(hook, "HybridTopK") << "a new cost hook needs its own group";
  return kHybrid;
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
    h[GroupOf(fn, hook)].Add(input + tag + " " + Bits(v));
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
  const std::array<uint64_t, kGroups> want = {
      0x92a7e4e495d49ca5ull, 0x2d13d13a3a97883bull, 0x8aa4748518db65e5ull,
      0xfa9f0d1fdac68a2dull, 0x8805f8e2b1574221ull, 0x4fa487b650139877ull};
  const std::array<size_t, kGroups> want_count = {1960, 3920,  1960,
                                                  1960, 11760, 3920};
  const char* names[kGroups] = {"sort",          "perthread", "radix_select",
                                "bucket_select", "bitonic",   "hybrid"};
  for (int g = 0; g < kGroups; ++g) {
    EXPECT_EQ(h[g].count(), want_count[g]) << names[g];
    EXPECT_EQ(h[g].value(), want[g])
        << names[g] << " predictions changed; new constant "
        << Hex(h[g].value());
  }
}

}  // namespace
}  // namespace mptopk
