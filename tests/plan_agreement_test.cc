// The launch plans the cost model prices are the ones the kernels execute:
// for BitonicTopK (gputopk/bitonic_plan.h's geometry) and PerThreadTopK
// (PlanPerThreadPasses), every launch in the kernel log of a real call has
// the name, grid and block size its plan predicts. The sizes are not tile
// multiples, where an integer grid rule and a float mirror of it part ways
// (n = 131172 at k = 32: the per-thread kernel launches one first-pass
// block).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/distributions.h"
#include "common/tuple_types.h"
#include "gputopk/bitonic_plan.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/perthread_topk.h"

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
std::vector<E> MakeInput(size_t n) {
  const auto keys = GenerateFloats(n, Distribution::kUniform, 11);
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
std::vector<Launch> Run(size_t n, Call call, Status* status) {
  simt::Device dev;
  const std::vector<E> in = MakeInput<E>(n);
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
