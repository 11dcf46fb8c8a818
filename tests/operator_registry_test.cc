// Tests for the unified top-k operator registry (topk/registry.h): caps
// enforcement across every registered operator, name/alias resolution, and
// the one-file extension contract — a dummy operator registered in this
// translation unit must show up in the registry, the GPU sweep and the
// planner ranking with no edits elsewhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/distributions.h"
#include "planner/plan_topk.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

// --- The test-only dummy operator --------------------------------------------
// Registered from this file alone (acceptance criterion: zero edits outside
// it). Supports f32 only, delegates to the registered Sort operator, and
// carries a deliberately terrible cost model so it ranks but never wins.

double DummyCost(const simt::DeviceSpec&, const cost::Workload&) {
  return 1e9;
}

class DummyOperator final : public topk::TopKOperator {
 public:
  DummyOperator() : TopKOperator("TestDummy", Caps()) {}

 private:
  static topk::OperatorCaps Caps() {
    topk::OperatorCaps c;
    c.backend = topk::Backend::kGpuSim;
    c.elem_types = topk::ElemBit(topk::ElemType::kF32);
    c.cost_ms = &DummyCost;
    return c;
  }

  StatusOr<gpu::TopKResult<float>> RunDevice(const simt::ExecCtx& dev,
                                             simt::DeviceBuffer<float>& data,
                                             size_t n,
                                             size_t k) const override {
    MPTOPK_ASSIGN_OR_RETURN(const topk::TopKOperator* sort,
                            topk::FindOperator("Sort"));
    return sort->TopKDevice(dev, data, n, k);
  }
};

topk::OperatorRegistrar dummy_registrar(std::make_unique<DummyOperator>(),
                                        /*order=*/999, {"test_dummy"});

// -----------------------------------------------------------------------------

std::vector<const topk::TopKOperator*> AllOps() {
  return topk::Registry::Instance().All();
}

constexpr topk::ElemType kEveryElemType[] = {
    topk::ElemType::kF32,  topk::ElemType::kF64, topk::ElemType::kU32,
    topk::ElemType::kI32,  topk::ElemType::kU64, topk::ElemType::kI64,
    topk::ElemType::kKV,   topk::ElemType::kKV64, topk::ElemType::kKKV,
    topk::ElemType::kKKKV};

TEST(OperatorRegistryTest, RegisteredSetIsDocumentedOperatorsPlusDummy) {
  std::vector<std::string> names;
  for (const auto* op : AllOps()) names.push_back(op->name());
  const std::vector<std::string> expected = {
      "Sort",        "PerThreadTopK", "RadixSelect", "BucketSelect",
      "BitonicTopK", "HybridTopK",    "ChunkedTopK", "cpu:StlPq",
      "cpu:HandPq",  "cpu:Bitonic",   "TestDummy"};
  EXPECT_EQ(names, expected);
}

TEST(OperatorRegistryTest, UnsupportedElemTypeIsInvalidArgument) {
  for (const auto* op : AllOps()) {
    for (topk::ElemType t : kEveryElemType) {
      const bool supported =
          (op->caps().elem_types & topk::ElemBit(t)) != 0;
      Status st = op->CheckCaps(t, /*n=*/1024, /*k=*/8);
      if (supported) {
        EXPECT_TRUE(st.ok()) << op->name() << " " << ElemTypeName(t);
      } else {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
            << op->name() << " " << ElemTypeName(t);
      }
    }
  }
  // Concrete calls, not just CheckCaps: a CPU operator fed a u64 buffer
  // and the f32-only dummy fed doubles must reject before running.
  std::vector<uint64_t> u64s(256, 1);
  simt::Device dev;
  auto cpu_op = topk::FindOperator("cpu_handpq");
  ASSERT_TRUE(cpu_op.ok());
  auto r1 = cpu_op.value()->TopKHost(dev, u64s.data(), u64s.size(), 4);
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  std::vector<double> f64s(256, 1.0);
  auto r2 = dummy_registrar.registered->TopKHost(dev, f64s.data(),
                                                 f64s.size(), 4);
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST(OperatorRegistryTest, Pow2OnlyOperatorsRejectNonPow2K) {
  auto data = GenerateFloats(1024, Distribution::kUniform);
  int pow2_only_ops = 0;
  for (const auto* op : AllOps()) {
    if (!op->caps().pow2_k_only) continue;
    ++pow2_only_ops;
    simt::Device dev;
    auto r = op->TopKHost(dev, data.data(), data.size(), 3);
    ASSERT_FALSE(r.ok()) << op->name();
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << op->name();
    // The nearest power of two must be accepted by the same caps check.
    EXPECT_TRUE(op->CheckCaps(topk::ElemType::kF32, data.size(), 4).ok())
        << op->name();
  }
  EXPECT_GE(pow2_only_ops, 1) << "cpu:Bitonic must declare pow2_k_only";
}

TEST(OperatorRegistryTest, KBeyondMaxKIsInvalidArgument) {
  int capped_ops = 0;
  for (const auto* op : AllOps()) {
    if (op->caps().max_k == 0) continue;
    ++capped_ops;
    const size_t bad_k = NextPowerOfTwo(op->caps().max_k + 1);
    const size_t n = bad_k * 4;
    auto data = GenerateFloats(n, Distribution::kUniform);
    simt::Device dev;
    auto r = op->TopKHost(dev, data.data(), n, bad_k);
    ASSERT_FALSE(r.ok()) << op->name();
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << op->name();
  }
  EXPECT_GE(capped_ops, 1) << "cpu:Bitonic must declare max_k";
}

TEST(OperatorRegistryTest, KZeroAndKGreaterThanNAreInvalidForEveryOperator) {
  auto data = GenerateFloats(64, Distribution::kUniform);
  for (const auto* op : AllOps()) {
    EXPECT_EQ(op->CheckCaps(topk::ElemType::kF32, 64, 0).code(),
              StatusCode::kInvalidArgument)
        << op->name();
    EXPECT_EQ(op->CheckCaps(topk::ElemType::kF32, 64, 65).code(),
              StatusCode::kInvalidArgument)
        << op->name();
  }
}

TEST(OperatorRegistryTest, UnknownNameErrorListsRegisteredOperators) {
  auto r = topk::FindOperator("definitely_not_an_operator");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  const std::string msg = r.status().ToString();
  EXPECT_NE(msg.find("registered operators"), std::string::npos) << msg;
  for (const auto* op : AllOps()) {
    EXPECT_NE(msg.find(op->name()), std::string::npos)
        << msg << " missing " << op->name();
  }
}

TEST(OperatorRegistryTest, AliasesResolveCaseInsensitively) {
  const std::pair<const char*, const char*> cases[] = {
      {"sort", "Sort"},           {"perthread", "PerThreadTopK"},
      {"radix_select", "RadixSelect"}, {"bucket_select", "BucketSelect"},
      {"bitonic", "BitonicTopK"}, {"hybrid", "HybridTopK"},
      {"chunked", "ChunkedTopK"}, {"stlpq", "cpu:StlPq"},
      {"cpu_stlpq", "cpu:StlPq"}, {"handpq", "cpu:HandPq"},
      {"cpu_handpq", "cpu:HandPq"}, {"cpu_bitonic", "cpu:Bitonic"},
      {"BITONIC", "BitonicTopK"}, {"BitonicTopK", "BitonicTopK"},
      {"test_dummy", "TestDummy"}};
  for (const auto& [alias, canonical] : cases) {
    auto r = topk::FindOperator(alias);
    ASSERT_TRUE(r.ok()) << alias;
    EXPECT_EQ(r.value()->name(), canonical) << alias;
  }
}

TEST(OperatorRegistryTest, DummyOperatorJoinsSweepAndPlannerRanking) {
  // Registry and sweep membership.
  auto all = AllOps();
  EXPECT_NE(std::find(all.begin(), all.end(), dummy_registrar.registered),
            all.end());
  auto sweep = topk::GpuSweepOperators();
  EXPECT_NE(std::find(sweep.begin(), sweep.end(),
                      dummy_registrar.registered),
            sweep.end());

  // Planner ranking: present (its cost hook ran) but never the best.
  auto plan = planner::PlanTopK(simt::DeviceSpec::TitanXMaxwell(),
                                cost::Workload{1 << 24, 64, 4, 4,
                                               Distribution::kUniform});
  ASSERT_TRUE(plan.ok());
  bool ranked = false;
  for (const auto& e : plan->ranked) {
    if (e.op == dummy_registrar.registered) {
      ranked = true;
      EXPECT_EQ(e.predicted_ms, 1e9);
    }
  }
  EXPECT_TRUE(ranked);
  EXPECT_NE(plan->best, dummy_registrar.registered);

  // And it actually runs (delegating to Sort).
  auto data = GenerateFloats(2048, Distribution::kUniform, 3);
  simt::Device dev;
  auto r = dummy_registrar.registered->TopKHost(dev, data.data(),
                                                data.size(), 16);
  ASSERT_TRUE(r.ok()) << r.status();
  std::vector<float> oracle = data;
  std::sort(oracle.begin(), oracle.end(), std::greater<float>());
  oracle.resize(16);
  EXPECT_EQ(r->items, oracle);
}

TEST(OperatorRegistryTest, FallbackChainsFollowCaps) {
  std::vector<std::string> chain;
  for (const auto* op : topk::CpuFallbackChain()) chain.push_back(op->name());
  EXPECT_EQ(chain, (std::vector<std::string>{"cpu:HandPq", "cpu:StlPq",
                                             "cpu:Bitonic"}));
  const auto* streaming = topk::StreamingFallback();
  ASSERT_NE(streaming, nullptr);
  EXPECT_EQ(streaming->name(), "ChunkedTopK");
  EXPECT_TRUE(streaming->caps().streams_host_input);
}

TEST(OperatorRegistryTest, CostHooksGateInfeasibleConfigurations) {
  const auto spec = simt::DeviceSpec::TitanXMaxwell();
  const cost::Workload small_k{1 << 24, 32, 4, 4, Distribution::kUniform};
  const cost::Workload huge_k{1 << 24, 512, 4, 4, Distribution::kUniform};
  auto per_thread = topk::FindOperator("PerThreadTopK").value();
  EXPECT_GT(per_thread->CostMs(spec, small_k), 0.0);
  EXPECT_LT(per_thread->CostMs(spec, huge_k), 0.0) << "k=512 must not fit";
  // CPU operators have no device cost model: never planner-rankable.
  auto cpu_op = topk::FindOperator("cpu:StlPq").value();
  EXPECT_LT(cpu_op->CostMs(spec, small_k), 0.0);
}

}  // namespace
}  // namespace mptopk
