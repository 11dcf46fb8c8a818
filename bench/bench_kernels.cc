// Google-benchmark microbenchmarks of the library's host-side hot paths:
// simulator execution overhead per element, trace analysis, the bitonic
// window planner, and the CPU top-k kernels. These measure *host* wall time
// of the simulation itself (useful when sizing experiments), unlike the
// paper-figure benches which report simulated device time.
//
// Smoke mode: `bench_kernels --algo=<name|all>` skips the microbenchmarks
// and instead runs the named registry operator (or every registered one)
// on a small input, checking the result against a sort oracle. CI uses
// `--algo=all` as a cheap every-operator liveness gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/distributions.h"
#include "cputopk/cpu_topk.h"
#include "gputopk/bitonic_plan.h"
#include "gputopk/bitonic_topk.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

void BM_SimBitonicTopK(benchmark::State& state) {
  const size_t n = 1 << 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  for (auto _ : state) {
    simt::Device dev;
    dev.set_trace_sample_target(8);
    auto r = gpu::BitonicTopK(dev, data.data(), n, state.range(0));
    benchmark::DoNotOptimize(r->items);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimBitonicTopK)->Arg(32)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SimTracedVsUntraced(benchmark::State& state) {
  const size_t n = 1 << 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  for (auto _ : state) {
    simt::Device dev;
    dev.set_trace_sample_target(static_cast<int>(state.range(0)));
    auto r = gpu::BitonicTopK(dev, data.data(), n, 32);
    benchmark::DoNotOptimize(r->items);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimTracedVsUntraced)
    ->Arg(0)   // trace every block
    ->Arg(4)   // sample 4 blocks
    ->Unit(benchmark::kMillisecond);

void BM_WindowPlanner(benchmark::State& state) {
  auto steps = gpu::BitonicLocalSortSteps(static_cast<uint32_t>(
      state.range(0)));
  for (auto _ : state) {
    auto w = gpu::PlanBitonicWindows(steps, 4);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_WindowPlanner)->Arg(32)->Arg(1024);

void BM_CpuHandPq(benchmark::State& state) {
  const size_t n = 1 << 18;
  auto data = GenerateFloats(n, Distribution::kUniform);
  for (auto _ : state) {
    auto r = cpu::CpuTopK(data.data(), n, 64, cpu::CpuAlgorithm::kHandPq, 1);
    benchmark::DoNotOptimize(r->items.front());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CpuHandPq)->Unit(benchmark::kMillisecond);

void BM_CpuBitonic(benchmark::State& state) {
  const size_t n = 1 << 18;
  auto data = GenerateFloats(n, Distribution::kUniform);
  for (auto _ : state) {
    auto r = cpu::CpuTopK(data.data(), n, 64, cpu::CpuAlgorithm::kBitonic, 1);
    benchmark::DoNotOptimize(r->items.front());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CpuBitonic)->Unit(benchmark::kMillisecond);

// Runs `op` on a small float input and checks the top-k values against a
// sort oracle. Returns true on success; prints a diagnostic otherwise.
// Pow2-only operators are exercised at a power-of-two k; caps-infeasible
// configurations (e.g. max_k below the smoke k) shrink k to fit.
bool SmokeOperator(const topk::TopKOperator& op) {
  const size_t n = 1 << 14;
  size_t k = 64;
  if (op.caps().max_k > 0) k = std::min(k, op.caps().max_k);
  auto data = GenerateFloats(n, Distribution::kUniform, /*seed=*/7);
  simt::Device dev;
  auto r = op.TopKHost(dev, data.data(), n, k);
  if (!r.ok()) {
    std::fprintf(stderr, "FAIL %s: %s\n", op.name().c_str(),
                 r.status().ToString().c_str());
    return false;
  }
  std::vector<float> oracle = data;
  std::sort(oracle.begin(), oracle.end(), std::greater<float>());
  oracle.resize(k);
  if (r->items != oracle) {
    std::fprintf(stderr, "FAIL %s: top-%zu mismatch vs sort oracle\n",
                 op.name().c_str(), k);
    return false;
  }
  std::printf("ok   %-14s top-%-3zu of %zu floats  (%s)\n",
              op.name().c_str(), k, n,
              topk::BackendName(op.caps().backend));
  return true;
}

// --algo=all runs every registered operator; --algo=<name> resolves through
// the registry (aliases work; unknown names list the registered set).
int SmokeMain(const char* algo) {
  int failures = 0;
  if (std::strcmp(algo, "all") == 0) {
    for (const auto* op : mptopk::topk::Registry::Instance().All()) {
      if (!SmokeOperator(*op)) ++failures;
    }
  } else {
    auto op = topk::FindOperator(algo);
    if (!op.ok()) {
      std::fprintf(stderr, "%s\n", op.status().ToString().c_str());
      return 1;
    }
    if (!SmokeOperator(*op.value())) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace mptopk

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--algo=", 7) == 0) {
      return mptopk::SmokeMain(argv[i] + 7);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
