// Failure-injection tests, built on the deterministic FaultPlan hooks
// (simt/fault_injection.h): injected faults must surface as Status errors —
// never crashes, leaks or silent corruption — and the resilient executor
// (planner/resilient.h) must convert every faulted run back into a correct
// top-k answer with bit-for-bit reproducible decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/distributions.h"
#include "engine/query.h"
#include "engine/tweets.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/chunked.h"
#include "planner/resilient.h"

namespace mptopk {
namespace {

using simt::FaultPlan;
using simt::FaultPlanConfig;

std::vector<float> TopKReference(const std::vector<float>& data, size_t k) {
  std::vector<float> ref = data;
  std::sort(ref.begin(), ref.end(), std::greater<float>());
  ref.resize(std::min(ref.size(), k));
  return ref;
}

simt::DeviceSpec TinyMemorySpec(size_t bytes) {
  auto spec = simt::DeviceSpec::TitanXMaxwell();
  spec.global_mem_bytes = bytes;
  return spec;
}

std::shared_ptr<FaultPlan> Install(simt::Device& dev,
                                   const FaultPlanConfig& cfg) {
  auto plan = std::make_shared<FaultPlan>(cfg);
  dev.set_fault_plan(plan);
  return plan;
}

// --- FaultPlan unit behaviour ----------------------------------------------

TEST(FaultPlanTest, NthAllocationFailsOnce) {
  FaultPlanConfig cfg;
  cfg.fail_alloc_index = 2;
  FaultPlan plan(cfg);
  EXPECT_TRUE(plan.OnAlloc(100).ok());
  Status st = plan.OnAlloc(100);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(plan.OnAlloc(100).ok());  // one-shot: later allocs succeed
  EXPECT_EQ(plan.stats().allocs_seen, 3);
  EXPECT_EQ(plan.stats().allocs_failed, 1);
}

TEST(FaultPlanTest, AllocAboveThresholdFailsPersistently) {
  FaultPlanConfig cfg;
  cfg.fail_alloc_above_bytes = 4096;
  FaultPlan plan(cfg);
  EXPECT_TRUE(plan.OnAlloc(4096).ok());
  EXPECT_EQ(plan.OnAlloc(4097).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(plan.OnAlloc(1 << 20).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(plan.stats().allocs_failed, 2);
}

TEST(FaultPlanTest, NthTransferIsUnavailableAndRetryable) {
  FaultPlanConfig cfg;
  cfg.fail_transfer_index = 1;
  FaultPlan plan(cfg);
  Status st = plan.OnTransfer(64, /*readback=*/false);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(st.IsRetryable());
  // The retry advances the counter past the one-shot trigger.
  EXPECT_TRUE(plan.OnTransfer(64, /*readback=*/false).ok());
  EXPECT_EQ(plan.stats().transfers_seen, 2);
  EXPECT_EQ(plan.stats().transfers_failed, 1);
}

TEST(FaultPlanTest, NthLaunchAborts) {
  FaultPlanConfig cfg;
  cfg.fail_launch_index = 3;
  FaultPlan plan(cfg);
  EXPECT_TRUE(plan.OnLaunch("a").ok());
  EXPECT_TRUE(plan.OnLaunch("b").ok());
  EXPECT_EQ(plan.OnLaunch("c").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(plan.OnLaunch("d").ok());
  EXPECT_EQ(plan.stats().launches_aborted, 1);
}

TEST(FaultPlanTest, ResetRearmsOneShotTriggers) {
  FaultPlanConfig cfg;
  cfg.fail_alloc_index = 1;
  FaultPlan plan(cfg);
  EXPECT_FALSE(plan.OnAlloc(8).ok());
  EXPECT_TRUE(plan.OnAlloc(8).ok());
  plan.Reset();
  EXPECT_EQ(plan.stats().allocs_seen, 0);
  EXPECT_FALSE(plan.OnAlloc(8).ok());  // fires again
}

TEST(FaultPlanTest, ProbabilisticFaultsAreSeedDeterministic) {
  FaultPlanConfig cfg;
  cfg.seed = 7;
  cfg.transient_transfer_prob = 0.5;
  FaultPlan a(cfg), b(cfg);
  cfg.seed = 8;
  FaultPlan c(cfg);
  std::vector<bool> sa, sb, sc;
  for (int i = 0; i < 100; ++i) {
    sa.push_back(a.OnTransfer(64, false).ok());
    sb.push_back(b.OnTransfer(64, false).ok());
    sc.push_back(c.OnTransfer(64, false).ok());
  }
  EXPECT_EQ(sa, sb);  // same seed, same fault sequence
  EXPECT_NE(sa, sc);  // different seed decorrelates
}

TEST(FaultPlanTest, CorruptReadbackFlipsExactlyOneBit) {
  simt::Device dev;
  const size_t n = 64;
  std::vector<uint32_t> zeros(n, 0);
  auto buf = dev.Alloc<uint32_t>(n).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, zeros.data(), n).ok());
  FaultPlanConfig cfg;
  cfg.seed = 3;
  cfg.corrupt_readback_index = 1;
  auto plan = Install(dev, cfg);
  std::vector<uint32_t> host(n, 0);
  ASSERT_TRUE(dev.CopyToHost(host.data(), buf, n).ok());
  int set_bits = 0;
  for (uint32_t w : host) set_bits += __builtin_popcount(w);
  EXPECT_EQ(set_bits, 1);
  EXPECT_EQ(plan->stats().corruptions, 1);
  // Subsequent readbacks are clean (one-shot).
  ASSERT_TRUE(dev.CopyToHost(host.data(), buf, n).ok());
  set_bits = 0;
  for (uint32_t w : host) set_bits += __builtin_popcount(w);
  EXPECT_EQ(set_bits, 0);
}

// --- Device OOM propagation (pre-FaultPlan behaviour must still hold) -------

TEST(FailureInjectionTest, BitonicPropagatesDeviceOom) {
  const size_t n = 1 << 16;
  simt::Device dev(TinyMemorySpec(n * sizeof(float) + 1024));
  auto data = GenerateFloats(n, Distribution::kUniform);
  auto buf = dev.Alloc<float>(n);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(dev.CopyToDevice(*buf, data.data(), n).ok());
  auto r = gpu::BitonicTopKDevice(dev, *buf, n, 32);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FailureInjectionTest, AllocationReleasedAfterFailure) {
  const size_t n = 1 << 16;
  simt::Device dev(TinyMemorySpec(n * sizeof(float) + 2048));
  auto data = GenerateFloats(n, Distribution::kUniform);
  size_t before = dev.allocated_bytes();
  {
    auto buf = dev.Alloc<float>(n);
    ASSERT_TRUE(buf.ok());
    ASSERT_TRUE(dev.CopyToDevice(*buf, data.data(), n).ok());
    auto r = gpu::BitonicTopKDevice(dev, *buf, n, 32);
    ASSERT_FALSE(r.ok());  // reduction buffers do not fit
  }
  // RAII must return every byte, so the device is reusable.
  EXPECT_EQ(dev.allocated_bytes(), before);
  auto r2 = topk::FindOperator("BitonicTopK").value()->TopKHost(
      dev, data.data(), 256, 8);
  EXPECT_TRUE(r2.ok()) << r2.status();
}

// --- Scripted fault campaign ------------------------------------------------

// For every algorithm, fail each of its internal allocations in turn. Every
// run must either succeed with a correct answer or return a non-OK Status,
// and the device must get every byte back (no leak across the failure path).
TEST(FaultCampaignTest, AllocSweepEveryAlgorithm) {
  const size_t n = 1 << 14;
  const size_t k = 32;
  auto data = GenerateFloats(n, Distribution::kUniform);
  const auto ref = TopKReference(data, k);
  for (const topk::TopKOperator* op : topk::GpuSweepOperators(true)) {
    // Calibrate: count the algorithm's allocations under a no-fault plan.
    int allocs = 0;
    {
      simt::Device dev;
      auto buf = dev.Alloc<float>(n).value();
      ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
      auto plan = Install(dev, FaultPlanConfig{});
      auto r = op->TopKDevice(dev, buf, n, k);
      ASSERT_TRUE(r.ok()) << op->name() << ": " << r.status();
      allocs = plan->stats().allocs_seen;
    }
    ASSERT_GT(allocs, 0) << op->name();
    for (int i = 1; i <= allocs; ++i) {
      simt::Device dev;
      auto buf = dev.Alloc<float>(n).value();
      ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
      FaultPlanConfig cfg;
      cfg.fail_alloc_index = i;
      Install(dev, cfg);
      const size_t before = dev.allocated_bytes();
      auto r = op->TopKDevice(dev, buf, n, k);
      if (r.ok()) {
        ASSERT_EQ(r->items.size(), k) << op->name() << " alloc " << i;
        EXPECT_EQ(r->items.front(), ref.front());
      } else {
        EXPECT_FALSE(r.status().message().empty());
      }
      EXPECT_EQ(dev.allocated_bytes(), before)
          << op->name() << " leaked after failing alloc " << i;
    }
  }
}

// The resilient executor must convert each of those faulted runs into the
// correct answer (fallback to another algorithm, degrade, or CPU).
TEST(FaultCampaignTest, ResilientConvertsEveryAllocFault) {
  const size_t n = 1 << 14;
  const size_t k = 32;
  auto data = GenerateFloats(n, Distribution::kUniform);
  const auto ref = TopKReference(data, k);
  for (int i = 1; i <= 12; ++i) {
    simt::Device dev;
    FaultPlanConfig cfg;
    cfg.fail_alloc_index = i;
    Install(dev, cfg);
    auto r = planner::ResilientTopK(dev, data.data(), n, k);
    ASSERT_TRUE(r.ok()) << "failing alloc " << i << ": " << r.status();
    ASSERT_EQ(r->items.size(), k);
    for (size_t j = 0; j < k; ++j) {
      EXPECT_EQ(r->items[j], ref[j]) << "failing alloc " << i;
    }
    EXPECT_EQ(dev.allocated_bytes(), 0u) << "failing alloc " << i;
  }
}

// --- Resilient executor behaviour -------------------------------------------

TEST(ResilientTopKTest, NoFaultNoOverheadDecisions) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->report.retries, 0);
  EXPECT_EQ(r->report.fallbacks, 0);
  EXPECT_EQ(r->report.faults_seen, 0);
  EXPECT_FALSE(r->report.used_cpu);
  EXPECT_FALSE(r->report.degraded_to_chunked);
  EXPECT_EQ(r->report.added_latency_ms, 0.0);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, TransientTransferFaultIsRetried) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  FaultPlanConfig cfg;
  cfg.fail_transfer_index = 2;  // #1 stages the input; #2 is in-algorithm
  Install(dev, cfg);
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->report.retries, 1);
  EXPECT_EQ(r->report.faults_seen, 1);
  EXPECT_GT(r->report.backoff_ms, 0.0);
  EXPECT_GT(r->report.added_latency_ms, 0.0);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, LaunchAbortIsRetried) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  FaultPlanConfig cfg;
  cfg.fail_launch_index = 1;
  Install(dev, cfg);
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_GE(r->report.retries, 1);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, PersistentExhaustionFallsBackToCpu) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  FaultPlanConfig cfg;
  cfg.fail_alloc_above_bytes = 4096;  // no working buffer fits anywhere
  Install(dev, cfg);
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->report.used_cpu);
  EXPECT_EQ(r->report.final_algorithm, "cpu:HandPq");
  EXPECT_GE(r->report.fallbacks, 2);  // chunked, then CPU
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, OversizedInputDegradesToChunked) {
  const size_t n = 1 << 17;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev(TinyMemorySpec(n * sizeof(float)));  // no headroom
  dev.set_trace_sample_target(4);
  auto r = planner::ResilientTopK(dev, data.data(), n, 64);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->report.degraded_to_chunked);
  EXPECT_EQ(r->report.final_algorithm, "ChunkedTopK");
  EXPECT_FALSE(r->report.used_cpu);
  EXPECT_EQ(r->items, TopKReference(data, 64));
}

TEST(ResilientTopKTest, CorruptedResultReadbackIsCaughtAndRerun) {
  const size_t n = 1 << 14;
  const size_t k = 8;
  auto data = GenerateFloats(n, Distribution::kUniform);
  // Calibrate: how many readbacks does a clean resilient run perform? The
  // last one carries the result.
  int readbacks = 0;
  {
    simt::Device dev;
    auto buf = dev.Alloc<float>(n).value();
    ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
    auto plan = Install(dev, FaultPlanConfig{});
    auto r = planner::ResilientTopKDevice(dev, buf, n, k);
    ASSERT_TRUE(r.ok()) << r.status();
    readbacks = plan->stats().readbacks_seen;
  }
  ASSERT_GT(readbacks, 0);
  // Re-run, flipping one bit of the result readback.
  simt::Device dev;
  auto buf = dev.Alloc<float>(n).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
  FaultPlanConfig cfg;
  cfg.seed = 1;
  cfg.corrupt_readback_index = readbacks;
  auto plan = Install(dev, cfg);
  auto r = planner::ResilientTopKDevice(dev, buf, n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(plan->stats().corruptions, 1);
  EXPECT_EQ(r->report.corruption_reruns, 1);
  EXPECT_GT(r->report.added_latency_ms, 0.0);
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientTopKTest, SameSeedIsBitForBitDeterministic) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  // Each run returns its result and the simulated device ms (kernels + PCIe
  // + backoff) the call consumed on a fresh device.
  auto run = [&](double* device_ms) {
    simt::Device dev;
    FaultPlanConfig cfg;
    cfg.seed = 42;
    cfg.transient_transfer_prob = 0.25;
    cfg.fail_launch_index = 2;
    Install(dev, cfg);
    auto r = planner::ResilientTopK(dev, data.data(), n, k);
    EXPECT_TRUE(r.ok()) << r.status();
    *device_ms = dev.total_sim_ms() + dev.pcie_ms();
    return std::move(r).value();
  };
  double a_ms = 0, b_ms = 0;
  auto a = run(&a_ms);
  auto b = run(&b_ms);
  EXPECT_EQ(a.items, b.items);
  ASSERT_EQ(a.report.attempts.size(), b.report.attempts.size());
  for (size_t i = 0; i < a.report.attempts.size(); ++i) {
    EXPECT_EQ(a.report.attempts[i].stage, b.report.attempts[i].stage);
    EXPECT_EQ(a.report.attempts[i].code, b.report.attempts[i].code);
    EXPECT_EQ(a.report.attempts[i].backoff_ms, b.report.attempts[i].backoff_ms);
  }
  EXPECT_EQ(a.report.retries, b.report.retries);
  EXPECT_EQ(a.report.fallbacks, b.report.fallbacks);
  EXPECT_EQ(a.report.final_algorithm, b.report.final_algorithm);
  // Bit-for-bit: simulated latency, not approximately equal.
  EXPECT_EQ(a.report.backoff_ms, b.report.backoff_ms);
  EXPECT_EQ(a_ms, b_ms);
  EXPECT_EQ(a.report.added_latency_ms, b.report.added_latency_ms);
  EXPECT_EQ(a.report.Summary(), b.report.Summary());
}

// Pins every ExecutionReport field the retry loop writes, so the loop's
// accounting (attempt order, codes, backoff, counters, added latency) cannot
// drift silently.
struct ExpectedAttempt {
  std::string stage;
  StatusCode code;
  double backoff_ms;
};

void ExpectReport(const planner::ExecutionReport& rep,
                  const std::vector<ExpectedAttempt>& attempts, int retries,
                  int fallbacks, int corruption_reruns, double backoff_ms,
                  double added_latency_ms, const std::string& final_algorithm) {
  ASSERT_EQ(rep.attempts.size(), attempts.size()) << rep.Summary();
  for (size_t i = 0; i < attempts.size(); ++i) {
    EXPECT_EQ(rep.attempts[i].stage, attempts[i].stage) << "attempt " << i;
    EXPECT_EQ(rep.attempts[i].code, attempts[i].code) << "attempt " << i;
    EXPECT_EQ(rep.attempts[i].backoff_ms, attempts[i].backoff_ms)
        << "attempt " << i;
  }
  EXPECT_EQ(rep.retries, retries);
  EXPECT_EQ(rep.fallbacks, fallbacks);
  EXPECT_EQ(rep.corruption_reruns, corruption_reruns);
  EXPECT_EQ(rep.backoff_ms, backoff_ms);
  EXPECT_EQ(rep.added_latency_ms, added_latency_ms);
  EXPECT_EQ(rep.final_algorithm, final_algorithm);
}

TEST(ResilientReportPinTest, StageInputCopyFaultIsRetried) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  FaultPlanConfig cfg;
  cfg.fail_transfer_index = 1;  // the stage-input copy
  Install(dev, cfg);
  auto r = planner::ResilientTopK(dev, data.data(), n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectReport(r->report,
               {{"stage-input", StatusCode::kUnavailable, 0.25},
                {"stage-input", StatusCode::kOk, 0.0},
                {"BitonicTopK", StatusCode::kOk, 0.0}},
               /*retries=*/1, /*fallbacks=*/0, /*corruption_reruns=*/0,
               /*backoff_ms=*/0.25, /*added_latency_ms=*/0.25, "BitonicTopK");
  EXPECT_EQ(r->items, TopKReference(data, k));
}

// The GPU stages run in the planner's ranking for f32, n = 2^14, k = 16.
TEST(ResilientReportPinTest, CpuReadbackFaultIsRetried) {
  const size_t n = 1 << 14;
  const size_t k = 16;
  auto data = GenerateFloats(n, Distribution::kUniform);
  simt::Device dev;
  auto buf = dev.Alloc<float>(n).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
  FaultPlanConfig cfg;
  cfg.fail_alloc_above_bytes = 1;  // every GPU operator runs out
  cfg.fail_transfer_index = 1;        // the first transfer: the readback
  Install(dev, cfg);
  auto r = planner::ResilientTopKDevice(dev, buf, n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  const StatusCode oom = StatusCode::kResourceExhausted;
  ExpectReport(r->report,
               {{"BitonicTopK", oom, 0.0},
                {"Sort", oom, 0.0},
                {"RadixSelect", oom, 0.0},
                {"BucketSelect", oom, 0.0},
                {"PerThreadTopK", oom, 0.0},
                {"cpu-readback", StatusCode::kUnavailable, 0.25},
                {"cpu-readback", StatusCode::kOk, 0.0},
                {"cpu:HandPq", StatusCode::kOk, 0.0}},
               /*retries=*/1, /*fallbacks=*/5, /*corruption_reruns=*/0,
               /*backoff_ms=*/0.25, /*added_latency_ms=*/0.24999999999999997,
               "cpu:HandPq");
  EXPECT_EQ(r->items, TopKReference(data, k));
}

TEST(ResilientReportPinTest, CorruptReadbackIsRerunOnce) {
  const size_t n = 1 << 14;
  const size_t k = 8;
  auto data = GenerateFloats(n, Distribution::kUniform);
  // The last readback of a clean run carries the result.
  int readbacks = 0;
  {
    simt::Device dev;
    auto buf = dev.Alloc<float>(n).value();
    ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
    auto plan = Install(dev, FaultPlanConfig{});
    ASSERT_TRUE(planner::ResilientTopKDevice(dev, buf, n, k).ok());
    readbacks = plan->stats().readbacks_seen;
  }
  simt::Device dev;
  auto buf = dev.Alloc<float>(n).value();
  ASSERT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
  FaultPlanConfig cfg;
  cfg.seed = 1;
  cfg.corrupt_readback_index = readbacks;
  Install(dev, cfg);
  auto r = planner::ResilientTopKDevice(dev, buf, n, k);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectReport(r->report,
               {{"BitonicTopK", StatusCode::kInternal, 0.0},
                {"BitonicTopK", StatusCode::kOk, 0.0}},
               /*retries=*/0, /*fallbacks=*/0, /*corruption_reruns=*/1,
               /*backoff_ms=*/0.0, /*added_latency_ms=*/0.011699681839080461,
               "BitonicTopK");
  EXPECT_EQ(r->items, TopKReference(data, k));
}

// Flips one seed-chosen bit of the result readback, for 64 seeds: the result
// check must catch every flip that changes the answer (key or payload), so
// each run returns exactly the reference items or a clean error.
template <typename E>
void SweepResultCorruption(const std::vector<E>& data, size_t k) {
  const size_t n = data.size();
  std::vector<E> ref = data;
  std::sort(ref.begin(), ref.end(), [](const E& a, const E& b) {
    return ElementTraits<E>::Less(b, a);
  });
  ref.resize(k);
  auto run = [&](const FaultPlanConfig& cfg, simt::FaultStats* stats) {
    simt::Device dev;
    auto buf = dev.Alloc<E>(n).value();
    EXPECT_TRUE(dev.CopyToDevice(buf, data.data(), n).ok());
    auto plan = Install(dev, cfg);
    auto r = planner::ResilientTopKDevice(dev, buf, n, k);
    *stats = plan->stats();
    return r;
  };
  // The last readback of a clean run carries the result.
  simt::FaultStats clean;
  ASSERT_TRUE(run(FaultPlanConfig{}, &clean).ok());
  std::vector<uint64_t> wrong;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    FaultPlanConfig cfg;
    cfg.seed = seed;
    cfg.corrupt_readback_index = clean.readbacks_seen;
    simt::FaultStats stats;
    auto r = run(cfg, &stats);
    EXPECT_EQ(stats.corruptions, 1) << "seed " << seed;
    if (r.ok() && r->items != ref) wrong.push_back(seed);
  }
  EXPECT_TRUE(wrong.empty()) << wrong.size() << " of 64 seeds returned a "
                             << "wrong answer, first seed " << wrong[0];
}

TEST(ResilientTopKTest, EveryResultCorruptionIsCaught) {
  const size_t n = 1 << 14;
  auto keys = GenerateFloats(n, Distribution::kUniform);
  SweepResultCorruption(keys, 8);
  SweepResultCorruption(keys, 64);
  std::vector<KV> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = KV{keys[i], static_cast<uint32_t>(i)};
  }
  SweepResultCorruption(rows, 32);
}

// --- Engine routing ----------------------------------------------------------

TEST(EngineResilienceTest, ResilientFlagMatchesDirectExecution) {
  simt::Device dev;
  auto table = engine::MakeTweetsTable(&dev, 1 << 14, 7).value();
  engine::Filter f{{"tweet_time", engine::CompareOp::kLt, 1 << 13}};
  engine::Ranking rank{{{"retweet_count", 1.0}, {"likes_count", 0.5}}};
  auto direct = engine::FilterTopKQuery(*table, f, rank, "id", 10,
                                        engine::TopKStrategy::kFilterBitonic);
  ASSERT_TRUE(direct.ok()) << direct.status();
  engine::ExecOptions exec;
  exec.resilient = true;
  auto res = engine::FilterTopKQuery(*table, f, rank, "id", 10,
                                     engine::TopKStrategy::kFilterBitonic,
                                     exec);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->rank_values, direct->rank_values);
  EXPECT_FALSE(res->resilience_summary.empty());

  auto gdirect = engine::GroupByCountTopKQuery(*table, "lang", 5,
                                               engine::GroupByStrategy::kSort);
  ASSERT_TRUE(gdirect.ok()) << gdirect.status();
  auto gres = engine::GroupByCountTopKQuery(
      *table, "lang", 5, engine::GroupByStrategy::kSort, exec);
  ASSERT_TRUE(gres.ok()) << gres.status();
  EXPECT_EQ(gres->counts, gdirect->counts);
  EXPECT_FALSE(gres->resilience_summary.empty());
}

// --- StatusOr hardening (release builds must abort, not read garbage) --------

#if GTEST_HAS_DEATH_TEST
TEST(StatusOrDeathTest, ValueOnErrorAbortsWithMessage) {
  StatusOr<int> s(Status::Internal("boom"));
  EXPECT_DEATH({ (void)s.value(); }, "boom");
}
#endif

}  // namespace
}  // namespace mptopk
