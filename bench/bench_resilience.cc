// Resilience overhead / recovery-latency study (docs/robustness.md):
//
//   * fault-free overhead of planner::ResilientTopK (planning + staging +
//     result verification) against the direct PlannedTopKDevice path, and
//   * recovery latency when one transient transfer fault is injected — the
//     wasted attempt plus the executor's simulated backoff.
//
// All numbers are simulated device milliseconds, so every column is
// deterministic under a fixed seed. Exits 1 when the resilient executor
// fails to answer any row, clean or faulted.
#include "bench/bench_util.h"
#include "planner/plan_topk.h"
#include "planner/resilient.h"
#include "simt/fault_injection.h"

namespace mptopk::bench {
namespace {

// Simulated device ms (kernels + PCIe + backoff) since `clock` started.
double DeviceMs(const simt::DeviceTimeTracker& clock) {
  return clock.ElapsedMs() + clock.PcieMs();
}

// Direct path: stage the input, plan once, run the chosen algorithm.
double RunDirect(const std::vector<float>& data, size_t k, int trace_sample) {
  simt::Device dev;
  dev.set_trace_sample_target(trace_sample);
  const simt::DeviceTimeTracker clock(dev);
  auto buf = dev.Alloc<float>(data.size());
  if (!buf.ok()) return kNaN;
  if (!dev.CopyToDevice(*buf, data.data(), data.size()).ok()) return kNaN;
  auto r = planner::PlannedTopKDevice(dev, *buf, data.size(), k);
  if (!r.ok()) return kNaN;
  return DeviceMs(clock);
}

// Resilient path, optionally under a fault plan. Returns total simulated ms
// and (via out-params) the fault-added latency and the report summary.
double RunResilient(const std::vector<float>& data, size_t k,
                    int trace_sample, const simt::FaultPlanConfig* faults,
                    double* added_ms, std::string* summary) {
  simt::Device dev;
  dev.set_trace_sample_target(trace_sample);
  if (faults != nullptr) {
    dev.set_fault_plan(std::make_shared<simt::FaultPlan>(*faults));
  }
  const simt::DeviceTimeTracker clock(dev);
  auto r = planner::ResilientTopK(dev, data.data(), data.size(), k);
  if (!r.ok()) return kNaN;
  *added_ms = r->report.added_latency_ms;
  *summary = r->report.Summary();
  return DeviceMs(clock);
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const bool csv = flags.GetBool("csv");
  const int ts = static_cast<int>(flags.GetInt("trace_sample"));
  const uint64_t seed = flags.GetInt("seed");
  auto data = GenerateFloats(n, Distribution::kUniform, seed);

  std::printf("# Resilient executor: fault-free overhead vs direct planned "
              "execution, and recovery\n"
              "# latency with one transient transfer fault "
              "(n=2^%lld f32 keys, simulated ms)\n",
              static_cast<long long>(flags.GetInt("n_log2")));
  TablePrinter table({"k", "Direct", "Resilient", "Overhead%", "Faulted",
                      "AddedLatency"});
  std::string last_summary;
  bool unanswered = false;
  for (size_t k : PowersOfTwo(16, 1024)) {
    const double direct = RunDirect(data, k, ts);
    double clean_added = 0, faulted_added = 0;
    std::string summary;
    const double resilient =
        RunResilient(data, k, ts, nullptr, &clean_added, &summary);
    // One transient fault on the first in-algorithm transfer (the input
    // staging copy is transfer #1).
    simt::FaultPlanConfig cfg;
    cfg.seed = seed;
    cfg.fail_transfer_index = 2;
    const double faulted =
        RunResilient(data, k, ts, &cfg, &faulted_added, &last_summary);
    unanswered = unanswered || std::isnan(resilient) || std::isnan(faulted);
    const double overhead = (resilient - direct) / direct * 100.0;
    table.AddRow({std::to_string(k), MsCell(direct),
                  MsCell(resilient),
                  TablePrinter::Cell(overhead, 2),
                  MsCell(faulted),
                  MsCell(faulted_added)});
  }
  PrintTable(table, csv);
  std::printf("# faulted-run report: %s\n", last_summary.c_str());
  if (unanswered) {
    std::fprintf(stderr, "resilient top-k returned an error for some k\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
