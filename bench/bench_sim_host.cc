// Host throughput of the SIMT simulator itself (not a paper figure): how
// fast the multi-worker block launcher (simt/workers.h) chews through
// simulated blocks, by algorithm x worker count x tracing mode. Simulated
// milliseconds are worker-count-invariant by construction (see
// tests/parallel_launch_test.cc); this bench measures the host wall-clock
// those numbers cost. Speedup saturates at the machine's physical core
// count — host_cores in the output records what this run had available.
//
// Regenerate the checked-in ledger (n = 2^18) with one command:
//   bench_sim_host --n_log2=18 --json_out=BENCH_sim_host.json
//       > results/host_throughput.txt
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"

namespace mptopk::bench {
namespace {

struct Sample {
  std::string algo;
  int workers;
  bool tracing;
  double wall_ms;      // host wall-clock per TopK call (best of reps)
  double sim_ms;       // simulated kernel ms (worker-invariant)
  double blocks_per_s;
  double melem_per_s;
};

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  flags.Define("k", "64", "top-k size");
  flags.Define("reps", "3", "repetitions per cell (best wall-clock wins)");
  flags.Define("json_out", "",
               "also write machine-readable results to this JSON file");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const size_t k = static_cast<size_t>(flags.GetInt("k"));
  const int reps = static_cast<int>(flags.GetInt("reps"));
  const bool csv = flags.GetBool("csv");
  const unsigned host_cores = std::thread::hardware_concurrency();

  const auto data =
      GenerateFloats(n, Distribution::kUniform, flags.GetInt("seed"));

  const auto sweep = topk::GpuSweepOperators();
  constexpr int kWorkers[] = {1, 2, 4, 8};

  std::printf("# SIMT simulator host throughput: n=2^%lld f32, k=%zu, "
              "host_cores=%u\n",
              static_cast<long long>(flags.GetInt("n_log2")), k, host_cores);
  std::printf("# wall ms = best of %d reps (std::chrono, host); sim ms is "
              "identical for every worker count.\n",
              reps);

  std::vector<Sample> samples;
  TablePrinter table({"algo", "tracing", "workers", "wall_ms", "sim_ms",
                      "Mblocks/s", "Melem/s", "speedup"});
  for (const auto* op : sweep) {
    for (bool tracing : {true, false}) {
      double base_wall = 0.0;
      for (int w : kWorkers) {
        double best_ms = -1.0;
        double sim_ms = 0.0;
        uint64_t blocks = 0;
        for (int rep = 0; rep < reps; ++rep) {
          simt::Device dev;
          dev.set_host_workers(w);
          // Tracing on = exact (every block traced); off = the 1-block
          // minimum (block 0 is always traced for calibration).
          dev.set_trace_sample_target(tracing ? 0 : 1);
          const simt::DeviceTimeTracker clock(dev);
          const auto t0 = std::chrono::steady_clock::now();
          auto r = op->TopKHost(dev, data.data(), n, k);
          const auto t1 = std::chrono::steady_clock::now();
          if (!r.ok()) { best_ms = -1.0; break; }
          const double ms =
              std::chrono::duration<double, std::milli>(t1 - t0).count();
          if (best_ms < 0.0 || ms < best_ms) best_ms = ms;
          sim_ms = clock.ElapsedMs();
          blocks = 0;
          for (const auto& ks : dev.kernel_log()) {
            blocks += ks.metrics.blocks_launched;
          }
        }
        if (best_ms < 0.0) continue;  // infeasible configuration
        if (w == 1) base_wall = best_ms;
        const double blocks_per_s =
            static_cast<double>(blocks) / (best_ms * 1e-3);
        const double melem_per_s =
            static_cast<double>(n) / (best_ms * 1e-3) / 1e6;
        samples.push_back({op->name(), w, tracing, best_ms,
                           sim_ms, blocks_per_s, melem_per_s});
        table.AddRow({op->name(), tracing ? "full" : "min",
                      std::to_string(w), MsCell(best_ms), MsCell(sim_ms),
                      TablePrinter::Cell(blocks_per_s / 1e6, 3),
                      TablePrinter::Cell(melem_per_s, 1),
                      TablePrinter::Cell(base_wall / best_ms, 2)});
      }
    }
  }
  PrintTable(table, csv);

  if (const std::string path = flags.GetString("json_out"); !path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"sim_host\",\n  \"n\": %zu,\n"
                 "  \"k\": %zu,\n  \"host_cores\": %u,\n  \"reps\": %d,\n"
                 "  \"samples\": [\n",
                 n, k, host_cores, reps);
    for (size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      std::fprintf(f,
                   "    {\"algo\": \"%s\", \"tracing\": %s, \"workers\": %d, "
                   "\"wall_ms\": %.3f, \"sim_ms\": %.3f, "
                   "\"blocks_per_s\": %.0f, \"melem_per_s\": %.2f}%s\n",
                   s.algo.c_str(), s.tracing ? "true" : "false", s.workers,
                   s.wall_ms,
                   s.sim_ms, s.blocks_per_s, s.melem_per_s,
                   i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
