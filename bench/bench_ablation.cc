// Reproduces the paper's Section 4.3 optimization study:
//
//   --sweep=opts (default): the cumulative optimization ladder for top-32
//     (paper: 521 -> 122 -> 48.2 -> 33.7 -> 22.3 -> 16 -> 15.4 ms at 2^29).
//     Each row enables one more optimization; times must fall monotonically.
//   --sweep=B: Figure 8, varying elements-per-thread B in {8,16,32,64}
//     (paper: 16 optimal; 32 no gain; 64 hurts via occupancy).
#include "bench/bench_util.h"
#include "gputopk/bitonic_topk.h"

namespace mptopk::bench {
namespace {

double RunBitonic(const std::vector<float>& data, size_t k,
                  const gpu::BitonicOptions& opts, int ts,
                  simt::KernelMetrics* metrics_out) {
  simt::Device dev;
  dev.set_trace_sample_target(ts);
  const simt::DeviceTimeTracker clock(dev);
  auto r = gpu::BitonicTopK(dev, data.data(), data.size(), k, opts);
  if (!r.ok()) return kNaN;
  if (metrics_out != nullptr) *metrics_out = dev.total_metrics();
  return clock.ElapsedMs();
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  flags.Define("sweep", "opts", "opts | B");
  flags.Define("k", "32", "result size (paper ablates top-32)");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const size_t k = flags.GetInt("k");
  const int ts = static_cast<int>(flags.GetInt("trace_sample"));
  auto data = GenerateFloats(n, Distribution::kUniform, flags.GetInt("seed"));

  if (flags.GetString("sweep") == "B") {
    std::printf("# Figure 8: elements per thread (B), top-%zu of 2^%lld "
                "floats (simulated ms)\n", k,
                static_cast<long long>(flags.GetInt("n_log2")));
    TablePrinter t({"B", "time ms", "bank-conflict cycles", "occupancy note"});
    for (int b : {2, 4, 8, 16, 32, 64}) {
      gpu::BitonicOptions o;
      o.elems_per_thread = b;
      simt::KernelMetrics m;
      double ms = RunBitonic(data, k, o, ts, &m);
      t.AddRow({std::to_string(b), MsCell(ms),
                std::to_string(m.bank_conflict_cycles),
                b >= 64 ? "block shrinks to fit shared memory" : ""});
    }
    PrintTable(t, flags.GetBool("csv"));
    return 0;
  }

  std::printf("# Section 4.3 ladder: cumulative optimizations, top-%zu of "
              "2^%lld floats (simulated ms; paper at 2^29: 521 / 122 / 48.2 "
              "/ 33.7 / 22.3 / 16 / 15.4)\n", k,
              static_cast<long long>(flags.GetInt("n_log2")));
  struct Level {
    const char* name;
    gpu::BitonicOptions opts;
  };
  std::vector<Level> levels;
  gpu::BitonicOptions o = gpu::BitonicOptions::Naive();
  levels.push_back({"baseline (global-memory steps)", o});
  o.use_shared_memory = true;
  levels.push_back({"+ shared-memory staging", o});
  o.fuse_kernels = true;
  levels.push_back({"+ fused SortReducer/BitonicReducer", o});
  o.combine_steps = true;
  levels.push_back({"+ combined steps (registers)", o});
  o.pad_shared = true;
  levels.push_back({"+ padding (B: 8 -> 16)", o});
  o.chunk_permute = true;
  levels.push_back({"+ chunk permutation", o});
  o.reassign_partitions = true;
  levels.push_back({"+ partition reassignment", o});

  TablePrinter t({"configuration", "time ms", "global MB",
                  "shared cycles", "conflict cycles", "launches"});
  for (const Level& lvl : levels) {
    simt::Device dev;
    dev.set_trace_sample_target(ts);
    const simt::DeviceTimeTracker clock(dev);
    auto r = gpu::BitonicTopK(dev, data.data(), n, k, lvl.opts);
    if (!r.ok()) {
      std::fprintf(stderr, "%s: %s\n", lvl.name,
                   r.status().ToString().c_str());
      return 1;
    }
    const auto& m = dev.total_metrics();
    t.AddRow({lvl.name, MsCell(clock.ElapsedMs()),
              TablePrinter::Cell(m.global_bytes / 1e6, 1),
              std::to_string(m.shared_cycles),
              std::to_string(m.bank_conflict_cycles),
              std::to_string(clock.Launches())});
  }
  PrintTable(t, flags.GetBool("csv"));
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
