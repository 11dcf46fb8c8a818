// Reproduces paper Figure 18 (Appendix A): per-thread top-k using register
// buffers vs shared-memory heaps, across distributions.
//
// Expected: the register variant matches or beats shared memory for small k
// (buffer fits the register budget), then collapses once entries spill to
// local memory (sharp slope k=32 -> 64); the gap widens on the increasing
// distribution where every element updates the buffer, and vanishes on
// decreasing where nothing does after warm-up.
#include "bench/bench_util.h"
#include "gputopk/perthread_topk.h"

namespace mptopk::bench {
namespace {

double RunVariant(const std::vector<float>& data, size_t k, bool registers,
                  int ts, uint64_t* local_bytes) {
  simt::Device dev;
  dev.set_trace_sample_target(ts);
  gpu::PerThreadOptions o;
  o.use_registers = registers;
  const simt::DeviceTimeTracker clock(dev);
  auto r = gpu::PerThreadTopK(dev, data.data(), data.size(), k, o);
  if (!r.ok()) return kNaN;
  if (local_bytes != nullptr) *local_bytes = dev.total_metrics().local_bytes;
  return clock.ElapsedMs();
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const int ts = static_cast<int>(flags.GetInt("trace_sample"));

  std::printf("# Figure 18: per-thread top-k, registers vs shared-memory "
              "heaps, n=2^%lld floats (simulated ms)\n",
              static_cast<long long>(flags.GetInt("n_log2")));
  for (auto dist : {Distribution::kUniform, Distribution::kIncreasing,
                    Distribution::kDecreasing}) {
    auto data = GenerateFloats(n, dist, flags.GetInt("seed"));
    std::printf("## %s\n", DistributionName(dist));
    TablePrinter t({"k", "registers", "shared memory", "spill MB"});
    for (size_t k : PowersOfTwo(4, 256)) {
      uint64_t local = 0;
      double reg_ms = RunVariant(data, k, /*registers=*/true, ts, &local);
      double shm_ms = RunVariant(data, k, /*registers=*/false, ts, nullptr);
      t.AddRow({std::to_string(k), MsCell(reg_ms),
                MsCell(shm_ms),
                TablePrinter::Cell(local / 1e6, 1)});
    }
    PrintTable(t, flags.GetBool("csv"));
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
