// Reproduces paper Figure 15: CPU heap-based top-k (STL PQ, Hand PQ) and
// the Appendix C CPU bitonic top-k against the GPU algorithms.
//
//   --dist=uniform    (Fig 15a: few heap updates; heaps are memory bound
//                      and competitive; CPU bitonic does extra compute)
//   --dist=increasing (Fig 15b: every element updates the heap; the heaps
//                      collapse, CPU bitonic holds thanks to
//                      data-obliviousness + SIMD, GPU wins by a wide margin)
//
// Note: CPU columns are real wall-clock on this host (thread count via
// --threads, default = hardware concurrency; the paper used 8 cores); GPU
// columns are simulated device ms. Compare shapes, not absolute ratios.
#include "bench/bench_util.h"
#include "common/timer.h"
#include "cputopk/cpu_topk.h"

namespace mptopk::bench {
namespace {

double RunCpu(cpu::CpuAlgorithm algo, const std::vector<float>& data,
              size_t k, int threads) {
  Timer timer;
  auto r = cpu::CpuTopK(data.data(), data.size(), k, algo, threads);
  if (!r.ok()) return kNaN;
  return timer.ElapsedMs();
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  flags.Define("dist", "uniform", "uniform | increasing");
  flags.Define("threads", "0", "CPU threads (0 = hardware concurrency)");
  flags.Define("gpu_ops", "BitonicTopK,RadixSelect",
               "comma-separated registry names (or aliases) of the GPU "
               "operators to compare against");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const int ts = static_cast<int>(flags.GetInt("trace_sample"));
  const int threads = static_cast<int>(flags.GetInt("threads"));
  auto dist_or = ParseDistribution(flags.GetString("dist"));
  if (!dist_or.ok()) {
    return FailWith(dist_or.status());
  }
  auto data = GenerateFloats(n, *dist_or, flags.GetInt("seed"));

  // GPU columns resolve through the registry -- the one string->operator
  // parser -- so unknown names fail with the registered-operator list.
  std::vector<const topk::TopKOperator*> gpu_ops;
  {
    std::string names = flags.GetString("gpu_ops");
    for (size_t pos = 0; pos < names.size();) {
      size_t comma = names.find(',', pos);
      if (comma == std::string::npos) comma = names.size();
      auto op = topk::FindOperator(names.substr(pos, comma - pos));
      if (!op.ok()) return FailWith(op.status());
      gpu_ops.push_back(op.value());
      pos = comma + 1;
    }
  }
  // The CPU wall-clock columns bench cputopk directly (its `threads`
  // parameter is not part of the operator interface), but the algorithms
  // must stay registered so the registry sweep covers them too.
  for (const char* alias : {"cpu_stlpq", "cpu_handpq", "cpu_bitonic"}) {
    if (auto op = topk::FindOperator(alias); !op.ok()) {
      return FailWith(op.status());
    }
  }

  std::printf("# Figure 15%s: CPU (wall ms) vs GPU (simulated ms), "
              "n=2^%lld floats, %s\n",
              *dist_or == Distribution::kUniform ? "a" : "b",
              static_cast<long long>(flags.GetInt("n_log2")),
              DistributionName(*dist_or));
  std::vector<std::string> header{"k", "STL PQ (CPU)", "Hand PQ (CPU)",
                                  "Bitonic (CPU)"};
  for (const auto* op : gpu_ops) header.push_back(op->name() + " (GPU)");
  TablePrinter table(header);
  for (size_t k : PowersOfTwo(1, 256)) {
    std::vector<std::string> row{
        std::to_string(k),
        TablePrinter::Cell(RunCpu(cpu::CpuAlgorithm::kStlPq, data, k,
                                  threads), 2),
        TablePrinter::Cell(RunCpu(cpu::CpuAlgorithm::kHandPq, data, k,
                                  threads), 2),
        TablePrinter::Cell(RunCpu(cpu::CpuAlgorithm::kBitonic, data, k,
                                  threads), 2)};
    for (const auto* op : gpu_ops) {
      row.push_back(MsCell(RunOp(*op, data, k, ts)));
    }
    table.AddRow(std::move(row));
  }
  PrintTable(table, flags.GetBool("csv"));
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
