// Reproduces paper Figure 13: top-64 across data sizes (paper: 2^21..2^29
// floats; scaled default 2^16..2^22, override with --max_log2 / --min_log2).
//
// Expected shapes: Bitonic and Sort linear in n; Radix/Bucket Select
// flattening at small n where the constant prefix-sum / pass overheads
// dominate; PerThread's bulge where per-thread streams are short.
#include "bench/bench_util.h"

namespace mptopk::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  flags.Define("min_log2", "16", "smallest input size (log2)");
  flags.Define("max_log2", "22", "largest input size (log2)");
  flags.Define("k", "64", "result size (paper fixes k=64)");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const int ts = static_cast<int>(flags.GetInt("trace_sample"));
  const size_t k = flags.GetInt("k");

  std::printf("# Figure 13: top-%zu vs data size, uniform floats "
              "(simulated ms)\n", k);
  const auto sweep = topk::GpuSweepOperators();
  std::vector<std::string> header{"log2(n)"};
  for (const auto* op : sweep) header.push_back(op->display_name());
  TablePrinter table(header);
  for (int64_t lg = flags.GetInt("min_log2"); lg <= flags.GetInt("max_log2");
       ++lg) {
    const size_t n = size_t{1} << lg;
    auto data = GenerateFloats(n, Distribution::kUniform, flags.GetInt("seed"));
    std::vector<std::string> row{std::to_string(lg)};
    for (const auto* op : sweep) {
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
