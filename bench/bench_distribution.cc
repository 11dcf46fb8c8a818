// Reproduces paper Figure 12: algorithm robustness against input
// distribution.
//
//   Fig 12a: --dist=increasing   (sorted floats: PerThread worst case,
//                                 every element triggers a heap update)
//   Fig 12b: --dist=bucket_killer (adversarial for RadixSelect: each pass
//                                  eliminates one key, degrading to sort
//                                  cost; BucketSelect ~2x slower)
//
// Sort and Bitonic are data-oblivious: their rows must match the uniform
// baseline exactly.
#include "bench/bench_util.h"

namespace mptopk::bench {
namespace {

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  flags.Define("dist", "increasing",
               "distribution: uniform | increasing | decreasing | "
               "bucket_killer");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const int ts = static_cast<int>(flags.GetInt("trace_sample"));
  auto dist_or = ParseDistribution(flags.GetString("dist"));
  if (!dist_or.ok()) {
    return FailWith(dist_or.status());
  }
  const Distribution dist = *dist_or;

  std::printf("# Figure 12 (%s): top-k vs k under the '%s' distribution, "
              "n=2^%lld floats (simulated ms); uniform baseline in "
              "parentheses-style second row block\n",
              dist == Distribution::kIncreasing ? "a" : "b",
              DistributionName(dist),
              static_cast<long long>(flags.GetInt("n_log2")));

  auto run = [&](Distribution d, const char* label) {
    auto data = GenerateFloats(n, d, flags.GetInt("seed"));
    const auto sweep = topk::GpuSweepOperators();
    std::vector<std::string> header{"k"};
    for (const auto* op : sweep) header.push_back(op->display_name());
    TablePrinter table(header);
    for (size_t k : PowersOfTwo(1, 1024)) {
      std::vector<std::string> row{std::to_string(k)};
      for (const auto* op : sweep) {
        row.push_back(MsCell(RunOp(*op, data, k, ts)));
      }
      table.AddRow(std::move(row));
    }
    std::printf("## %s\n", label);
    PrintTable(table, flags.GetBool("csv"));
  };
  run(dist, DistributionName(dist));
  std::printf("\n");
  run(Distribution::kUniform, "uniform (baseline)");
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
