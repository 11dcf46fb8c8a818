// Reproduces paper Figure 11 (a/b/c): all five algorithms with k varying
// from 1 to 1024, for float / uint32 / double keys.
//
//   Fig 11a: --dtype=f32   (2^29 floats U(0,1) in the paper)
//   Fig 11b: --dtype=u32   (uniform unsigned ints)
//   Fig 11c: --dtype=f64   (same byte volume, 64-bit keys)
//
// Expected shapes: Sort flat and slowest; Radix/Bucket Select flat in k;
// PerThread rising steeply from k=32 and failing (-) past its shared-memory
// limit; Bitonic fastest for k <= 256 with the crossover to RadixSelect
// above. RadixSelect is faster on u32 than f32 (maximal per-pass reduction).
#include "bench/bench_util.h"

namespace mptopk::bench {
namespace {

template <typename E>
void Run(const std::vector<E>& data, bool csv, int trace_sample) {
  const auto sweep = topk::GpuSweepOperators();
  std::vector<std::string> header{"k"};
  for (const auto* op : sweep) header.push_back(op->display_name());
  header.push_back("MemBandwidth");
  TablePrinter table(header);
  const double floor_ms = BandwidthFloorMs(data.size() * sizeof(E));
  for (size_t k : PowersOfTwo(1, 1024)) {
    std::vector<std::string> row{std::to_string(k)};
    for (const auto* op : sweep) {
      row.push_back(MsCell(RunOp(*op, data, k, trace_sample)));
    }
    row.push_back(MsCell(floor_ms));
    table.AddRow(std::move(row));
  }
  PrintTable(table, csv);
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  flags.Define("dtype", "f32", "key type: f32 | u32 | f64");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const bool csv = flags.GetBool("csv");
  const int ts = static_cast<int>(flags.GetInt("trace_sample"));
  const uint64_t seed = flags.GetInt("seed");
  const std::string dtype = flags.GetString("dtype");

  std::printf("# Figure 11%s: top-k vs k, n=2^%lld %s keys, uniform "
              "(simulated ms)\n",
              dtype == "f32" ? "a" : (dtype == "u32" ? "b" : "c"),
              static_cast<long long>(flags.GetInt("n_log2")), dtype.c_str());
  if (dtype == "f32") {
    Run(GenerateFloats(n, Distribution::kUniform, seed), csv, ts);
  } else if (dtype == "u32") {
    Run(GenerateU32(n, Distribution::kUniform, seed), csv, ts);
  } else if (dtype == "f64") {
    Run(GenerateDoubles(n, Distribution::kUniform, seed), csv, ts);
  } else {
    std::fprintf(stderr, "unknown --dtype %s\n", dtype.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
