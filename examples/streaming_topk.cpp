// Streaming top-k over data larger than (simulated) GPU memory: the input
// is processed in device-sized chunks, keeping only each chunk's top-k as
// candidates (paper Section 4.3, "Data larger than GPU memory").
//
//   $ ./streaming_topk [--n_log2=22] [--chunks=8]
#include <algorithm>
#include <cstdio>

#include "common/distributions.h"
#include "common/flags.h"
#include "gputopk/chunked.h"

using namespace mptopk;

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("n_log2", "22", "log2 of the total element count");
  flags.Define("chunks", "8", "number of device-sized chunks to split into");
  flags.Define("k", "64", "result size");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    flags.PrintHelp(argv[0]);
    return 0;
  }
  const size_t n = size_t{1} << flags.GetInt("n_log2");
  const size_t k = flags.GetInt("k");
  const size_t chunk = n / std::max<int64_t>(1, flags.GetInt("chunks"));

  std::printf("generating %zu floats...\n", n);
  auto data = GenerateFloats(n, Distribution::kUniform, 11);

  simt::Device dev;
  dev.set_trace_sample_target(16);
  const simt::DeviceTimeTracker clock(dev);
  auto r = gpu::ChunkedTopK(dev, data.data(), n, k, chunk);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
    return 1;
  }
  std::printf("streamed %d chunks of %zu elements\n", r->chunks, chunk);
  std::printf("top-%zu head: %.7f %.7f %.7f ...\n", k, r->items[0],
              r->items[1], r->items[2]);
  // Transfer can overlap compute (max) or run serialized with it (sum).
  const double kernel_ms = clock.ElapsedMs();
  const double pcie_ms = clock.PcieMs();
  std::printf("kernel %.3f ms + PCIe %.3f ms  ->  %.3f ms overlapped, "
              "%.3f ms serialized\n",
              kernel_ms, pcie_ms, std::max(kernel_ms, pcie_ms),
              kernel_ms + pcie_ms);
  std::printf("(the reductive top-k keeps the device-side work at ~%.0f%% "
              "of transfer: chunked top-k is PCIe bound, as the paper "
              "argues)\n", 100.0 * kernel_ms / pcie_ms);
  return 0;
}
