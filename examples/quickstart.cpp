// Quickstart: compute a top-k on the simulated GPU with each algorithm.
//
//   $ ./quickstart
//
// Demonstrates the three levels of the public API:
//   1. one call on a registry operator (host data in, top-k out),
//   2. device-resident buffers + operators looked up by name,
//   3. inspecting the device's simulated time and memory-traffic metrics.
//
// Results carry only answers; simulated time is read off the device around
// a call with simt::DeviceTimeTracker.
#include <cstdio>

#include "common/distributions.h"
#include "topk/registry.h"

using namespace mptopk;

int main() {
  // 1M uniform floats; we want the 8 largest.
  const size_t n = 1 << 20;
  const size_t k = 8;
  auto data = GenerateFloats(n, Distribution::kUniform, /*seed=*/7);

  // --- Level 1: one call ----------------------------------------------------
  simt::Device device;  // simulated GTX Titan X (Maxwell)
  const topk::TopKOperator* bitonic = topk::FindOperator("BitonicTopK").value();
  const simt::DeviceTimeTracker clock(device);
  auto result = bitonic->TopKHost(device, data.data(), n, k);
  if (!result.ok()) {
    std::fprintf(stderr, "top-k failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("top-%zu of %zu floats (bitonic top-k):\n", k, n);
  for (size_t i = 0; i < result->items.size(); ++i) {
    std::printf("  #%zu  %.7f\n", i + 1, result->items[i]);
  }
  std::printf("simulated kernel time: %.4f ms in %d launches\n\n",
              clock.ElapsedMs(), clock.Launches());

  // --- Level 2: device-resident data, operators by name ---------------------
  auto buf = device.Alloc<float>(n);
  if (!buf.ok()) return 1;
  device.CopyToDevice(*buf, data.data(), n);
  for (const char* name :
       {"BitonicTopK", "HybridTopK", "RadixSelect", "Sort"}) {
    const simt::DeviceTimeTracker op_clock(device);
    auto r = topk::FindOperator(name).value()->TopKDevice(device, *buf, n, k);
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name,
                   r.status().ToString().c_str());
      continue;
    }
    std::printf("%-14s %.4f ms   (max = %.7f)\n", name, op_clock.ElapsedMs(),
                r->items.front());
  }

  // --- Level 3: what did the device actually do? -----------------------------
  std::printf("\ndevice totals: %s\n",
              device.total_metrics().ToString().c_str());
  std::printf("total simulated kernel time: %.4f ms, PCIe staging: %.4f ms\n",
              device.total_sim_ms(), device.pcie_ms());
  return 0;
}
