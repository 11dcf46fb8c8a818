// Hardware description of the simulated massively parallel device.
//
// The defaults describe the Nvidia GTX Titan X (Maxwell) used throughout the
// paper's evaluation: 24 SMs, 32-wide warps, 32 shared-memory banks, 96 KiB
// shared memory per SM (48 KiB per block), 251 GB/s global and 2.9 TB/s
// shared-memory bandwidth (the paper's measured figures, Section 7).
#ifndef MPTOPK_SIMT_DEVICE_SPEC_H_
#define MPTOPK_SIMT_DEVICE_SPEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace mptopk::simt {

struct DeviceSpec {
  std::string name = "Simulated GTX Titan X (Maxwell)";

  // --- Execution resources -------------------------------------------------
  int num_sms = 24;
  int warp_size = 32;
  int max_threads_per_block = 1024;
  int max_threads_per_sm = 2048;
  int max_blocks_per_sm = 32;
  /// 32-bit registers per SM; a kernel's regs/thread and block size bound the
  /// number of resident blocks.
  int register_file_per_sm = 64 * 1024;
  /// Registers a single thread can use before the compiler spills to local
  /// memory (Maxwell: 255; practical budget before occupancy loss is lower —
  /// the timing model uses this for the Appendix A register-top-k variant).
  int max_registers_per_thread = 255;

  // --- Memory system -------------------------------------------------------
  size_t global_mem_bytes = 12ull * 1024 * 1024 * 1024;
  size_t shared_mem_per_block = 48 * 1024;
  size_t shared_mem_per_sm = 96 * 1024;
  int shared_mem_banks = 32;
  int bank_width_bytes = 4;
  /// Global memory transaction (sector) granularity in bytes.
  int sector_bytes = 32;

  // --- Bandwidths / overheads (paper Section 7 figures) --------------------
  double global_bw_gbps = 251.0;        // GB/s
  double shared_bw_gbps = 2900.0;       // GB/s aggregate across SMs
  double pcie_bw_gbps = 12.0;           // host <-> device staging
  double kernel_launch_overhead_us = 5.0;
  double clock_ghz = 1.1;
  /// Latency of one dependent shared-memory access (e.g. a heap sift level,
  /// where the next address depends on the loaded value). Kernels report
  /// such chains explicitly; the timing model exposes the latency divided
  /// by the resident warps that can hide it.
  int dependent_access_latency_cycles = 30;
  /// Resident warps per SM needed to saturate the global memory pipeline;
  /// below this, effective bandwidth degrades linearly (occupancy model).
  int warps_to_saturate_bw = 16;
  /// Shared memory has ~10x lower latency than global; a few resident warps
  /// already keep its pipeline busy.
  int warps_to_saturate_shared = 4;
  /// Cost multiplier of one atomic shared-memory cycle relative to a plain
  /// shared access cycle (read-modify-write turnaround).
  double shared_atomic_cost_factor = 2.0;
  /// Cost of one global atomic in nanoseconds (L2 round trip).
  double global_atomic_ns = 2.0;

  /// The configuration used throughout the paper's evaluation.
  static DeviceSpec TitanXMaxwell() { return DeviceSpec{}; }

  /// A Pascal-generation datacenter part (P100-class): more SMs, HBM2
  /// global bandwidth, larger shared memory per SM. Used to demonstrate the
  /// paper's Section 7 motivation — predicting algorithm choice on hardware
  /// other than the one measured.
  static DeviceSpec TeslaP100() {
    DeviceSpec spec;
    spec.name = "Simulated Tesla P100 (Pascal)";
    spec.num_sms = 56;
    spec.global_mem_bytes = 16ull * 1024 * 1024 * 1024;
    spec.shared_mem_per_sm = 64 * 1024;
    spec.global_bw_gbps = 732.0;   // HBM2
    spec.shared_bw_gbps = 9500.0;  // scales with SM count and clock
    spec.clock_ghz = 1.3;
    return spec;
  }

  int max_warps_per_sm() const { return max_threads_per_sm / warp_size; }
};

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_DEVICE_SPEC_H_
