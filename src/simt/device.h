// The simulated device: global memory allocation, kernel launching, metrics
// and simulated-time accounting.
//
// Usage:
//   simt::Device dev(simt::DeviceSpec::TitanXMaxwell());
//   auto buf = dev.Alloc<float>(n).value();
//   dev.CopyToDevice(buf, host_data);              // PCIe-accounted staging
//   auto stats = dev.Launch({grid, block}, [&](simt::Block& blk) { ... });
//   double ms = stats->time.total_ms;              // simulated kernel time
//
// Memory is pooled: freed DeviceBuffers return their (256-byte rounded)
// blocks to a per-size free list, so a long batch of queries reuses
// addresses instead of growing the footprint. `allocated_bytes()` tracks
// live requested bytes, `peak_allocated_bytes()` the high-water mark,
// `footprint_bytes()` the bump-pointer extent. `set_pooling(false)` turns
// Release into a no-op (the pre-pooling no-reuse baseline, where a batch
// monotonically accumulates until ResourceExhausted).
//
// Streams: work issued through Device::LaunchOnStream / the stream-taking
// copy overloads advances only that stream's simulated clock, so
// independent streams overlap; concurrent kernels that oversubscribe the
// device are slowed by the committed-interval contention model in
// timing_model.h. `total_sim_ms()` stays the busy sum across all streams
// (the legacy serialized metric); `makespan_ms()` is the wall-clock of the
// overlapped schedule. Legacy entry points run on the default stream.
//
// Tracing: by default every block is traced (exact metrics). For large
// inputs, `set_trace_sample_target(t)` traces ~t evenly spaced blocks per
// launch and extrapolates — valid because all kernels in this library have
// block-homogeneous access patterns.
#ifndef MPTOPK_SIMT_DEVICE_H_
#define MPTOPK_SIMT_DEVICE_H_

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "simt/block.h"
#include "simt/device_spec.h"
#include "simt/fault_injection.h"
#include "simt/memory.h"
#include "simt/metrics.h"
#include "simt/racecheck.h"
#include "simt/stream.h"
#include "simt/timing_model.h"
#include "simt/trace.h"
#include "simt/workers.h"

namespace mptopk::simt {

struct LaunchConfig {
  int grid_dim = 1;
  int block_dim = 256;
  /// Register footprint per thread (a CUDA compiler output; declared by the
  /// kernel author here). Affects occupancy.
  int regs_per_thread = 32;
  /// Kernel name for per-kernel accounting / debugging.
  const char* name = "kernel";
};

struct KernelStats {
  std::string name;
  KernelMetrics metrics;
  KernelTime time;
  KernelResources resources;
  /// Stream placement of this launch on the simulated timeline.
  int stream_id = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  /// Hazards this launch's traced blocks produced under the race checker
  /// (empty unless Device racecheck is enabled; see simt/racecheck.h).
  RaceReport race;
};

class Device {
 public:
  explicit Device(DeviceSpec spec = DeviceSpec::TitanXMaxwell())
      : spec_(std::move(spec)),
        racecheck_(RacecheckEnvEnabled()),
        host_workers_(DefaultHostWorkers()),
        default_stream_(0, "default") {}

  const DeviceSpec& spec() const { return spec_; }

  /// Allocates `n` elements of device global memory from the pooled
  /// allocator (charged to the device-wide arena). Fails with
  /// ResourceExhausted when live bytes would exceed device capacity.
  template <typename T>
  StatusOr<DeviceBuffer<T>> Alloc(size_t n) {
    return AllocIn<T>(n, nullptr);
  }

  /// Allocates like Alloc but charges the given arena (per-query
  /// accounting scope); nullptr means the device-wide arena.
  template <typename T>
  StatusOr<DeviceBuffer<T>> AllocIn(size_t n, MemoryArena* arena) {
    size_t bytes = n * sizeof(T);
    if (fault_plan_ != nullptr) {
      Status st = fault_plan_->OnAlloc(bytes);
      if (!st.ok()) return st;
    }
    if (allocated_bytes_ + bytes > spec_.global_mem_bytes) {
      return Status::ResourceExhausted(
          "device memory exhausted: requested " + std::to_string(bytes) +
          " bytes, " +
          std::to_string(spec_.global_mem_bytes - allocated_bytes_) +
          " available");
    }
    uint64_t addr = AcquireBlock(RoundBlock(bytes));
    allocated_bytes_ += bytes;
    if (allocated_bytes_ > peak_allocated_bytes_) {
      peak_allocated_bytes_ = allocated_bytes_;
    }
    if (arena == nullptr) arena = &device_arena_;
    arena->OnAlloc(bytes);
    return DeviceBuffer<T>(this, addr, n, arena);
  }

  /// Host -> device staging; accumulates simulated PCIe transfer time and
  /// advances the target stream's clock. Fails with kUnavailable
  /// (retryable) under an installed fault plan; no data moves on failure.
  template <typename T>
  Status CopyToDevice(Stream& stream, DeviceBuffer<T>& dst, const T* src,
                      size_t n) {
    if (n == 0) return Status::OK();
    if (fault_plan_ != nullptr) {
      MPTOPK_RETURN_NOT_OK(
          fault_plan_->OnTransfer(n * sizeof(T), /*readback=*/false));
    }
    std::memcpy(dst.host_data(), src, n * sizeof(T));
    CommitTransfer(stream, n * sizeof(T));
    return Status::OK();
  }

  template <typename T>
  Status CopyToDevice(DeviceBuffer<T>& dst, const T* src, size_t n) {
    return CopyToDevice(default_stream_, dst, src, n);
  }

  /// Device -> host readback; accumulates simulated PCIe transfer time and
  /// advances the source stream's clock. Fails with kUnavailable
  /// (retryable) under an installed fault plan; the plan may also silently
  /// corrupt one bit of a "successful" readback
  /// (FaultPlanConfig::corrupt_readback_index) to exercise verification.
  template <typename T>
  Status CopyToHost(Stream& stream, T* dst, const DeviceBuffer<T>& src,
                    size_t n) {
    if (n == 0) return Status::OK();
    if (fault_plan_ != nullptr) {
      MPTOPK_RETURN_NOT_OK(
          fault_plan_->OnTransfer(n * sizeof(T), /*readback=*/true));
    }
    std::memcpy(dst, src.host_data(), n * sizeof(T));
    if (fault_plan_ != nullptr) {
      fault_plan_->CorruptReadback(dst, n * sizeof(T));
    }
    CommitTransfer(stream, n * sizeof(T));
    return Status::OK();
  }

  template <typename T>
  Status CopyToHost(T* dst, const DeviceBuffer<T>& src, size_t n) {
    return CopyToHost(default_stream_, dst, src, n);
  }

  /// Launches `body(Block&)` over the grid on `stream`, returning traced
  /// metrics and the simulated kernel time. Validates block dimensions and
  /// shared-memory usage (a kernel allocating more than
  /// shared_mem_per_block fails with ResourceExhausted — e.g. per-thread
  /// top-k at k=512, paper Section 4.1). The kernel starts at the stream's
  /// clock; if committed work on *other* streams overlaps it and the summed
  /// device share exceeds 1, its bandwidth terms stretch accordingly.
  template <typename F>
  StatusOr<KernelStats> LaunchOnStream(Stream& stream, const LaunchConfig& cfg,
                                       F&& body) {
    if (fault_plan_ != nullptr) {
      Status st = fault_plan_->OnLaunch(cfg.name);
      if (!st.ok()) return st;
    }
    if (cfg.grid_dim <= 0 || cfg.block_dim <= 0) {
      return Status::InvalidArgument("launch dims must be positive");
    }
    if (cfg.block_dim > spec_.max_threads_per_block) {
      return Status::InvalidArgument(
          "block_dim " + std::to_string(cfg.block_dim) + " exceeds device max " +
          std::to_string(spec_.max_threads_per_block));
    }
    MPTOPK_RETURN_NOT_OK(BlockTracer::CheckGeometry(spec_));

    // Ceil-division guarantees at most trace_sample_target_ traced blocks
    // (floor division traced up to 2*target - 1).
    int stride = 1;
    if (trace_sample_target_ > 0 && cfg.grid_dim > trace_sample_target_) {
      stride = (cfg.grid_dim + trace_sample_target_ - 1) /
               trace_sample_target_;
    }

    KernelStats stats;
    stats.name = cfg.name;
    size_t shared_used = 0;
    // Shard blocks round-robin over W workers (W = 1 runs inline on the
    // caller), each with its own Block/BlockTracer and local accumulators;
    // merge in block order after the join so every metric, race report and
    // timing is independent of W (see simt/workers.h for the
    // atomics/turnstile contract that makes the traces themselves
    // worker-count-invariant).
    const int workers = std::max(1, std::min(host_workers_, cfg.grid_dim));
    struct WorkerCtx {
      WorkerCtx(const DeviceSpec& spec, const LaunchConfig& cfg,
                bool racecheck)
          : block(spec, cfg.grid_dim, cfg.block_dim),
            tracer(spec, cfg.block_dim, racecheck) {}
      Block block;
      BlockTracer tracer;
      KernelMetrics metrics;
      size_t shared_used = 0;
      std::vector<std::pair<int, RaceReport>> race;  // per traced block
    };
    std::vector<std::unique_ptr<WorkerCtx>> ctx;
    ctx.reserve(workers);
    for (int w = 0; w < workers; ++w) {
      ctx.push_back(std::make_unique<WorkerCtx>(spec_, cfg, racecheck_));
    }
    // A single worker runs blocks in order, so its atomics need no turnstile
    // and stay plain read-modify-writes.
    LaunchOrder order(workers > 1 ? cfg.grid_dim : 0);
    LaunchOrder* const turnstile = workers > 1 ? &order : nullptr;
    const std::function<void(int, int)> run = [&](int w, int b) {
      WorkerCtx& cx = *ctx[w];
      bool traced = (b % stride) == 0;
      if (traced) cx.tracer.Reset(cfg.block_dim);
      cx.block.ResetFor(b, traced ? &cx.tracer : nullptr, turnstile);
      body(cx.block);
      size_t used = cx.block.shared_bytes_used();
      cx.shared_used = std::max(cx.shared_used, used);
      if (traced && used <= spec_.shared_mem_per_block) {
        cx.tracer.Analyze(&cx.metrics);
        if (racecheck_) {
          cx.race.emplace_back(b, RaceReport{});
          RaceChecker::CheckBlock(cx.tracer, spec_, stats.name, b,
                                  &cx.race.back().second);
        }
      }
      if (turnstile != nullptr) turnstile->MarkDone(b);
    };
    BlockWorkers::Instance().Run(workers, cfg.grid_dim, run);

    for (const auto& c : ctx) {
      shared_used = std::max(shared_used, c->shared_used);
    }
    if (shared_used > spec_.shared_mem_per_block) {
      // All kernels in this library allocate shared memory uniformly per
      // block, so the peak is every block's usage.
      return Status::ResourceExhausted(
          std::string(cfg.name) + ": block shared memory " +
          std::to_string(shared_used) + " B exceeds device limit " +
          std::to_string(spec_.shared_mem_per_block) + " B");
    }
    // Metric counters are all uint64 and Analyze only accumulates, so
    // summing per-worker locals in any order gives the same totals.
    for (const auto& c : ctx) stats.metrics += c->metrics;
    if (racecheck_) {
      // Race reports cap recorded hazards, so merge order matters:
      // restore block order across workers.
      std::vector<std::pair<int, RaceReport>*> reports;
      for (auto& c : ctx) {
        for (auto& r : c->race) reports.push_back(&r);
      }
      std::sort(reports.begin(), reports.end(),
                [](const auto* a, const auto* b) {
                  return a->first < b->first;
                });
      for (const auto* r : reports) stats.race.Merge(r->second);
    }
    race_report_.Merge(stats.race);
    stats.metrics.blocks_launched = cfg.grid_dim;
    if (stats.metrics.blocks_traced > 0 &&
        stats.metrics.blocks_traced < static_cast<uint64_t>(cfg.grid_dim)) {
      stats.metrics.Scale(static_cast<double>(cfg.grid_dim) /
                          static_cast<double>(stats.metrics.blocks_traced));
    }

    stats.resources = KernelResources{cfg.grid_dim, cfg.block_dim,
                                      cfg.regs_per_thread, shared_used};
    stats.time = EstimateKernelTime(spec_, stats.resources, stats.metrics);

    const double start = stream.now_ms();
    // Contention only arises once extra streams exist; the common
    // single-stream path skips the interval scan entirely.
    if (!streams_.empty()) {
      double factor =
          ConcurrencyFactor(intervals_, stream.id(), start,
                            stats.time.total_ms,
                            stats.time.occupancy.sm_utilization);
      stats.time = ApplyConcurrency(stats.time, factor);
      intervals_.push_back(StreamInterval{stream.id(), start,
                                          start + stats.time.total_ms,
                                          stats.time.occupancy.sm_utilization});
    }
    stats.stream_id = stream.id();
    stats.start_ms = start;
    stats.end_ms = start + stats.time.total_ms;
    stream.Advance(stats.time.total_ms);

    total_sim_ms_ += stats.time.total_ms;
    total_metrics_ += stats.metrics;
    kernel_log_.push_back(stats);
    return stats;
  }

  /// Legacy launch on the default stream.
  template <typename F>
  StatusOr<KernelStats> Launch(const LaunchConfig& cfg, F&& body) {
    return LaunchOnStream(default_stream_, cfg, std::forward<F>(body));
  }

  /// Creates an additional stream (owned by the device; stable pointer).
  /// The default stream has id 0; created streams get ids 1, 2, ...
  Stream* CreateStream(std::string name = "stream") {
    streams_.push_back(std::make_unique<Stream>(
        static_cast<int>(streams_.size()) + 1, std::move(name)));
    return streams_.back().get();
  }
  Stream& default_stream() { return default_stream_; }

  /// Wall-clock of the overlapped schedule: the furthest point any stream's
  /// clock has reached (compare with total_sim_ms(), the busy sum).
  double makespan_ms() const {
    double m = default_stream_.now_ms();
    for (const auto& s : streams_) m = std::max(m, s->now_ms());
    return m;
  }

  /// Trace every block (exact; default) when 0, else trace at most `target`
  /// evenly spaced blocks per launch (ceil-division stride; block 0 is
  /// always traced) and extrapolate the counters to the full grid.
  void set_trace_sample_target(int target) { trace_sample_target_ = target; }

  /// Host worker threads used to execute launches (simulator host
  /// performance only: simulated metrics and timings are bit-identical for
  /// every count — pinned by tests/parallel_launch_test.cc). Initialized
  /// from the MPTOPK_WORKERS environment variable, else
  /// min(hardware_concurrency, 8). 1 = every block in order on the caller.
  void set_host_workers(int workers) {
    host_workers_ = workers < 1 ? 1 : workers;
  }
  int host_workers() const { return host_workers_; }

  /// Toggles the barrier-epoch race checker for subsequent launches (see
  /// simt/racecheck.h). Initialized from the MPTOPK_RACECHECK environment
  /// variable. Only traced blocks are checked, so under trace sampling
  /// raise set_trace_sample_target for coverage.
  void set_racecheck(bool on) { racecheck_ = on; }
  bool racecheck() const { return racecheck_; }
  /// Hazards accumulated across every checked launch since construction
  /// (per-launch reports are on KernelStats::race).
  const RaceReport& race_report() const { return race_report_; }

  /// Installs (or clears, with nullptr) a deterministic fault plan consulted
  /// by Alloc / CopyToDevice / CopyToHost / Launch. The device shares
  /// ownership so tests can keep inspecting the plan's stats().
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }

  /// Charges extra simulated latency (e.g. the resilient executor's retry
  /// backoff) to the given stream so end-to-end simulated time reflects it.
  void AddSimulatedDelayMs(Stream& stream, double ms) {
    total_sim_ms_ += ms;
    stream.Advance(ms);
  }
  void AddSimulatedDelayMs(double ms) {
    AddSimulatedDelayMs(default_stream_, ms);
  }

  /// Simulated kernel milliseconds accumulated since construction/reset —
  /// the busy sum over all streams (serialized-equivalent time).
  double total_sim_ms() const { return total_sim_ms_; }
  /// Simulated PCIe staging milliseconds.
  double pcie_ms() const { return pcie_ms_; }
  const KernelMetrics& total_metrics() const { return total_metrics_; }
  const std::vector<KernelStats>& kernel_log() const { return kernel_log_; }

  /// Live requested bytes (decremented when buffers die under pooling).
  size_t allocated_bytes() const { return allocated_bytes_; }
  /// High-water mark of allocated_bytes() since construction.
  size_t peak_allocated_bytes() const { return peak_allocated_bytes_; }
  /// Extent of the bump pointer: address space ever carved out. Under
  /// pooling this plateaus once the pool serves steady-state demand.
  size_t footprint_bytes() const {
    return static_cast<size_t>(next_addr_ - kBaseAddr);
  }
  /// Allocations served from the free list instead of fresh address space.
  uint64_t pool_reuse_count() const { return pool_reuse_count_; }
  /// Rounded bytes currently parked in the free list.
  size_t pooled_free_bytes() const { return pooled_free_bytes_; }
  /// Device-wide arena (allocations not charged to a caller arena).
  const MemoryArena& device_arena() const { return device_arena_; }

  /// Pooling is on by default. Disabling it makes Release a no-op — freed
  /// bytes stay charged and addresses are never reused — which is the
  /// pre-pooling no-reuse baseline used for memory comparisons. Toggle
  /// before allocating; flipping mid-lifetime skews accounting.
  void set_pooling(bool enabled) { pooling_enabled_ = enabled; }
  bool pooling_enabled() const { return pooling_enabled_; }

  /// Resets time/metrics accumulators and stream clocks (not allocations).
  void ResetAccounting() {
    total_sim_ms_ = 0;
    pcie_ms_ = 0;
    total_metrics_ = KernelMetrics{};
    kernel_log_.clear();
    intervals_.clear();
    default_stream_.Reset();
    for (auto& s : streams_) s->Reset();
  }

  // Internal: DeviceBuffer destruction returns the block to the pool.
  void ReleaseAllocation(size_t bytes, uint64_t addr, MemoryArena* arena) {
    if (!pooling_enabled_) return;  // no-reuse baseline: bytes stay charged
    allocated_bytes_ -= bytes;
    if (arena != nullptr) arena->OnFree(bytes);
    size_t rounded = RoundBlock(bytes);
    if (rounded > 0) {
      free_blocks_[rounded].push_back(addr);
      pooled_free_bytes_ += rounded;
    }
  }

 private:
  static constexpr uint64_t kBaseAddr = 4096;  // leave page 0 unmapped

  static size_t RoundBlock(size_t bytes) {
    return (bytes + 255) & ~size_t{255};  // 256-byte aligned blocks
  }

  uint64_t AcquireBlock(size_t rounded) {
    if (rounded > 0) {
      auto it = free_blocks_.find(rounded);
      if (it != free_blocks_.end() && !it->second.empty()) {
        uint64_t addr = it->second.back();
        it->second.pop_back();
        pooled_free_bytes_ -= rounded;
        ++pool_reuse_count_;
        return addr;
      }
    }
    uint64_t addr = next_addr_;
    next_addr_ += rounded;
    return addr;
  }

  void CommitTransfer(Stream& stream, size_t bytes) {
    double ms =
        static_cast<double>(bytes) / (spec_.pcie_bw_gbps * 1e9) * 1e3;
    pcie_ms_ += ms;
    // Transfers occupy the stream's timeline but not device compute
    // bandwidth; they commit no contention interval.
    stream.Advance(ms);
  }

  DeviceSpec spec_;
  std::shared_ptr<FaultPlan> fault_plan_;

  bool pooling_enabled_ = true;
  size_t allocated_bytes_ = 0;
  size_t peak_allocated_bytes_ = 0;
  size_t pooled_free_bytes_ = 0;
  uint64_t pool_reuse_count_ = 0;
  uint64_t next_addr_ = kBaseAddr;
  /// Free blocks by rounded size (exact size-class reuse).
  std::map<size_t, std::vector<uint64_t>> free_blocks_;
  MemoryArena device_arena_{"device"};

  int trace_sample_target_ = 0;
  bool racecheck_ = false;
  int host_workers_ = 1;
  RaceReport race_report_;

  Stream default_stream_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<StreamInterval> intervals_;

  double total_sim_ms_ = 0;
  double pcie_ms_ = 0;
  KernelMetrics total_metrics_;
  std::vector<KernelStats> kernel_log_;
};

/// The one way to measure simulated time: captures the device's clocks at
/// construction, and reports what a call (or a sequence of calls) between
/// construction and the read consumed. Results carry answers; a caller that
/// wants to know how long something took measures around it with this.
class DeviceTimeTracker {
 public:
  explicit DeviceTimeTracker(const Device& dev)
      : dev_(dev),
        start_ms_(dev.total_sim_ms()),
        start_pcie_ms_(dev.pcie_ms()),
        start_launches_(dev.kernel_log().size()) {}

  /// Busy-sum delta: kernel time plus charged simulated delay (backoff).
  double ElapsedMs() const { return dev_.total_sim_ms() - start_ms_; }
  /// PCIe staging delta.
  double PcieMs() const { return dev_.pcie_ms() - start_pcie_ms_; }
  /// Kernel launches since construction (entries appended to kernel_log()).
  int Launches() const {
    return static_cast<int>(dev_.kernel_log().size() - start_launches_);
  }

 private:
  const Device& dev_;
  double start_ms_;
  double start_pcie_ms_;
  size_t start_launches_;
};

// --- DeviceBuffer inline implementation -------------------------------------

template <typename T>
DeviceBuffer<T>::DeviceBuffer(Device* device, uint64_t device_addr, size_t n,
                              MemoryArena* arena)
    : device_(device), device_addr_(device_addr), arena_(arena), storage_(n) {}

template <typename T>
DeviceBuffer<T>::~DeviceBuffer() {
  if (device_ != nullptr) {
    device_->ReleaseAllocation(storage_.size() * sizeof(T), device_addr_,
                               arena_);
  }
}

template <typename T>
DeviceBuffer<T>& DeviceBuffer<T>::operator=(DeviceBuffer&& o) noexcept {
  if (this != &o) {
    if (device_ != nullptr) {
      device_->ReleaseAllocation(storage_.size() * sizeof(T), device_addr_,
                                 arena_);
    }
    device_ = o.device_;
    device_addr_ = o.device_addr_;
    arena_ = o.arena_;
    storage_ = std::move(o.storage_);
    o.device_ = nullptr;
    o.device_addr_ = 0;
    o.arena_ = nullptr;
    o.storage_.clear();
  }
  return *this;
}

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_DEVICE_H_
