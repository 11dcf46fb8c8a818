// ExecCtx: the execution context every algorithm runs against — a device
// plus the stream its work is ordered on and the arena its allocations are
// charged to.
//
// ExecCtx mirrors the Device surface (spec / Alloc / CopyToDevice /
// CopyToHost / Launch / accounting accessors), so algorithm code is written
// once against `simt::ExecCtx&` and works identically for the legacy
// single-query path (a default context on the device's default stream) and
// for the batched engine (one context per query, each on its own stream and
// arena). It is a cheap value type: three pointers and a hint; copy freely.
#ifndef MPTOPK_SIMT_EXEC_CTX_H_
#define MPTOPK_SIMT_EXEC_CTX_H_

#include "simt/device.h"

namespace mptopk::simt {

class ExecCtx {
 public:
  /// Default context: device's default stream, device-wide arena.
  /// Deliberately implicit — a bare `simt::Device&` converts to a default
  /// context, so every pre-stream call site (and out-of-tree caller)
  /// compiles unchanged against the ExecCtx-taking algorithm entry points.
  ExecCtx(Device& dev)  // NOLINT(google-explicit-constructor)
      : dev_(&dev), stream_(&dev.default_stream()), arena_(nullptr) {}

  /// Bound context: work ordered on `stream`, allocations charged to
  /// `arena` (nullptr = device-wide arena). Both must outlive the context
  /// and any DeviceBuffer allocated through it.
  ExecCtx(Device& dev, Stream* stream, MemoryArena* arena)
      : dev_(&dev), stream_(stream != nullptr ? stream : &dev.default_stream()),
        arena_(arena) {}

  Device& device() const { return *dev_; }
  Stream& stream() const { return *stream_; }
  MemoryArena* arena() const { return arena_; }

  /// Expected number of contexts running concurrently on this device; set
  /// by the batch executor so the planner's cost model can price bandwidth
  /// sharing (cost::Workload::concurrent_streams).
  int concurrency_hint() const { return concurrency_hint_; }
  void set_concurrency_hint(int n) { concurrency_hint_ = n > 1 ? n : 1; }

  // --- Device surface, bound to this stream/arena ---------------------------

  const DeviceSpec& spec() const { return dev_->spec(); }

  template <typename T>
  StatusOr<DeviceBuffer<T>> Alloc(size_t n) const {
    return dev_->AllocIn<T>(n, arena_);
  }

  template <typename T>
  Status CopyToDevice(DeviceBuffer<T>& dst, const T* src, size_t n) const {
    return dev_->CopyToDevice(*stream_, dst, src, n);
  }

  template <typename T>
  Status CopyToHost(T* dst, const DeviceBuffer<T>& src, size_t n) const {
    return dev_->CopyToHost(*stream_, dst, src, n);
  }

  template <typename F>
  StatusOr<KernelStats> Launch(const LaunchConfig& cfg, F&& body) const {
    return dev_->LaunchOnStream(*stream_, cfg, std::forward<F>(body));
  }

  void AddSimulatedDelayMs(double ms) const {
    dev_->AddSimulatedDelayMs(*stream_, ms);
  }

  /// Cross-stream ordering: capture this context's position / block behind
  /// another context's event.
  Event RecordEvent() const { return stream_->Record(); }
  void WaitEvent(const Event& e) const { stream_->Wait(e); }

  double total_sim_ms() const { return dev_->total_sim_ms(); }
  double pcie_ms() const { return dev_->pcie_ms(); }
  size_t allocated_bytes() const { return dev_->allocated_bytes(); }

 private:
  Device* dev_;
  Stream* stream_;
  MemoryArena* arena_;
  int concurrency_hint_ = 1;
};

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_EXEC_CTX_H_
