// Device memory abstractions: owning global-memory buffers, traced global
// spans, and traced shared-memory spans.
//
// All kernel-visible loads and stores flow through GlobalSpan / SharedSpan
// with an explicit `Thread&` so the tracer can attribute them to warp lanes.
// Host-side code uses DeviceBuffer::host_data() directly (modeling
// cudaMemcpy-style staging; see Device::CopyToDevice / CopyToHost for the
// PCIe-accounted variants).
#ifndef MPTOPK_SIMT_MEMORY_H_
#define MPTOPK_SIMT_MEMORY_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "simt/thread.h"
#include "simt/trace.h"
#include "simt/workers.h"

namespace mptopk::simt {

class Device;
struct MemoryArena;

/// An owning allocation in simulated device global memory. Movable,
/// non-copyable; returns its block to the device pool (and credits its
/// accounting arena) on destruction.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device* device, uint64_t device_addr, size_t n,
               MemoryArena* arena = nullptr);
  ~DeviceBuffer();

  DeviceBuffer(DeviceBuffer&& o) noexcept { *this = std::move(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  uint64_t device_addr() const { return device_addr_; }

  /// Host-visible backing store (simulator-internal; use for staging data in
  /// tests and for result readback).
  T* host_data() { return storage_.data(); }
  const T* host_data() const { return storage_.data(); }

 private:
  Device* device_ = nullptr;
  uint64_t device_addr_ = 0;
  MemoryArena* arena_ = nullptr;
  std::vector<T> storage_;
};

/// A non-owning, traced view of device global memory handed to kernels.
template <typename T>
class GlobalSpan {
  static_assert(sizeof(T) <= BlockTracer::kMaxAccessBytes,
                "one traced access is at most 16 bytes");

 public:
  GlobalSpan() = default;
  explicit GlobalSpan(DeviceBuffer<T>& buf)
      : data_(buf.host_data()), device_addr_(buf.device_addr()),
        size_(buf.size()) {}
  GlobalSpan(T* data, uint64_t device_addr, size_t size)
      : data_(data), device_addr_(device_addr), size_(size) {}

  size_t size() const { return size_; }

  /// Sub-view [offset, offset+count).
  GlobalSpan<T> subspan(size_t offset, size_t count) const {
    assert(offset + count <= size_);
    return GlobalSpan<T>(data_ + offset, device_addr_ + offset * sizeof(T),
                         count);
  }

  T Read(Thread& t, size_t i) const {
    assert(i < size_);
    if (t.tracer != nullptr) {
      t.tracer->RecordGlobal(t.tid, t.global_seq++,
                             device_addr_ + i * sizeof(T), sizeof(T), false);
    }
    return data_[i];
  }

  void Write(Thread& t, size_t i, const T& v) const {
    assert(i < size_);
    if (t.tracer != nullptr) {
      t.tracer->RecordGlobal(t.tid, t.global_seq++,
                             device_addr_ + i * sizeof(T), sizeof(T), true);
    }
    data_[i] = v;
  }

  /// Atomic read-modify-write add, returning the old value (CUDA atomicAdd,
  /// PTX `atom`). Under a parallel launch the return value is made
  /// sequential-equivalent by the LaunchOrder turnstile: block b's call
  /// waits until blocks 0..b-1 completed, so reserved offsets — and every
  /// address/trace derived from them — match the workers=1 run exactly.
  /// When the return value is not needed, use ReduceAdd, which stays fully
  /// concurrent.
  T AtomicAdd(Thread& t, size_t i, T v) const {
    assert(i < size_);
    Record(t, i);
    if (t.order != nullptr) {
      t.order->AwaitTurn(t.block_idx);
      return std::atomic_ref<T>(data_[i]).fetch_add(
          v, std::memory_order_relaxed);
    }
    T old = data_[i];
    data_[i] = old + v;
    return old;
  }

  /// Atomic compare-and-swap; returns the old value (equal to `expected` on
  /// success). Turnstiled under a parallel launch like AtomicAdd.
  T AtomicCas(Thread& t, size_t i, T expected, T desired) const {
    assert(i < size_);
    Record(t, i);
    if (t.order != nullptr) {
      t.order->AwaitTurn(t.block_idx);
      T old = expected;
      std::atomic_ref<T>(data_[i]).compare_exchange_strong(
          old, desired, std::memory_order_relaxed);
      return old;
    }
    T old = data_[i];
    if (old == expected) data_[i] = desired;
    return old;
  }

  /// Atomic add whose result is discarded (CUDA atomicAdd with unused
  /// return, PTX `red`). No cross-block ordering: concurrent blocks update
  /// freely and the final value is interleaving-independent, so the
  /// location must only be read back after the launch completes (histogram
  /// flushes, global counters). Integral T only — float addition would be
  /// order-dependent. Traced identically to AtomicAdd (same access record,
  /// hence bit-identical metrics).
  void ReduceAdd(Thread& t, size_t i, T v) const {
    static_assert(std::is_integral_v<T>,
                  "ReduceAdd requires a commutative-exact (integral) type");
    assert(i < size_);
    Record(t, i);
    if (t.order != nullptr) {
      std::atomic_ref<T>(data_[i]).fetch_add(v, std::memory_order_relaxed);
      return;
    }
    data_[i] += v;
  }

  /// Atomic max whose result is discarded; see ReduceAdd.
  void ReduceMax(Thread& t, size_t i, T v) const {
    assert(i < size_);
    Record(t, i);
    if (t.order != nullptr) {
      std::atomic_ref<T> a(data_[i]);
      T old = a.load(std::memory_order_relaxed);
      while (v > old &&
             !a.compare_exchange_weak(old, v, std::memory_order_relaxed)) {
      }
      return;
    }
    if (v > data_[i]) data_[i] = v;
  }

  /// Atomic min whose result is discarded; see ReduceAdd.
  void ReduceMin(Thread& t, size_t i, T v) const {
    assert(i < size_);
    Record(t, i);
    if (t.order != nullptr) {
      std::atomic_ref<T> a(data_[i]);
      T old = a.load(std::memory_order_relaxed);
      while (v < old &&
             !a.compare_exchange_weak(old, v, std::memory_order_relaxed)) {
      }
      return;
    }
    if (v < data_[i]) data_[i] = v;
  }

 private:
  /// The one trace record all six atomics share (write + atomic), so a
  /// Reduce* migration cannot change metrics.
  void Record(Thread& t, size_t i) const {
    if (t.tracer != nullptr) {
      t.tracer->RecordGlobal(t.tid, t.global_seq++,
                             device_addr_ + i * sizeof(T), sizeof(T), true,
                             /*atomic=*/true);
    }
  }

  T* data_ = nullptr;
  uint64_t device_addr_ = 0;
  size_t size_ = 0;
};

/// A traced view of a block's shared memory allocation. Obtained from
/// Block::AllocShared<T>(n); addresses are offsets within the block's shared
/// arena, which is how the bank analyzer maps words to banks.
template <typename T>
class SharedSpan {
  static_assert(sizeof(T) <= BlockTracer::kMaxAccessBytes,
                "one traced access is at most 16 bytes");

 public:
  SharedSpan() = default;
  SharedSpan(T* data, uint64_t base_offset, size_t size)
      : data_(data), base_offset_(base_offset), size_(size) {}

  size_t size() const { return size_; }
  /// Offset of element 0 within the block's shared arena — what the bank
  /// analyzer maps to banks. Stays the pre-overflow bump-pointer offset even
  /// when the allocation was served from the overflow buffer.
  uint64_t base_offset() const { return base_offset_; }
  /// Untraced backing pointer — host-side inspection only (tests, dumps).
  /// In-kernel accesses must go through Read/Write so they are traced.
  T* data() const { return data_; }

  T Read(Thread& t, size_t i) const {
    assert(i < size_);
    if (t.tracer != nullptr) {
      t.tracer->RecordShared(t.tid, t.shared_seq++,
                             base_offset_ + i * sizeof(T), sizeof(T),
                             /*write=*/false, /*atomic=*/false);
    }
    return data_[i];
  }

  void Write(Thread& t, size_t i, const T& v) const {
    assert(i < size_);
    if (t.tracer != nullptr) {
      t.tracer->RecordShared(t.tid, t.shared_seq++,
                             base_offset_ + i * sizeof(T), sizeof(T),
                             /*write=*/true, /*atomic=*/false);
    }
    data_[i] = v;
  }

  T AtomicAdd(Thread& t, size_t i, T v) const {
    assert(i < size_);
    if (t.tracer != nullptr) {
      t.tracer->RecordShared(t.tid, t.shared_seq++,
                             base_offset_ + i * sizeof(T), sizeof(T),
                             /*write=*/true, /*atomic=*/true);
    }
    T old = data_[i];
    data_[i] = old + v;
    return old;
  }

 private:
  T* data_ = nullptr;
  uint64_t base_offset_ = 0;
  size_t size_ = 0;
};

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_MEMORY_H_
