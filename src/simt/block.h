// Block execution context: shared memory allocation, lane loops, barriers.
//
// Kernels are written block-synchronously: a kernel body is a function
// `void(Block&)` that alternates `Block::ForEachThread(lambda)` regions
// (straight-line SIMT code executed for every thread) with `Block::Sync()`
// barriers. This preserves the CUDA kernel structure — thread ids, warps,
// shared memory, __syncthreads — while executing as plain host loops.
#ifndef MPTOPK_SIMT_BLOCK_H_
#define MPTOPK_SIMT_BLOCK_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <vector>

#include "simt/device_spec.h"
#include "simt/memory.h"
#include "simt/thread.h"
#include "simt/trace.h"

namespace mptopk::simt {

class Block {
 public:
  Block(const DeviceSpec& spec, int grid_dim, int block_dim)
      : spec_(spec), grid_dim_(grid_dim), block_dim_(block_dim) {
    shared_arena_.resize(spec.shared_mem_per_block);
    threads_.resize(block_dim);
    ResetFor(0, nullptr);
  }

  int block_idx() const { return block_idx_; }
  int grid_dim() const { return grid_dim_; }
  int block_dim() const { return block_dim_; }
  const DeviceSpec& spec() const { return spec_; }

  /// Allocates `n` elements of shared memory (16-byte aligned). The total
  /// across a kernel must stay within DeviceSpec::shared_mem_per_block — the
  /// launcher validates this (kernels query shared_bytes_used()).
  /// Contents are NOT zeroed (as on real hardware).
  template <typename T>
  SharedSpan<T> AllocShared(size_t n) {
    size_t offset = (shared_used_ + 15) & ~size_t{15};
    size_t bytes = n * sizeof(T);
    shared_used_ = offset + bytes;
    if (shared_used_ > shared_arena_.size()) {
      // Over-allocation: the launcher reports kResourceExhausted as soon as
      // this block body returns. Serve the span from a stable overflow
      // buffer so the rest of the body stays memory-safe until then.
      overflow_.emplace_back(bytes + 16);
      auto raw = reinterpret_cast<uintptr_t>(overflow_.back().data());
      auto aligned = (raw + 15) & ~uintptr_t{15};
      return SharedSpan<T>(reinterpret_cast<T*>(aligned), offset, n);
    }
    return SharedSpan<T>(reinterpret_cast<T*>(shared_arena_.data() + offset),
                         offset, n);
  }

  size_t shared_bytes_used() const { return shared_used_; }

  /// Runs `fn(Thread&)` for every thread of the block (a SIMT region).
  /// Region boundaries re-align warp sequence counters, like a wavefront
  /// reconverging after divergence.
  template <typename Fn>
  void ForEachThread(Fn&& fn) {
    for (int t = 0; t < block_dim_; ++t) {
      fn(threads_[t]);
    }
    if (tracer_ != nullptr) AlignWarpSequences();
  }

  /// Runs `fn(Thread&)` for the first `count` threads only (used by the
  /// partition-reassignment optimization where half the threads idle).
  template <typename Fn>
  void ForEachThreadBelow(int count, Fn&& fn) {
    count = std::min(count, block_dim_);
    for (int t = 0; t < count; ++t) {
      fn(threads_[t]);
    }
    if (tracer_ != nullptr) AlignWarpSequences();
  }

  /// Block-wide barrier (`__syncthreads`). Execution is already sequential;
  /// this re-aligns warp sequence counters so accesses in different epochs
  /// never coalesce into one warp instruction, and advances the tracer's
  /// barrier epoch (the happens-before boundary simt::RaceChecker uses).
  void Sync() {
    if (tracer_ != nullptr) {
      AlignWarpSequences();
      tracer_->AdvanceEpoch();
    }
  }

  /// Thread-local scratch modeling registers: a per-thread array of `n` T
  /// elements, NOT traced (register file accesses are free in the memory
  /// model). Indexed as scratch[tid * n + j]. Contents persist across
  /// regions within one block execution, and pointers from earlier calls
  /// stay valid (each call owns a stable chunk, reused across blocks).
  template <typename T>
  T* ThreadScratch(size_t n) {
    size_t bytes = block_dim_ * n * sizeof(T);
    if (scratch_idx_ == scratch_chunks_.size()) {
      scratch_chunks_.emplace_back();
    }
    auto& chunk = scratch_chunks_[scratch_idx_++];
    if (chunk.size() < bytes) chunk.resize(bytes);
    return reinterpret_cast<T*>(chunk.data());
  }

  /// Records register-spill traffic for this block (Appendix A model): the
  /// timing model bills these bytes at global-memory bandwidth.
  void RecordLocalTraffic(uint64_t bytes) {
    if (tracer_ != nullptr) tracer_->RecordLocal(bytes);
  }

  // --- Launcher interface ---------------------------------------------------

  /// Re-targets this context at block `block_idx`, tracing into `tracer`
  /// (may be null). Under a parallel launch `order` carries the launch's
  /// block-completion turnstile (null on a one-worker launch). Resets
  /// shared/scratch arenas and thread state.
  void ResetFor(int block_idx, BlockTracer* tracer,
                LaunchOrder* order = nullptr) {
    block_idx_ = block_idx;
    tracer_ = tracer;
    shared_used_ = 0;
    scratch_idx_ = 0;
    overflow_.clear();
    for (int t = 0; t < block_dim_; ++t) {
      threads_[t].tid = t;
      threads_[t].lane = t % spec_.warp_size;
      threads_[t].warp = t / spec_.warp_size;
      threads_[t].tracer = tracer;
      threads_[t].global_seq = 0;
      threads_[t].shared_seq = 0;
      threads_[t].order = order;
      threads_[t].block_idx = block_idx;
    }
  }

 private:
  void AlignWarpSequences() {
    if (tracer_ == nullptr) return;
    const int ws = spec_.warp_size;
    for (int w = 0; w * ws < block_dim_; ++w) {
      int hi = std::min(block_dim_, (w + 1) * ws);
      uint32_t max_g = 0, max_s = 0;
      for (int t = w * ws; t < hi; ++t) {
        max_g = std::max(max_g, threads_[t].global_seq);
        max_s = std::max(max_s, threads_[t].shared_seq);
      }
      for (int t = w * ws; t < hi; ++t) {
        threads_[t].global_seq = max_g;
        threads_[t].shared_seq = max_s;
      }
    }
    // No later access can share a (warp, seq) with this region's.
    tracer_->EndRegion();
  }

  const DeviceSpec& spec_;
  int grid_dim_;
  int block_dim_;
  int block_idx_ = 0;
  BlockTracer* tracer_ = nullptr;

  std::vector<std::byte> shared_arena_;
  /// Backing for spans handed out past the shared-memory limit (the launch
  /// fails, but the block body that over-allocated still runs to the next
  /// check). Inner buffers never move once allocated.
  std::vector<std::vector<std::byte>> overflow_;
  size_t shared_used_ = 0;
  std::vector<std::vector<std::byte>> scratch_chunks_;
  size_t scratch_idx_ = 0;
  std::vector<Thread> threads_;
};

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_BLOCK_H_
