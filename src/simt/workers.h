// Host-side parallel block execution for the simulator.
//
// Device::LaunchOnStream shards the grid over W persistent host threads
// (`BlockWorkers`), worker w running blocks w, w+W, w+2W, ... in increasing
// order, each with its own Block / BlockTracer context. Simulated time is
// derived purely from traced metrics, so parallel execution must only keep
// the *traces* identical to a one-worker launch, which runs the blocks in
// order on the calling thread with plain atomics — and it does:
//
//  * Per-block state (shared memory, scratch, tracer) is per-worker; traced
//    addresses and sequence numbers depend only on the block index.
//  * Plain global reads/writes of the library's kernels touch disjoint
//    per-block regions within a launch (CUDA forbids inter-block ordering
//    assumptions, and every such region is derived from the block index or
//    from a turnstiled atomic reservation, below).
//  * Value-returning global atomics (AtomicAdd/Max/Min/Cas) pass through a
//    `LaunchOrder` turnstile: block b's first such atomic waits until blocks
//    0..b-1 have completed, so every returned value — and therefore every
//    downstream address, trace and metric — is exactly the sequential one.
//  * Void-returning reduction atomics (ReduceAdd/Min/Max) are real relaxed
//    RMWs with no ordering wait; they are restricted to commutative
//    integer updates whose final value is interleaving-independent and
//    only read back after the launch joins (histogram flushes, min/max
//    merges). They trace identically to their value-returning siblings.
//
// Deadlock-freedom of the turnstile under round-robin sharding: each worker
// executes its blocks in increasing order, so when block m is the smallest
// unfinished block its worker is currently running it, and m's waits target
// only blocks < m, which are all done. Induction gives global progress.
#ifndef MPTOPK_SIMT_WORKERS_H_
#define MPTOPK_SIMT_WORKERS_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mptopk::simt {

/// Per-launch turnstile giving value-returning global atomics their
/// sequential block order. `AwaitTurn(b)` blocks until all blocks < b have
/// completed; `MarkDone(b)` is called by the launcher after each block body
/// returns (in increasing order per worker). The common case — a kernel
/// with no value-returning atomics — never touches the slow path.
class LaunchOrder {
 public:
  explicit LaunchOrder(int grid_dim) : done_(grid_dim, 0) {}

  /// Blocks until blocks [0, block_idx) have all completed. The fast path
  /// is one acquire load, which also publishes those blocks' plain writes
  /// to the caller.
  void AwaitTurn(int block_idx) {
    if (watermark_.load(std::memory_order_acquire) >= block_idx) return;
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] {
      return watermark_.load(std::memory_order_relaxed) >= block_idx;
    });
  }

  /// Marks block `block_idx` complete and advances the contiguous-prefix
  /// watermark. Release-publishes the block's writes to future waiters.
  void MarkDone(int block_idx) {
    std::lock_guard<std::mutex> lk(mu_);
    done_[block_idx] = 1;
    int w = watermark_.load(std::memory_order_relaxed);
    while (w < static_cast<int>(done_.size()) && done_[w] != 0) ++w;
    watermark_.store(w, std::memory_order_release);
    cv_.notify_all();
  }

 private:
  /// Number of contiguously completed blocks (== first not-done index).
  std::atomic<int> watermark_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> done_;
};

/// Process-wide persistent pool of host threads that executes one kernel
/// launch's grid at a time. Threads are created lazily up to the largest
/// worker count ever requested and parked on a condition variable between
/// launches; the calling thread participates as worker 0.
class BlockWorkers {
 public:
  static BlockWorkers& Instance();

  /// Runs `fn(worker, block)` for every block in [0, grid_dim): worker w
  /// executes blocks w, w+workers, ... in increasing order (required by
  /// LaunchOrder). Returns after all blocks complete. Launches from
  /// different host threads serialize on an internal mutex.
  void Run(int workers, int grid_dim,
           const std::function<void(int, int)>& fn);

  ~BlockWorkers();

 private:
  BlockWorkers() = default;
  void WorkerMain(int idx);
  void EnsureThreads(int count);  // pool threads, excluding the caller

  std::mutex launch_mu_;  // one launch at a time
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> threads_;
  const std::function<void(int, int)>* task_fn_ = nullptr;
  int task_workers_ = 0;
  int task_grid_ = 0;
  int pending_ = 0;
  uint64_t gen_ = 0;
  bool stop_ = false;
};

/// Resolves the default worker count for a new Device: the MPTOPK_WORKERS
/// environment variable, else min(hardware_concurrency, 8). Always >= 1.
int DefaultHostWorkers();

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_WORKERS_H_
