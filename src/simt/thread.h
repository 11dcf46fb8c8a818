// Per-thread execution context handed to kernel lane loops.
#ifndef MPTOPK_SIMT_THREAD_H_
#define MPTOPK_SIMT_THREAD_H_

#include <cstdint>

namespace mptopk::simt {

class BlockTracer;
class LaunchOrder;

/// Identity and tracing state of one simulated GPU thread. Kernels receive a
/// `Thread&` inside `Block::ForEachThread` and pass it to every traced memory
/// access so the tracer can attribute the access to the right warp lane and
/// SIMT instruction slot.
struct Thread {
  int tid = 0;   ///< Thread index within the block [0, block_dim).
  int lane = 0;  ///< Lane within the warp [0, 32).
  int warp = 0;  ///< Warp index within the block.

  // Tracing state (null when this block is not being traced).
  BlockTracer* tracer = nullptr;
  uint32_t global_seq = 0;
  uint32_t shared_seq = 0;

  // Parallel-launch state (null when the launch runs on one worker). Set, the
  // global spans execute atomics as real RMWs, and value-returning ones
  // turnstile on `order` for sequential-equivalent results (simt/workers.h).
  LaunchOrder* order = nullptr;
  int block_idx = 0;  ///< Block this thread currently belongs to.
};

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_THREAD_H_
