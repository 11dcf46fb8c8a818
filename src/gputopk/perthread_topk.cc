// Per-thread top-k implementation (paper Algorithm 1 + Appendix A).
#include "gputopk/perthread_topk.h"

#include <algorithm>
#include <string>

#include "common/bits.h"
#include "gputopk/kernel_util.h"

namespace mptopk::gpu {
namespace {

using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::SharedSpan;
using simt::Thread;

// Min-heap of size k for one thread, interleaved in shared memory: slot j of
// thread t lives at heap[j * nt + t] so that uniform heap traffic across a
// warp is bank-conflict-free.
template <typename E>
class SharedHeap {
 public:
  SharedHeap(SharedSpan<E> mem, int nt, size_t k, int dep_latency)
      : mem_(mem), nt_(nt), k_(k), dep_latency_(dep_latency) {}

  /// Each sift level loads two children whose addresses depend on the
  /// previous comparison -- a latency-bound dependent chain the bandwidth
  /// model cannot see (the paper's "thread divergence" cost, Section 4.1).
  void ChargeLevel(Thread& t) const {
    if (t.tracer != nullptr) {
      t.tracer->RecordDependentCycles(2 * dep_latency_);
    }
  }

  E Slot(Thread& t, size_t j) const { return mem_.Read(t, j * nt_ + t.tid); }
  void SetSlot(Thread& t, size_t j, const E& v) const {
    mem_.Write(t, j * nt_ + t.tid, v);
  }

  void FillSentinel(Thread& t) const {
    const E s = ElementTraits<E>::LowestSentinel();
    for (size_t j = 0; j < k_; ++j) SetSlot(t, j, s);
  }

  E Min(Thread& t) const { return Slot(t, 0); }

  /// Replaces the minimum with x and restores the heap property (sift-down).
  void ReplaceMin(Thread& t, const E& x) const {
    size_t j = 0;
    while (true) {
      size_t c = 2 * j + 1;
      if (c >= k_) break;
      ChargeLevel(t);
      E child = Slot(t, c);
      if (c + 1 < k_) {
        E right = Slot(t, c + 1);
        if (ElementTraits<E>::Less(right, child)) {
          child = right;
          ++c;
        }
      }
      if (!ElementTraits<E>::Less(child, x)) break;
      SetSlot(t, j, child);
      j = c;
    }
    SetSlot(t, j, x);
  }

  /// Pops the minimum (replaces the root with the last slot and shrinks).
  /// Used only by the single-threaded final extraction.
  E PopMin(Thread& t, size_t* size) const {
    E top = Slot(t, 0);
    E last = Slot(t, *size - 1);
    --*size;
    // Sift last down within the shrunken heap.
    size_t j = 0;
    while (true) {
      size_t c = 2 * j + 1;
      if (c >= *size) break;
      ChargeLevel(t);
      E child = Slot(t, c);
      if (c + 1 < *size) {
        E right = Slot(t, c + 1);
        if (ElementTraits<E>::Less(right, child)) {
          child = right;
          ++c;
        }
      }
      if (!ElementTraits<E>::Less(child, last)) break;
      SetSlot(t, j, child);
      j = c;
    }
    if (*size > 0) SetSlot(t, j, last);
    return top;
  }

 private:
  SharedSpan<E> mem_;
  int nt_;
  size_t k_;
  int dep_latency_;
};

// Main pass: NT = grid*nt threads each reduce a strided slice of in[0, m) to
// a k-heap, then write the heaps out coalesced: out[gtid + j*NT].
template <typename E>
Status LaunchHeapPass(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m,
                      GlobalSpan<E> out, size_t k, int grid, int nt) {
  const size_t total_threads = static_cast<size_t>(grid) * nt;
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = nt, .name = "perthread_heap"},
      [&](Block& blk) {
        auto mem = blk.AllocShared<E>(k * nt);
        SharedHeap<E> heap(mem, nt, k,
                           blk.spec().dependent_access_latency_cycles);
        blk.ForEachThread([&](Thread& t) { heap.FillSentinel(t); });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          size_t gtid = static_cast<size_t>(blk.block_idx()) * nt + t.tid;
          for (size_t i = gtid; i < m; i += total_threads) {
            E x = in.Read(t, i);
            if (ElementTraits<E>::Less(heap.Min(t), x)) {
              heap.ReplaceMin(t, x);
            }
          }
        });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          size_t gtid = static_cast<size_t>(blk.block_idx()) * nt + t.tid;
          for (size_t j = 0; j < k; ++j) {
            out.Write(t, gtid + j * total_threads, heap.Slot(t, j));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Registers available per thread before spilling to local memory (Appendix A
// model; roughly the occupancy-neutral budget).
constexpr size_t kRegisterBudget = 64;

// Appendix A register variant: unordered buffer + cached (minIndex,
// minValue); every insert rewrites one slot and rescans all k. Buffer slots
// beyond the register budget live in "local memory" (billed bytes).
template <typename E>
Status LaunchRegisterPass(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m,
                          GlobalSpan<E> out, size_t k, int grid, int nt) {
  const size_t total_threads = static_cast<size_t>(grid) * nt;
  const int declared_regs =
      static_cast<int>(std::min<size_t>(255, k + 8));
  const size_t spill_start = kRegisterBudget - 8;
  auto st = dev.Launch(
      {.grid_dim = grid, .block_dim = nt,
       .regs_per_thread = declared_regs, .name = "perthread_registers"},
      [&](Block& blk) {
        E* buf = blk.ThreadScratch<E>(k);
        blk.ForEachThread([&](Thread& t) {
          E* mine = buf + static_cast<size_t>(t.tid) * k;
          auto access = [&](size_t j) {
            if (j >= spill_start) blk.RecordLocalTraffic(sizeof(E));
          };
          const E sentinel = ElementTraits<E>::LowestSentinel();
          for (size_t j = 0; j < k; ++j) {
            mine[j] = sentinel;
            access(j);
          }
          size_t min_index = 0;
          E min_value = sentinel;
          size_t gtid = static_cast<size_t>(blk.block_idx()) * nt + t.tid;
          // The rescan's running-min comparison is a loop-carried dependence
          // chain of k short (register-latency) steps -- the O(k) insert
          // overhead Appendix A describes.
          constexpr int kRegisterStepCycles = 6;
          for (size_t i = gtid; i < m; i += total_threads) {
            E x = in.Read(t, i);
            if (!ElementTraits<E>::Less(min_value, x)) continue;
            mine[min_index] = x;
            access(min_index);
            if (t.tracer != nullptr) {
              t.tracer->RecordDependentCycles(kRegisterStepCycles * k);
            }
            // Rescan for the new minimum (paper Appendix A loop).
            min_index = 0;
            min_value = mine[0];
            access(0);
            for (size_t j = 1; j < k; ++j) {
              access(j);
              if (ElementTraits<E>::Less(mine[j], min_value)) {
                min_index = j;
                min_value = mine[j];
              }
            }
          }
          for (size_t j = 0; j < k; ++j) {
            access(j);
            out.Write(t, gtid + j * total_threads, mine[j]);
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Final single-block pass: ft threads heap-reduce in[0, m); thread 0 then
// absorbs the other threads' heaps and extracts the k results in descending
// order (divergence cost of the serial tail is counted, and is negligible
// against the main passes).
template <typename E>
Status LaunchFinal(const simt::ExecCtx& dev, GlobalSpan<E> in, size_t m,
                   GlobalSpan<E> out_k, size_t k, int ft) {
  auto st = dev.Launch(
      {.grid_dim = 1, .block_dim = ft, .name = "perthread_final"},
      [&](Block& blk) {
        auto mem = blk.AllocShared<E>(k * ft);
        SharedHeap<E> heap(mem, ft, k,
                           blk.spec().dependent_access_latency_cycles);
        blk.ForEachThread([&](Thread& t) { heap.FillSentinel(t); });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = t.tid; i < m; i += ft) {
            E x = in.Read(t, i);
            if (ElementTraits<E>::Less(heap.Min(t), x)) {
              heap.ReplaceMin(t, x);
            }
          }
        });
        blk.Sync();
        blk.ForEachThread([&](Thread& t) {
          if (t.tid != 0) return;
          // Absorb the other threads' heap slots into thread 0's heap.
          for (int other = 1; other < ft; ++other) {
            for (size_t j = 0; j < k; ++j) {
              E x = mem.Read(t, j * ft + other);
              if (ElementTraits<E>::Less(heap.Min(t), x)) {
                heap.ReplaceMin(t, x);
              }
            }
          }
          // Extract ascending, emit descending.
          size_t size = k;
          for (size_t i = 0; i < k; ++i) {
            out_k.Write(t, k - 1 - i, heap.PopMin(t, &size));
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

}  // namespace

StatusOr<PerThreadPlan> PlanPerThreadPasses(const simt::DeviceSpec& spec,
                                            size_t elem_bytes, size_t n,
                                            size_t k, bool use_registers) {
  PerThreadPlan plan;
  // Block size: largest power of two <= 256 whose heaps fit shared memory.
  while (plan.nt >= 32 &&
         k * elem_bytes * plan.nt > spec.shared_mem_per_block) {
    plan.nt >>= 1;
  }
  if (!use_registers && plan.nt < 32) {
    return Status::ResourceExhausted(
        "per-thread top-k: k=" + std::to_string(k) + " needs " +
        std::to_string(k * elem_bytes * 32) +
        " B shared per 32-thread block, exceeding the 48 KiB limit "
        "(paper Section 4.1)");
  }
  if (use_registers) plan.nt = 256;

  // Final single-block pass thread count.
  while (plan.ft >= 1 &&
         k * elem_bytes * plan.ft > spec.shared_mem_per_block) {
    plan.ft >>= 1;
  }
  if (plan.ft < 1) {
    return Status::ResourceExhausted(
        "per-thread top-k: even a single k-heap exceeds shared memory");
  }

  // Each pass aims at 16k inputs per thread on a grid bounded by the
  // device's resident threads, and stops when it would not reduce the data.
  const int max_threads = spec.num_sms * spec.max_threads_per_sm;
  plan.final_threshold =
      std::max<size_t>(static_cast<size_t>(plan.ft) * k * 2, 4096);
  size_t m = n;
  while (m > plan.final_threshold) {
    size_t want_threads = m / (16 * k);
    int grid = static_cast<int>(
        std::clamp<size_t>(CeilDiv(want_threads, plan.nt), 1,
                           static_cast<size_t>(max_threads / plan.nt)));
    size_t nt_total = static_cast<size_t>(grid) * plan.nt;
    if (nt_total * k >= m) break;
    plan.grids.push_back(grid);
    m = nt_total * k;
  }
  return plan;
}

template <typename E>
StatusOr<TopKResult<E>> PerThreadTopKDevice(const simt::ExecCtx& dev,
                                            DeviceBuffer<E>& data, size_t n,
                                            size_t k,
                                            const PerThreadOptions& opts) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  MPTOPK_ASSIGN_OR_RETURN(
      const PerThreadPlan plan,
      PlanPerThreadPasses(dev.spec(), sizeof(E), n, k, opts.use_registers));

  MPTOPK_ASSIGN_OR_RETURN(auto out_k, dev.Alloc<E>(k));
  GlobalSpan<E> out(out_k);

  // The passes ping-pong between two buffers of the first pass's output
  // size.
  DeviceBuffer<E> buf_a, buf_b;
  if (!plan.grids.empty()) {
    const size_t first_out = static_cast<size_t>(plan.grids[0]) * plan.nt * k;
    MPTOPK_ASSIGN_OR_RETURN(buf_a, dev.Alloc<E>(first_out));
    MPTOPK_ASSIGN_OR_RETURN(buf_b, dev.Alloc<E>(first_out));
  }
  GlobalSpan<E> cur(data);
  GlobalSpan<E> dst(buf_a), spare(buf_b);
  size_t m = n;
  for (const int grid : plan.grids) {
    Status st = opts.use_registers
                    ? LaunchRegisterPass(dev, cur, m, dst, k, grid, plan.nt)
                    : LaunchHeapPass(dev, cur, m, dst, k, grid, plan.nt);
    MPTOPK_RETURN_NOT_OK(st);
    cur = dst;
    std::swap(dst, spare);
    m = static_cast<size_t>(grid) * plan.nt * k;
  }
  MPTOPK_RETURN_NOT_OK(LaunchFinal(dev, cur, m, out, k, plan.ft));
  return ReadTopK(dev, out_k, k);
}

template <typename E>
StatusOr<TopKResult<E>> PerThreadTopK(const simt::ExecCtx& dev, const E* data,
                                      size_t n, size_t k,
                                      const PerThreadOptions& opts) {
  MPTOPK_ASSIGN_OR_RETURN(auto buf, dev.Alloc<E>(n));
  MPTOPK_RETURN_NOT_OK(dev.CopyToDevice(buf, data, n));
  return PerThreadTopKDevice(dev, buf, n, k, opts);
}

#define MPTOPK_INSTANTIATE_PERTHREAD(E, ...)                                \
  template StatusOr<TopKResult<E>> PerThreadTopKDevice<E>(                  \
      const simt::ExecCtx&, DeviceBuffer<E>&, size_t, size_t,               \
      const PerThreadOptions&);                                             \
  template StatusOr<TopKResult<E>> PerThreadTopK<E>(                        \
      const simt::ExecCtx&, const E*, size_t, size_t, const PerThreadOptions&);
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_INSTANTIATE_PERTHREAD)
#undef MPTOPK_INSTANTIATE_PERTHREAD

}  // namespace mptopk::gpu
