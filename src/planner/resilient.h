// Resilient top-k execution: planner-ranked algorithm choice with bounded
// retry, fallback and degradation — the layer that turns the library's
// errors-are-values contract into answers that survive device faults.
//
// ResilientTopK walks the cost-based ranked list from PlanTopK and applies,
// in order:
//
//   retry    — kUnavailable failures (transient transfer faults, aborted
//              launches) are retried on the same algorithm up to 3 times
//              with exponential backoff (0.25 ms, 0.5 ms, 1 ms), charged to
//              the device's simulated clock;
//   fallback — kResourceExhausted (and any other non-retryable failure)
//              moves on to the next-cheapest feasible algorithm;
//   degrade  — input that does not fit device memory (or exhausts it across
//              every algorithm) is streamed through gpu::ChunkedTopK; as the
//              last resort the computation runs on the CPU (cpu::CpuTopK).
//
// Every successful attempt passes an exhaustive result check against the
// input — exactly k items, descending, every item (key and payload) a
// distinct input element, and nothing in the input outranking the k-th item
// left out — and is re-executed once if the check fails (corrupted
// readback). The call returns the items plus an ExecutionReport describing
// exactly what happened; given the same fault-plan seed the decisions and
// reported latency are bit-for-bit deterministic. The whole call's device
// time is read off the device around it (simt/device.h). See
// docs/robustness.md.
#ifndef MPTOPK_PLANNER_RESILIENT_H_
#define MPTOPK_PLANNER_RESILIENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "cputopk/cpu_topk.h"
#include "gputopk/chunked.h"
#include "planner/plan_topk.h"

namespace mptopk::planner {

/// One execution attempt of one stage, in order.
struct AttemptRecord {
  std::string stage;            ///< "BitonicTopK", "ChunkedTopK", "cpu:HandPq"...
  StatusCode code = StatusCode::kOk;
  std::string detail;           ///< failure / corruption description
  double backoff_ms = 0.0;      ///< simulated backoff charged after this attempt
};

/// What ResilientTopK did to produce the answer.
struct ExecutionReport {
  std::vector<AttemptRecord> attempts;
  int faults_seen = 0;          ///< attempts that failed or verified corrupt
  int retries = 0;              ///< same-stage retries of retryable faults
  int fallbacks = 0;            ///< moves to the next stage in the chain
  int corruption_reruns = 0;    ///< re-executions after a failed invariant check
  bool degraded_to_chunked = false;
  bool used_cpu = false;
  std::string final_algorithm;  ///< stage that produced the returned result
  double backoff_ms = 0.0;      ///< total simulated backoff added
  /// Simulated device time consumed by failed attempts plus retry backoff —
  /// the latency added by faults. Exactly 0.0 on a fault-free run.
  double added_latency_ms = 0.0;

  /// One-line human-readable account, e.g.
  /// "BitonicTopK ok after 3 attempts (1 retry, 1 fallback, 0.75 ms backoff)".
  std::string Summary() const;
};

template <typename E>
struct ResilientResult {
  std::vector<E> items;  ///< the k greatest elements, descending
  ExecutionReport report;
};

/// Resilient top-k over device-resident data: planner-ranked GPU algorithms
/// with retry/fallback, then CPU fallback via an accounted device->host
/// readback. (No chunked degrade: the data already fits on the device.)
template <typename E>
StatusOr<ResilientResult<E>> ResilientTopKDevice(
    const simt::ExecCtx& dev, simt::DeviceBuffer<E>& data, size_t n, size_t k);

/// Resilient top-k over host data: stages the input (with retry), walks the
/// GPU chain, degrades to gpu::ChunkedTopK when the input does not fit (or
/// exhausts device memory everywhere), and finally runs on the CPU.
template <typename E>
StatusOr<ResilientResult<E>> ResilientTopK(const simt::ExecCtx& dev, const E* data,
                                           size_t n, size_t k);

}  // namespace mptopk::planner

#endif  // MPTOPK_PLANNER_RESILIENT_H_
