// Cost-based top-k operator selection — the query-optimizer use case the
// paper motivates in its conclusion ("allowing a query optimizer to choose
// the best top-k implementation for a particular query") and lists as future
// work ("hybrid and adaptive solutions").
//
// PlanTopK ranks the registered operators (topk/registry.h) by their
// OperatorCaps cost hooks (the Section 7 models) under the given workload.
// Infeasible operators (per-thread heaps beyond shared memory, bitonic
// beyond k = tile/2) price themselves out with a negative cost; operators
// without a cost hook (CPU backends, the streaming executor) don't compete.
// A newly registered operator with a cost hook joins the ranking with no
// planner edits.
#ifndef MPTOPK_PLANNER_PLAN_TOPK_H_
#define MPTOPK_PLANNER_PLAN_TOPK_H_

#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "topk/registry.h"

namespace mptopk::planner {

struct OperatorEstimate {
  const topk::TopKOperator* op = nullptr;
  double predicted_ms = 0.0;
};

struct Plan {
  /// The chosen (cheapest feasible) operator.
  const topk::TopKOperator* best = nullptr;
  /// All feasible operators, cheapest first.
  std::vector<OperatorEstimate> ranked;
};

/// Ranks the registered operators by predicted cost for the workload. By
/// default only the paper's core algorithms compete (reproducing its planner
/// study); with include_extensions the sampling-based hybrid (Section 8
/// future work) joins, and typically wins on distributions its pivot can
/// discriminate.
StatusOr<Plan> PlanTopK(const simt::DeviceSpec& spec,
                        const cost::Workload& workload,
                        bool include_extensions = false);

/// The cost-model workload of a top-k over n elements of type E on `dev`.
template <typename E>
cost::Workload MakeWorkload(const simt::ExecCtx& dev, size_t n, size_t k,
                            Distribution hint) {
  cost::Workload w;
  w.n = n;
  w.k = k;
  w.elem_size = sizeof(E);
  w.key_size = sizeof(KeyBits<E>);
  w.dist = hint;
  w.concurrent_streams = dev.concurrency_hint();
  return w;
}

/// Convenience: plan, then run the chosen operator on device data.
template <typename E>
StatusOr<gpu::TopKResult<E>> PlannedTopKDevice(const simt::ExecCtx& dev,
                                               simt::DeviceBuffer<E>& data,
                                               size_t n, size_t k,
                                               Distribution hint =
                                                   Distribution::kUniform) {
  MPTOPK_ASSIGN_OR_RETURN(
      Plan plan, PlanTopK(dev.spec(), MakeWorkload<E>(dev, n, k, hint)));
  return plan.best->TopKDevice(dev, data, n, k);
}

}  // namespace mptopk::planner

#endif  // MPTOPK_PLANNER_PLAN_TOPK_H_
