// The one place the benchmark names engine strategy enums. A plan is either
// "materialize, then a registry operator" or "fused"; Q4 is "group-by, then
// a registry operator". Operators are chosen by registry name through
// ExecOptions::topk_operator, so removing engine strategies touches only
// this adapter.
#ifndef MPTOPK_PERFBENCH_ENGINE_ADAPTER_H_
#define MPTOPK_PERFBENCH_ENGINE_ADAPTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"
#include "simt/exec_ctx.h"

namespace mptopk::perfbench {

enum class Plan { kSort, kBitonic, kFused };

/// "sort", "bitonic" or "fused".
const char* PlanName(Plan p);

/// One of the paper's tweet queries (Section 6.8):
///   Q1  WHERE tweet_time < X ORDER BY retweet_count DESC LIMIT k
///   Q2  ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT k
///   Q3  WHERE lang = en OR lang = es ORDER BY retweet_count DESC LIMIT k
///   Q4  SELECT uid, COUNT(*) GROUP BY uid ORDER BY COUNT(*) DESC LIMIT k
struct TweetQuery {
  int shape = 1;
  Plan plan = Plan::kSort;
  double selectivity = 1.0;  ///< Q1 only
  size_t k = 50;
};

/// Q1's tweet_time bound for a selectivity.
double Q1TimeBound(double selectivity);

struct TweetAnswer {
  // Q1-Q3.
  std::vector<int64_t> ids;
  std::vector<float> ranks;
  size_t matched = 0;
  // Q4.
  std::vector<int32_t> keys;
  std::vector<uint32_t> counts;
  size_t num_groups = 0;
  /// The resilient top-k step's one-line report (empty when it did not run).
  std::string resilience_summary;
};

/// Runs `q` through engine::FilterTopKQuery / engine::GroupByCountTopKQuery
/// on `ctx`. With `resilient`, the planner picks the operator and faults in
/// the top-k step are retried or fallen back.
StatusOr<TweetAnswer> RunTweetQuery(engine::Table& table, const TweetQuery& q,
                                    const simt::ExecCtx& ctx, bool resilient);

}  // namespace mptopk::perfbench

#endif  // MPTOPK_PERFBENCH_ENGINE_ADAPTER_H_
