#include "engine_adapter.h"

#include "engine/query.h"
#include "engine/tweets.h"

namespace mptopk::perfbench {

const char* PlanName(Plan p) {
  switch (p) {
    case Plan::kSort:
      return "sort";
    case Plan::kBitonic:
      return "bitonic";
    case Plan::kFused:
      return "fused";
  }
  return "?";
}

double Q1TimeBound(double selectivity) {
  return selectivity * engine::kTweetTimeRange;
}

StatusOr<TweetAnswer> RunTweetQuery(engine::Table& table, const TweetQuery& q,
                                    const simt::ExecCtx& ctx, bool resilient) {
  engine::ExecOptions exec;
  exec.ctx = &ctx;
  exec.resilient = resilient;
  if (q.plan != Plan::kFused) {
    exec.topk_operator = q.plan == Plan::kSort ? "Sort" : "BitonicTopK";
  }
  TweetAnswer out;
  if (q.shape == 4) {
    MPTOPK_ASSIGN_OR_RETURN(
        auto r,
        engine::GroupByCountTopKQuery(table, "uid", q.k,
                                      engine::GroupByStrategy::kBitonic, exec));
    out.keys = std::move(r.keys);
    out.counts = std::move(r.counts);
    out.num_groups = r.num_groups;
    out.resilience_summary = std::move(r.resilience_summary);
    return out;
  }
  using engine::CompareOp;
  engine::Filter filter;
  engine::Ranking ranking{{{"retweet_count", 1.0}}};
  if (q.shape == 1) {
    filter = engine::Filter{
        {{"tweet_time", CompareOp::kLt, Q1TimeBound(q.selectivity)}}};
  } else if (q.shape == 2) {
    ranking = engine::Ranking{{{"retweet_count", 1.0}, {"likes_count", 0.5}}};
  } else {
    filter = engine::Filter{{{"lang", CompareOp::kEq, engine::kLangEn},
                             {"lang", CompareOp::kEq, engine::kLangEs}}};
  }
  const auto strategy = q.plan == Plan::kFused
                            ? engine::TopKStrategy::kCombinedBitonic
                            : engine::TopKStrategy::kFilterBitonic;
  MPTOPK_ASSIGN_OR_RETURN(
      auto r, engine::FilterTopKQuery(table, filter, ranking, "id", q.k,
                                      strategy, exec));
  out.ids = std::move(r.ids);
  out.ranks = std::move(r.rank_values);
  out.matched = r.matched_rows;
  out.resilience_summary = std::move(r.resilience_summary);
  return out;
}

}  // namespace mptopk::perfbench
