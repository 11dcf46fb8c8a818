// Tweet analytics: the paper's four MapD queries (Section 6.8) on the
// synthetic tweets table, comparing execution strategies.
//
//   $ ./tweet_analytics [--rows_log2=18]
//
// Shows how a GPU database integrates bitonic top-k: replacing the sort in
// ORDER BY ... LIMIT plans, and fusing the filter / ranking computation
// directly into the top-k kernel (Section 5).
#include <cstdio>

#include "common/flags.h"
#include "engine/query.h"
#include "engine/tweets.h"

using namespace mptopk;
using namespace mptopk::engine;

int main(int argc, char** argv) {
  Flags flags;
  flags.Define("rows_log2", "18", "log2 of the tweets-table row count");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    flags.PrintHelp(argv[0]);
    return 0;
  }
  const size_t rows = size_t{1} << flags.GetInt("rows_log2");

  simt::Device device;
  device.set_trace_sample_target(16);
  auto table_or = MakeTweetsTable(&device, rows);
  if (!table_or.ok()) {
    std::fprintf(stderr, "%s\n", table_or.status().ToString().c_str());
    return 1;
  }
  auto table = std::move(table_or).value();
  std::printf("tweets table: %zu rows, %zu columns\n\n", table->num_rows(),
              table->num_columns());

  auto show = [&](const char* sql, const Filter& f, const Ranking& r,
                  size_t k) {
    std::printf("%s\n", sql);
    for (auto strat : {TopKStrategy::kFilterSort, TopKStrategy::kFilterBitonic,
                       TopKStrategy::kCombinedBitonic}) {
      const simt::DeviceTimeTracker clock(device);
      auto res = FilterTopKQuery(*table, f, r, "id", k, strat);
      if (!res.ok()) {
        std::fprintf(stderr, "  %s: %s\n", StrategyName(strat),
                     res.status().ToString().c_str());
        continue;
      }
      std::printf("  %-22s %8.3f ms kernel (%zu rows matched)\n",
                  StrategyName(strat), clock.ElapsedMs(), res->matched_rows);
      if (strat == TopKStrategy::kCombinedBitonic) {
        std::printf("  top ids: ");
        for (size_t i = 0; i < std::min<size_t>(5, res->ids.size()); ++i) {
          std::printf("%lld(rank %.0f) ",
                      static_cast<long long>(res->ids[i]),
                      res->rank_values[i]);
        }
        std::printf("...\n");
      }
    }
    std::printf("\n");
  };

  // Query 1: top-50 most retweeted tweets in a time range (50% selectivity).
  show("Q1: SELECT id FROM tweets WHERE tweet_time < X "
       "ORDER BY retweet_count DESC LIMIT 50",
       Filter{{{"tweet_time", CompareOp::kLt, 0.5 * kTweetTimeRange}}},
       Ranking{{{"retweet_count", 1.0}}}, 50);

  // Query 2: custom ranking function.
  show("Q2: SELECT id FROM tweets "
       "ORDER BY retweet_count + 0.5 * likes_count DESC LIMIT 100",
       Filter{},
       Ranking{{{"retweet_count", 1.0}, {"likes_count", 0.5}}}, 100);

  // Query 3: language filter (~80% selectivity).
  show("Q3: SELECT id FROM tweets WHERE lang='en' OR lang='es' "
       "ORDER BY retweet_count DESC LIMIT 50",
       Filter{{{"lang", CompareOp::kEq, kLangEn},
               {"lang", CompareOp::kEq, kLangEs}}},
       Ranking{{{"retweet_count", 1.0}}}, 50);

  // Query 4: group-by count.
  std::printf("Q4: SELECT uid, COUNT(*) AS c FROM tweets GROUP BY uid "
              "ORDER BY c DESC LIMIT 50\n");
  for (auto strat : {GroupByStrategy::kSort, GroupByStrategy::kBitonic}) {
    const simt::DeviceTimeTracker clock(device);
    auto res = GroupByCountTopKQuery(*table, "uid", 50, strat);
    if (!res.ok()) {
      std::fprintf(stderr, "  %s\n", res.status().ToString().c_str());
      continue;
    }
    std::printf("  %-8s group-by %8.3f ms + top-k %8.3f ms = %8.3f ms "
                "(%zu groups)\n",
                strat == GroupByStrategy::kSort ? "Sort" : "Bitonic",
                res->groupby_ms, res->topk_ms, clock.ElapsedMs(),
                res->num_groups);
    if (strat == GroupByStrategy::kBitonic) {
      std::printf("  busiest users: ");
      for (size_t i = 0; i < std::min<size_t>(5, res->keys.size()); ++i) {
        std::printf("uid %d (%u tweets) ", res->keys[i], res->counts[i]);
      }
      std::printf("...\n");
    }
  }
  return 0;
}
