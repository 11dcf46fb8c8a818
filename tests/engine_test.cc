// Integration tests for the query engine: all three top-k strategies must
// produce identical answers to a host-side reference over the synthetic
// tweets data, and the fused strategies must reduce simulated time
// (paper Sections 5 / 6.8).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "engine/batch.h"
#include "engine/query.h"
#include "engine/tweets.h"

namespace mptopk::engine {
namespace {

constexpr size_t kRows = 1 << 16;

struct TweetsFixture {
  simt::Device dev;
  std::unique_ptr<Table> table;
  // Host copies for reference computation.
  std::vector<int64_t> id;
  std::vector<int32_t> tweet_time, retweet_count, likes_count, lang, uid;

  TweetsFixture() {
    auto t = MakeTweetsTable(&dev, kRows, 123);
    table = std::move(t).value();
    auto grab32 = [&](const char* name, std::vector<int32_t>* out) {
      const Column* c = table->GetColumn(name).value();
      out->assign(c->i32.host_data(), c->i32.host_data() + kRows);
    };
    const Column* idc = table->GetColumn("id").value();
    id.assign(idc->i64.host_data(), idc->i64.host_data() + kRows);
    grab32("tweet_time", &tweet_time);
    grab32("retweet_count", &retweet_count);
    grab32("likes_count", &likes_count);
    grab32("lang", &lang);
    grab32("uid", &uid);
  }

  // Host reference: rank values of the top-k matching rows, descending.
  std::vector<float> ReferenceRanks(const Filter& f, const Ranking& r,
                                    size_t k) const {
    auto clause_matches = [&](const FilterClause& c, size_t row) {
      double v = c.column == "tweet_time" ? tweet_time[row]
                 : c.column == "lang"     ? lang[row]
                 : c.column == "likes_count" ? likes_count[row]
                                             : retweet_count[row];
      switch (c.op) {
        case CompareOp::kLt: return v < c.value;
        case CompareOp::kLe: return v <= c.value;
        case CompareOp::kGt: return v > c.value;
        case CompareOp::kGe: return v >= c.value;
        case CompareOp::kEq: return v == c.value;
      }
      return false;
    };
    std::vector<float> ranks;
    for (size_t row = 0; row < kRows; ++row) {
      bool match = true;
      for (const auto& disjunction : f.all_of) {
        bool any = false;
        for (const auto& c : disjunction.any_of) {
          any |= clause_matches(c, row);
        }
        match &= any;
      }
      if (!match) continue;
      double v = 0;
      for (const auto& term : r.terms) {
        double cv = term.column == "retweet_count" ? retweet_count[row]
                    : term.column == "likes_count" ? likes_count[row]
                                                   : 0;
        v += term.coeff * cv;
      }
      ranks.push_back(static_cast<float>(v));
    }
    std::sort(ranks.begin(), ranks.end(), std::greater<float>());
    ranks.resize(std::min(ranks.size(), k));
    return ranks;
  }
};

TweetsFixture& Fixture() {
  static TweetsFixture* f = new TweetsFixture();
  return *f;
}

Ranking RetweetRanking() { return Ranking{{{"retweet_count", 1.0}}}; }

// --- Query 1: time-range filter + top-50 by retweets -------------------------

class Query1Test : public ::testing::TestWithParam<TopKStrategy> {};

TEST_P(Query1Test, MatchesReferenceAcrossSelectivities) {
  auto& fx = Fixture();
  for (double sel : {0.0, 0.1, 0.5, 1.0}) {
    Filter f{{{"tweet_time", CompareOp::kLt, sel * kTweetTimeRange}}};
    auto r = FilterTopKQuery(*fx.table, f, RetweetRanking(), "id", 50,
                             GetParam());
    ASSERT_TRUE(r.ok()) << r.status();
    auto expect = fx.ReferenceRanks(f, RetweetRanking(), 50);
    ASSERT_EQ(r->rank_values.size(), expect.size()) << "sel=" << sel;
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(r->rank_values[i], expect[i]) << "sel=" << sel << " i=" << i;
    }
    // Ids must correspond to rows achieving those rank values.
    for (size_t i = 0; i < r->ids.size(); ++i) {
      size_t row = static_cast<size_t>(r->ids[i] - 1'000'000'000);
      ASSERT_LT(row, kRows);
      EXPECT_EQ(static_cast<float>(fx.retweet_count[row]),
                r->rank_values[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, Query1Test,
                         ::testing::Values(TopKStrategy::kFilterSort,
                                           TopKStrategy::kFilterBitonic,
                                           TopKStrategy::kCombinedBitonic),
                         [](const auto& info) {
                           std::string n = StrategyName(info.param);
                           std::string out;
                           for (char c : n) {
                             if (isalnum(static_cast<unsigned char>(c))) {
                               out += c;
                             }
                           }
                           return out;
                         });

// --- Query 2: custom ranking function ----------------------------------------

TEST(Query2Test, RankingFunctionAllStrategiesAgree) {
  auto& fx = Fixture();
  Ranking rank{{{"retweet_count", 1.0}, {"likes_count", 0.5}}};
  auto expect = fx.ReferenceRanks(Filter{}, rank, 64);
  for (auto strat : {TopKStrategy::kFilterSort, TopKStrategy::kFilterBitonic,
                     TopKStrategy::kCombinedBitonic}) {
    auto r = FilterTopKQuery(*fx.table, Filter{}, rank, "id", 64, strat);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->rank_values.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(r->rank_values[i], expect[i])
          << StrategyName(strat) << " i=" << i;
    }
  }
}

// --- Query 3: disjunctive language filter -------------------------------------

TEST(Query3Test, LangFilterSelectivityAbout80Percent) {
  auto& fx = Fixture();
  Filter f{{{"lang", CompareOp::kEq, kLangEn},
            {"lang", CompareOp::kEq, kLangEs}}};
  auto r = FilterTopKQuery(*fx.table, f, RetweetRanking(), "id", 32,
                           TopKStrategy::kCombinedBitonic);
  ASSERT_TRUE(r.ok()) << r.status();
  double sel = static_cast<double>(r->matched_rows) / kRows;
  EXPECT_NEAR(sel, 0.8, 0.02);
  auto expect = fx.ReferenceRanks(f, RetweetRanking(), 32);
  ASSERT_EQ(r->rank_values.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(r->rank_values[i], expect[i]);
  }
}

// --- CNF filters (extension beyond the paper's query shapes) -------------------

TEST(CnfFilterTest, ConjunctionOfDisjunctions) {
  auto& fx = Fixture();
  // (tweet_time < 0.5*range) AND (lang='en' OR lang='es')
  Filter f{{"tweet_time", CompareOp::kLt, 0.5 * kTweetTimeRange}};
  f.And({{"lang", CompareOp::kEq, kLangEn},
         {"lang", CompareOp::kEq, kLangEs}});
  auto expect = fx.ReferenceRanks(f, RetweetRanking(), 32);
  for (auto strat : {TopKStrategy::kFilterSort, TopKStrategy::kFilterBitonic,
                     TopKStrategy::kCombinedBitonic}) {
    auto r = FilterTopKQuery(*fx.table, f, RetweetRanking(), "id", 32, strat);
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_EQ(r->rank_values.size(), expect.size()) << StrategyName(strat);
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(r->rank_values[i], expect[i])
          << StrategyName(strat) << " i=" << i;
    }
    // Selectivity ~ 0.5 * 0.8.
    double sel = static_cast<double>(r->matched_rows) / kRows;
    EXPECT_NEAR(sel, 0.4, 0.03);
  }
}

TEST(OddRowCountTest, PartialTilesAllStrategies) {
  // A prime row count exercises the partial-tile paths of the filter and
  // the fused buffer-filler (ranges not multiples of nt or tile).
  simt::Device dev;
  auto table = std::move(MakeTweetsTable(&dev, 10007, 9).value());
  Ranking rank{{{"retweet_count", 1.0}}};
  const Column* rc = table->GetColumn("retweet_count").value();
  std::vector<int32_t> host(rc->i32.host_data(), rc->i32.host_data() + 10007);
  std::sort(host.begin(), host.end(), std::greater<int32_t>());
  for (auto strat : {TopKStrategy::kFilterSort, TopKStrategy::kFilterBitonic,
                     TopKStrategy::kCombinedBitonic}) {
    auto r = FilterTopKQuery(*table, Filter{}, rank, "id", 25, strat);
    ASSERT_TRUE(r.ok()) << StrategyName(strat) << ": " << r.status();
    EXPECT_EQ(r->matched_rows, 10007u);
    ASSERT_EQ(r->rank_values.size(), 25u) << StrategyName(strat);
    for (size_t i = 0; i < 25; ++i) {
      EXPECT_EQ(r->rank_values[i], static_cast<float>(host[i]))
          << StrategyName(strat) << " i=" << i;
    }
  }
}

TEST(OddRowCountTest, KExceedsMatches) {
  simt::Device dev;
  auto table = std::move(MakeTweetsTable(&dev, 5000, 10).value());
  Ranking rank{{{"retweet_count", 1.0}}};
  // A very selective filter: huge retweet counts only.
  Filter f{{{"retweet_count", CompareOp::kGt, 1e5}}};
  for (auto strat : {TopKStrategy::kFilterSort, TopKStrategy::kFilterBitonic,
                     TopKStrategy::kCombinedBitonic}) {
    auto r = FilterTopKQuery(*table, f, rank, "id", 100, strat);
    ASSERT_TRUE(r.ok()) << StrategyName(strat) << ": " << r.status();
    EXPECT_LT(r->matched_rows, 100u) << "filter should be very selective";
    EXPECT_EQ(r->rank_values.size(), r->matched_rows) << StrategyName(strat);
    for (float v : r->rank_values) {
      EXPECT_GT(v, 1e5f);
    }
  }
}

TEST(CnfFilterTest, EmptyDisjunctionRejected) {
  auto& fx = Fixture();
  Filter f;
  f.all_of.push_back(Disjunction{});
  EXPECT_FALSE(FilterTopKQuery(*fx.table, f, RetweetRanking(), "id", 8,
                               TopKStrategy::kFilterSort)
                   .ok());
}

// --- Query 4: group-by count top-k ---------------------------------------------

class Query4Test : public ::testing::TestWithParam<GroupByStrategy> {};

TEST_P(Query4Test, TopUsersByTweetCount) {
  auto& fx = Fixture();
  auto r = GroupByCountTopKQuery(*fx.table, "uid", 50, GetParam());
  ASSERT_TRUE(r.ok()) << r.status();

  std::map<int32_t, uint32_t> ref;
  for (int32_t u : fx.uid) ref[u]++;
  std::vector<uint32_t> counts;
  for (auto& [u, c] : ref) counts.push_back(c);
  std::sort(counts.begin(), counts.end(), std::greater<uint32_t>());
  counts.resize(50);

  EXPECT_EQ(r->num_groups, ref.size());
  ASSERT_EQ(r->counts.size(), 50u);
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(r->counts[i], counts[i]) << "rank " << i;
    EXPECT_EQ(ref[r->keys[i]], r->counts[i]) << "key/count mismatch " << i;
  }
  EXPECT_GT(r->groupby_ms, 0);
  EXPECT_GT(r->topk_ms, 0);
}

// A negative group key is rejected before anything runs: cast to uint32_t,
// -1 equals the hash table's empty-slot marker, and the query used to drop
// the -1 group and hand its rows to another key ({-1,-1,-1,15,3,3} returned
// (15,4) (3,2) instead of (-1,3) (3,2) (15,1)).
TEST_P(Query4Test, NegativeGroupKeyRejected) {
  for (const std::vector<int32_t>& col :
       {std::vector<int32_t>{-1, -1, -1, 15, 3, 3},
        std::vector<int32_t>{7, -5, 7, 2, -5, -5, 9}}) {
    simt::Device dev;
    Table table(&dev);
    ASSERT_TRUE(table.AddColumnI32("g", col).ok());
    const size_t launches = dev.kernel_log().size();
    const size_t allocated = dev.allocated_bytes();
    auto r = GroupByCountTopKQuery(table, "g", 3, GetParam());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(dev.kernel_log().size(), launches);
    EXPECT_EQ(dev.allocated_bytes(), allocated);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, Query4Test,
                         ::testing::Values(GroupByStrategy::kSort,
                                           GroupByStrategy::kBitonic),
                         [](const auto& info) {
                           return info.param == GroupByStrategy::kSort
                                      ? "Sort"
                                      : "Bitonic";
                         });

// --- Performance shape (paper Figure 16) ---------------------------------------

TEST(EnginePerfTest, BitonicBeatsSortAndFusionBeatsBitonic) {
  auto& fx = Fixture();
  Filter f{{{"tweet_time", CompareOp::kLt, 1.0 * kTweetTimeRange}}};
  double t_sort, t_bitonic, t_fused;
  {
    const simt::DeviceTimeTracker clock(fx.dev);
    auto r = FilterTopKQuery(*fx.table, f, RetweetRanking(), "id", 50,
                             TopKStrategy::kFilterSort);
    ASSERT_TRUE(r.ok());
    t_sort = clock.ElapsedMs();
  }
  {
    const simt::DeviceTimeTracker clock(fx.dev);
    auto r = FilterTopKQuery(*fx.table, f, RetweetRanking(), "id", 50,
                             TopKStrategy::kFilterBitonic);
    ASSERT_TRUE(r.ok());
    t_bitonic = clock.ElapsedMs();
  }
  {
    const simt::DeviceTimeTracker clock(fx.dev);
    auto r = FilterTopKQuery(*fx.table, f, RetweetRanking(), "id", 50,
                             TopKStrategy::kCombinedBitonic);
    ASSERT_TRUE(r.ok());
    t_fused = clock.ElapsedMs();
  }
  EXPECT_LT(t_bitonic, t_sort);
  EXPECT_LT(t_fused, t_bitonic);
}

TEST(EnginePerfTest, GroupByBitonicReducesTopKStep) {
  auto& fx = Fixture();
  auto sort = GroupByCountTopKQuery(*fx.table, "uid", 50,
                                    GroupByStrategy::kSort);
  auto bitonic = GroupByCountTopKQuery(*fx.table, "uid", 50,
                                       GroupByStrategy::kBitonic);
  ASSERT_TRUE(sort.ok());
  ASSERT_TRUE(bitonic.ok());
  EXPECT_LT(bitonic->topk_ms, sort->topk_ms);
}

// --- Error handling ---------------------------------------------------------------

TEST(EngineErrorsTest, BadColumns) {
  auto& fx = Fixture();
  Filter bad{{{"nope", CompareOp::kLt, 1.0}}};
  EXPECT_FALSE(FilterTopKQuery(*fx.table, bad, RetweetRanking(), "id", 10,
                               TopKStrategy::kFilterSort)
                   .ok());
  EXPECT_FALSE(FilterTopKQuery(*fx.table, Filter{}, Ranking{}, "id", 10,
                               TopKStrategy::kFilterSort)
                   .ok());
  EXPECT_FALSE(FilterTopKQuery(*fx.table, Filter{}, RetweetRanking(),
                               "tweet_time", 10, TopKStrategy::kFilterSort)
                   .ok());
  EXPECT_FALSE(
      GroupByCountTopKQuery(*fx.table, "id", 10, GroupByStrategy::kSort)
          .ok());
}

// A table may have no rows (every column added empty). Each kernel's tile
// partition then gets one empty block instead of a zero grid, so every query
// shape answers with an empty result.
std::unique_ptr<Table> EmptyTweetsTable(simt::Device* dev) {
  auto t = std::make_unique<Table>(dev);
  EXPECT_TRUE(t->AddColumnI64("id", {}).ok());
  for (const char* name :
       {"tweet_time", "retweet_count", "likes_count", "lang", "uid"}) {
    EXPECT_TRUE(t->AddColumnI32(name, {}).ok());
  }
  EXPECT_EQ(t->num_rows(), 0u);
  return t;
}

TEST(EngineEmptyTableTest, EveryQueryShapeAnswersEmpty) {
  simt::Device dev;
  auto table = EmptyTweetsTable(&dev);
  const Filter f{{{"tweet_time", CompareOp::kLt, 0.5 * kTweetTimeRange}}};
  for (bool resilient : {false, true}) {
    ExecOptions exec;
    exec.resilient = resilient;
    for (TopKStrategy s :
         {TopKStrategy::kFilterSort, TopKStrategy::kFilterBitonic,
          TopKStrategy::kCombinedBitonic}) {
      auto r = FilterTopKQuery(*table, f, RetweetRanking(), "id", 10, s, exec);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->matched_rows, 0u);
      EXPECT_TRUE(r->ids.empty());
      EXPECT_TRUE(r->rank_values.empty());
    }
    for (GroupByStrategy s :
         {GroupByStrategy::kSort, GroupByStrategy::kBitonic}) {
      auto r = GroupByCountTopKQuery(*table, "uid", 10, s, exec);
      ASSERT_TRUE(r.ok()) << r.status();
      EXPECT_EQ(r->num_groups, 0u);
      EXPECT_TRUE(r->keys.empty());
    }
  }
}

TEST(EngineEmptyTableTest, BatchAnswersEmpty) {
  simt::Device dev;
  auto table = EmptyTweetsTable(&dev);
  std::vector<BatchQuery> batch(3);
  batch[0].ranking = RetweetRanking();
  batch[1].ranking = RetweetRanking();
  batch[1].strategy = TopKStrategy::kFilterSort;
  batch[2].kind = BatchQuery::Kind::kGroupByCount;
  batch[2].group_column = "uid";
  BatchExecutor exec(*table, /*num_streams=*/2);
  auto rep = exec.Execute(batch);
  ASSERT_TRUE(rep.ok()) << rep.status();
  EXPECT_EQ(rep->failed, 0u);
  ASSERT_EQ(rep->items.size(), batch.size());
  for (const BatchItemReport& item : rep->items) {
    ASSERT_TRUE(item.status.ok()) << item.status;
    EXPECT_EQ(item.result.matched_rows, 0u);
    EXPECT_TRUE(item.result.ids.empty());
    EXPECT_EQ(item.group_result.num_groups, 0u);
  }
}

TEST(TableTest, SchemaValidation) {
  simt::Device dev;
  Table t(&dev);
  ASSERT_TRUE(t.AddColumnI32("a", {1, 2, 3}).ok());
  EXPECT_FALSE(t.AddColumnI32("a", {1, 2, 3}).ok());  // duplicate
  EXPECT_FALSE(t.AddColumnI32("b", {1, 2}).ok());     // row mismatch
  ASSERT_TRUE(t.AddColumnF32("c", {1.f, 2.f, 3.f}).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_TRUE(t.HasColumn("a"));
  EXPECT_FALSE(t.GetColumn("zzz").ok());
}

}  // namespace
}  // namespace mptopk::engine
