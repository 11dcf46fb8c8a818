// Reproduces the paper's MapD integration study (Figure 16 and the Section
// 6.8 text numbers) on the synthetic tweets table:
//
//   --query=1  Fig 16a: SELECT id WHERE tweet_time < X ORDER BY
//              retweet_count DESC LIMIT 50, selectivity swept 0..1.
//   --query=2  Fig 16b: SELECT id ORDER BY retweet_count + 0.5*likes_count
//              DESC LIMIT K (custom ranking), K swept.
//   --query=3  SELECT id WHERE lang='en' OR lang='es' ORDER BY
//              retweet_count DESC LIMIT K (~80% selectivity), K swept.
//   --query=4  SELECT uid, COUNT(*) GROUP BY uid ORDER BY count DESC
//              LIMIT 50 (57M-user analogue), sort vs bitonic.
//
// Expected: Filter+Bitonic beats Filter+Sort everywhere; the Combined
// (fused) kernel additionally removes the materialization round-trip
// (paper: ~30% kernel-time saving at selectivity 1).
#include "bench/bench_util.h"
#include "engine/batch.h"
#include "engine/query.h"
#include "engine/tweets.h"

namespace mptopk::bench {
namespace {

using engine::CompareOp;
using engine::Filter;
using engine::Ranking;
using engine::TopKStrategy;

// Simulated kernel ms of one filter + top-k query.
StatusOr<double> RunStrategy(engine::Table& table, const Filter& f,
                             const Ranking& r, size_t k, TopKStrategy s) {
  const simt::DeviceTimeTracker clock(*table.device());
  MPTOPK_RETURN_NOT_OK(
      engine::FilterTopKQuery(table, f, r, "id", k, s).status());
  return clock.ElapsedMs();
}

// The standing mix for --batch mode: Q1..Q4 shapes cycled to length n.
std::vector<engine::BatchQuery> MakeTweetQueryMix(int n) {
  const Ranking by_retweets{{{"retweet_count", 1.0}}};
  std::vector<engine::BatchQuery> qs;
  for (int i = 0; i < n; ++i) {
    engine::BatchQuery q;
    switch (i % 4) {
      case 0:
        q.label = "q1-time-filter";
        q.filter = Filter{{{"tweet_time", CompareOp::kLt,
                            0.5 * engine::kTweetTimeRange}}};
        q.ranking = by_retweets;
        q.k = 50;
        break;
      case 1:
        q.label = "q2-custom-rank";
        q.ranking = Ranking{{{"retweet_count", 1.0}, {"likes_count", 0.5}}};
        q.k = 64;
        break;
      case 2:
        q.label = "q3-lang-or";
        q.filter = Filter{{{"lang", CompareOp::kEq, engine::kLangEn},
                           {"lang", CompareOp::kEq, engine::kLangEs}}};
        q.ranking = by_retweets;
        q.k = 64;
        q.strategy = engine::TopKStrategy::kFilterBitonic;
        break;
      default:
        q.label = "q4-groupby-uid";
        q.kind = engine::BatchQuery::Kind::kGroupByCount;
        q.group_column = "uid";
        q.k = 50;
        break;
    }
    qs.push_back(std::move(q));
  }
  return qs;
}

// --batch=N: run N concurrent Q1..Q4 queries through engine::BatchExecutor.
int RunBatchMode(simt::Device& dev, engine::Table& table, int batch_n,
                 int streams, bool csv) {
  engine::BatchExecutor exec(table, streams);
  auto report_or = exec.Execute(MakeTweetQueryMix(batch_n));
  if (!report_or.ok()) return FailWith(report_or.status());
  const engine::BatchReport& rep = report_or.value();

  std::printf("# BatchExecutor: %d queries on %d streams (pooling %s)\n",
              batch_n, streams, dev.pooling_enabled() ? "on" : "off");
  TablePrinter t({"query", "stream", "start ms", "finish ms", "kernel ms",
                  "status"});
  for (const auto& item : rep.items) {
    t.AddRow({item.label, std::to_string(item.stream_id),
              MsCell(item.start_ms), MsCell(item.finish_ms),
              MsCell(item.kernel_ms),
              item.status.ok() ? "ok" : item.status.ToString()});
  }
  PrintTable(t, csv);
  std::printf("%s\n", rep.Summary().c_str());
  std::printf("footprint %.1f MiB | peak %zu bytes | q/s %.2f\n",
              rep.footprint_bytes / (1024.0 * 1024.0),
              rep.peak_allocated_bytes, rep.queries_per_sec);
  return rep.failed == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Flags flags;
  DefineCommonFlags(&flags, "20");
  flags.Define("query", "1", "paper query number 1..4");
  flags.Define("batch", "0",
               "run N concurrent Q1..Q4 queries through BatchExecutor "
               "instead of a figure sweep");
  flags.Define("streams", "4", "stream count for --batch mode");
  flags.Define("no_pool", "false",
               "disable allocator pooling (no-reuse baseline) in --batch");
  int exit_code = 0;
  if (!BenchInit(flags, argc, argv, &exit_code)) return exit_code;
  const size_t rows = size_t{1} << flags.GetInt("n_log2");
  const bool csv = flags.GetBool("csv");
  simt::Device dev;
  dev.set_trace_sample_target(
      static_cast<int>(flags.GetInt("trace_sample")));
  if (flags.GetBool("no_pool")) dev.set_pooling(false);
  auto table_or = engine::MakeTweetsTable(&dev, rows, flags.GetInt("seed"));
  if (!table_or.ok()) {
    return FailWith(table_or.status());
  }
  auto table = std::move(table_or).value();
  if (flags.GetInt("batch") > 0) {
    return RunBatchMode(dev, *table, static_cast<int>(flags.GetInt("batch")),
                        std::max(1, static_cast<int>(flags.GetInt("streams"))),
                        csv);
  }
  const int query = static_cast<int>(flags.GetInt("query"));
  const Ranking by_retweets{{{"retweet_count", 1.0}}};

  auto run_three = [&](const Filter& f, const Ranking& r, size_t k,
                       std::vector<std::string>* row) -> Status {
    for (TopKStrategy s : {TopKStrategy::kFilterSort,
                           TopKStrategy::kFilterBitonic,
                           TopKStrategy::kCombinedBitonic}) {
      MPTOPK_ASSIGN_OR_RETURN(double ms, RunStrategy(*table, f, r, k, s));
      row->push_back(MsCell(ms));
    }
    return Status::OK();
  };

  switch (query) {
    case 1: {
      std::printf("# Figure 16a (query 1): tweet_time filter, k=50, "
                  "selectivity sweep, %zu rows (simulated kernel ms)\n",
                  rows);
      TablePrinter t({"selectivity", "Filter+Sort", "Filter+Bitonic",
                      "Combined Bitonic"});
      for (int s10 = 0; s10 <= 10; ++s10) {
        Filter f{{{"tweet_time", CompareOp::kLt,
                   s10 / 10.0 * engine::kTweetTimeRange}}};
        std::vector<std::string> row{TablePrinter::Cell(s10 / 10.0, 1)};
        if (auto st = run_three(f, by_retweets, 50, &row); !st.ok()) {
          return FailWith(st);
        }
        t.AddRow(std::move(row));
      }
      PrintTable(t, csv);
      break;
    }
    case 2: {
      std::printf("# Figure 16b (query 2): ranking retweet_count + "
                  "0.5*likes_count, K sweep, %zu rows (simulated kernel "
                  "ms)\n", rows);
      Ranking rank{{{"retweet_count", 1.0}, {"likes_count", 0.5}}};
      TablePrinter t({"k", "Project+Sort", "Project+Bitonic",
                      "Combined Bitonic"});
      for (size_t k : PowersOfTwo(16, 512)) {
        std::vector<std::string> row{std::to_string(k)};
        if (auto st = run_three(Filter{}, rank, k, &row); !st.ok()) {
          return FailWith(st);
        }
        t.AddRow(std::move(row));
      }
      PrintTable(t, csv);
      break;
    }
    case 3: {
      std::printf("# Query 3: lang='en' OR lang='es' (~80%% selectivity), "
                  "K sweep, %zu rows (simulated kernel ms)\n", rows);
      Filter f{{{"lang", CompareOp::kEq, engine::kLangEn},
                {"lang", CompareOp::kEq, engine::kLangEs}}};
      TablePrinter t({"k", "Filter+Sort", "Filter+Bitonic",
                      "Combined Bitonic"});
      for (size_t k : PowersOfTwo(16, 512)) {
        std::vector<std::string> row{std::to_string(k)};
        if (auto st = run_three(f, by_retweets, k, &row); !st.ok()) {
          return FailWith(st);
        }
        t.AddRow(std::move(row));
      }
      PrintTable(t, csv);
      break;
    }
    case 4: {
      std::printf("# Query 4: GROUP BY uid ORDER BY COUNT(*) DESC LIMIT 50, "
                  "%zu rows (simulated ms; paper: bitonic cuts the sort "
                  "step ~86%%, total ~39%%)\n", rows);
      TablePrinter t({"strategy", "group-by ms", "top-k ms", "total ms"});
      for (auto s : {engine::GroupByStrategy::kSort,
                     engine::GroupByStrategy::kBitonic}) {
        const simt::DeviceTimeTracker clock(dev);
        auto r = engine::GroupByCountTopKQuery(*table, "uid", 50, s);
        if (!r.ok()) {
          return FailWith(r.status());
        }
        t.AddRow({s == engine::GroupByStrategy::kSort ? "Sort" : "Bitonic",
                  MsCell(r->groupby_ms),
                  MsCell(r->topk_ms),
                  MsCell(clock.ElapsedMs())});
      }
      PrintTable(t, csv);
      break;
    }
    default:
      std::fprintf(stderr, "--query must be 1..4\n");
      return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mptopk::bench

int main(int argc, char** argv) { return mptopk::bench::Main(argc, argv); }
