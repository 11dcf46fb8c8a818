// tweets_mix and tweets_faults: the paper's Q1-Q4 over a synthetic tweets
// table, from host rows to returned ids (Section 6.8, Figure 16).
#include <algorithm>
#include <limits>
#include <random>

#include "bench.h"
#include "engine/tweets.h"
#include "engine_adapter.h"
#include "oracle.h"
#include "planner/plan_topk.h"

namespace mptopk::perfbench {
namespace {

constexpr size_t kRows = size_t{1} << 15;
constexpr int kStreams = 4;
constexpr int kTraceTarget = 32;
constexpr double kFaultRate = 0.02;
constexpr int kSetupReps = 15;
constexpr int kPlanReps = 50;
constexpr size_t kCpuK = 64;
constexpr uint64_t kListOrderSeed = 20180610;
// The fault plan is fixed like the query list: with the workload seed
// choosing which transfers fail, sim_qps varied by 16% between seeds, since
// the makespan moves with which stream a retry's backoff lands on.
constexpr uint64_t kFaultSeed = 20180611;
constexpr size_t kKs[] = {16, 32, 64, 128, 256, 512};
constexpr Plan kPlans[] = {Plan::kSort, Plan::kBitonic, Plan::kFused};

// The fixed list of 120 queries: Q1 at 12 selectivities evenly spread over
// [0.05, 1.0] with k = 50, Q2 and Q3 twice over k = 16..512, each under
// every plan, and Q4 over k = 16..512 under sort and bitonic, interleaved by
// a fixed permutation. The workload seed changes the table, not the list,
// so every seed runs the same mix.
std::vector<TweetQuery> MakeQueryList() {
  std::vector<TweetQuery> list;
  constexpr int kSteps = 12;
  for (int s = 0; s < kSteps; ++s) {
    const double sel = 0.05 + 0.95 * (s + 0.5) / kSteps;
    for (Plan p : kPlans) list.push_back({1, p, sel, 50});
  }
  for (int shape : {2, 3}) {
    for (int rep = 0; rep < 2; ++rep) {
      for (size_t k : kKs) {
        for (Plan p : kPlans) list.push_back({shape, p, 1.0, k});
      }
    }
  }
  for (size_t k : kKs) {
    for (Plan p : {Plan::kSort, Plan::kBitonic}) list.push_back({4, p, 1.0, k});
  }
  std::mt19937_64 rng(kListOrderSeed);
  std::shuffle(list.begin(), list.end(), rng);
  return list;
}

// The table's buffers release into the device, so the table goes first.
struct Tables {
  std::unique_ptr<simt::Device> dev;
  std::unique_ptr<engine::Table> table;
  void Reset() {
    table.reset();
    dev.reset();
  }
};

// Set-up: generate the tweets table and stage it on a fresh device.
// Returns the host CPU seconds it took.
StatusOr<double> BuildTables(const Options& opts, Tables* t) {
  t->Reset();
  const double t0 = ProcessCpuMs();
  t->dev = std::make_unique<simt::Device>();
  t->dev->set_host_workers(opts.workers);
  t->dev->set_trace_sample_target(kTraceTarget);
  MPTOPK_ASSIGN_OR_RETURN(
      t->table, engine::MakeTweetsTable(t->dev.get(), kRows, opts.seed));
  return (ProcessCpuMs() - t0) * 1e-3;
}

std::string Label(const TweetQuery& q) {
  return "q" + std::to_string(q.shape) + "." + PlanName(q.plan);
}

// The top-k operator a query's top-k step ran: the plan's operator, or under
// resilience the operator the planner's report names ("" for the fused
// reduction or when the step did not run).
std::string OperatorOf(const TweetQuery& q, const std::string& summary,
                       bool resilient) {
  if (resilient) return summary.substr(0, summary.find(' '));
  if (q.plan == Plan::kFused) return "";
  return q.plan == Plan::kSort ? "Sort" : "BitonicTopK";
}

// Counts of the resilient executor's one-line report, e.g. "BitonicTopK
// after 3 attempts (1 retry, 1 fallback, 0.75 ms backoff)".
struct ResilienceCounts {
  int retries = 0;
  int fallbacks = 0;
  int corruption_reruns = 0;
  bool cpu = false;
};

ResilienceCounts ParseSummary(const std::string& s) {
  ResilienceCounts c;
  const size_t open = s.find('(');
  if (open == std::string::npos) return c;
  size_t pos = open + 1;
  while (pos < s.size()) {
    size_t end = s.find(", ", pos);
    if (end == std::string::npos) end = s.find(')', pos);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(pos, end - pos);
    const int num = std::atoi(item.c_str());
    if (item.find("retr") != std::string::npos) c.retries = num;
    if (item.find("fallback") != std::string::npos) c.fallbacks = num;
    if (item.find("corruption") != std::string::npos) c.corruption_reruns = num;
    if (item.find("ran on CPU") != std::string::npos) c.cpu = true;
    pos = end + 2;
  }
  return c;
}

// Splits each query's simulated span into engine phases by kernel name and
// order: Q4 kernels up to the group compaction are group-by; otherwise the
// filter kernels are the scan, gather_ids the id gather, the rest top-k.
void AddEnginePhaseMetrics(const Pass& a, const std::vector<TweetQuery>& list,
                           Metrics* m) {
  double scan = 0, topk = 0, groupby = 0, gather = 0, pcie = 0, backoff = 0;
  double span_sum = 0;
  uint64_t launches = 0;
  for (size_t i = 0; i < a.queries.size(); ++i) {
    const QueryRecord& r = a.queries[i];
    bool in_groupby = list[i].shape == 4;
    for (size_t j = r.log_begin; j < r.log_end; ++j) {
      const simt::KernelStats& k = a.log[j];
      ++launches;
      if (in_groupby) {
        groupby += k.time.total_ms;
        if (k.name == "groupby_compact") in_groupby = false;
      } else if (k.name == "filter_project" || k.name == "fused_filter_topk") {
        scan += k.time.total_ms;
      } else if (k.name == "gather_ids") {
        gather += k.time.total_ms;
      } else {
        topk += k.time.total_ms;
      }
    }
    pcie += r.pcie_ms;
    backoff += r.backoff_ms;
    span_sum += r.sim_ms();
  }
  const double n = static_cast<double>(a.queries.size());
  m->Set("engine.scan.sim_ms", scan / n, "ms");
  m->Set("engine.topk.sim_ms", topk / n, "ms");
  m->Set("engine.groupby.sim_ms", groupby / n, "ms");
  m->Set("engine.gather.sim_ms", gather / n, "ms");
  m->Set("engine.pcie.sim_ms", pcie / n, "ms");
  m->Set("engine.backoff.sim_ms", backoff / n, "ms");
  m->Set("engine.kernels_per_query", static_cast<double>(launches) / n,
         "count");
  m->Set("engine.overlap", span_sum / a.makespan_ms, "x");
}

// Top-k phase of query i (its kernels that are neither scan, group-by nor
// gather), for per-operator attribution.
double TopKPhaseMs(const Pass& a, size_t i, const TweetQuery& q) {
  const QueryRecord& r = a.queries[i];
  double ms = 0;
  bool in_groupby = q.shape == 4;
  for (size_t j = r.log_begin; j < r.log_end; ++j) {
    const simt::KernelStats& k = a.log[j];
    if (in_groupby) {
      if (k.name == "groupby_compact") in_groupby = false;
      continue;
    }
    if (k.name != "filter_project" && k.name != "fused_filter_topk" &&
        k.name != "gather_ids") {
      ms += k.time.total_ms;
    }
  }
  return ms;
}

}  // namespace

Outcome RunTweets(const Options& opts, bool faults) {
  Outcome out;
  auto fail = [&out](const Status& st) {
    out.correct = false;
    out.error = st.ToString();
    return out;
  };
  Tables tables;
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    auto s = BuildTables(opts, &tables);
    if (!s.ok()) return fail(s.status());
    setup_s.push_back(s.value());
  }
  auto setup_again = [&opts]() {
    Tables scratch;
    auto s = BuildTables(opts, &scratch);
    return s.ok() ? s.value() : std::numeric_limits<double>::infinity();
  };
  auto oracle_or = TweetOracle::Make(*tables.table);
  if (!oracle_or.ok()) return fail(oracle_or.status());
  TweetOracle oracle = std::move(oracle_or).value();

  const std::vector<TweetQuery> list = MakeQueryList();
  std::vector<TweetAnswer> answers(list.size());
  std::vector<Query> queries;
  for (size_t i = 0; i < list.size(); ++i) {
    Query q;
    q.label = Label(list[i]);
    q.call = list[i].shape == 4 ? "engine::GroupByCountTopKQuery"
                                : "engine::FilterTopKQuery";
    q.run = [&, i](const simt::ExecCtx& ctx) -> Status {
      auto r = RunTweetQuery(*tables.table, list[i], ctx, faults);
      if (!r.ok()) return r.status();
      answers[i] = std::move(r).value();
      return Status::OK();
    };
    q.check = [&, i](Fingerprint* fp) {
      return oracle.Check(list[i], answers[i], fp);
    };
    queries.push_back(std::move(q));
  }

  std::shared_ptr<simt::FaultPlan> plan;
  if (faults) {
    simt::FaultPlanConfig cfg;
    cfg.seed = kFaultSeed;
    cfg.transient_transfer_prob = kFaultRate;
    plan = std::make_shared<simt::FaultPlan>(cfg);
  }
  Runner runner(*tables.dev, kStreams, plan);
  out.meta = {{"rows", std::to_string(kRows)},
              {"queries_per_pass", std::to_string(list.size())},
              {"streams", std::to_string(kStreams)},
              {"trace_sample_target", std::to_string(kTraceTarget)},
              {"fault_rate", faults ? std::to_string(kFaultRate) : "0"}};

  if (!opts.trace) {
    EndToEnd e = RunUntraced(runner, queries, opts.seconds,
                             std::move(setup_s), setup_again);
    AddEndToEndMetrics(e, &out.metrics);
    out.attempted = e.attempted;
    out.failed = e.failed;
    out.correct = e.error.empty();
    out.error = e.error;
    AddRunMeta(e, &out.meta);
    return out;
  }

  Traced t = RunTraced(runner, queries, opts, kTraceTarget);
  out.attempted = t.full.queries.size();
  out.failed = t.full.failed();
  out.error = t.error;
  Metrics* m = &out.metrics;
  const size_t n = list.size();

  // engine: phases, overlap and host ms per query shape and plan.
  AddEnginePhaseMetrics(t.full, list, m);
  const auto host = HostMsByLabel(t.full, queries);
  for (int shape = 1; shape <= 4; ++shape) {
    for (Plan p : kPlans) {
      if (shape == 4 && p == Plan::kFused) continue;
      const std::string label = Label({shape, p, 1.0, 0});
      auto it = host.find(label);
      m->Set("engine." + label + ".host_ms",
             it == host.end() ? 0.0 : Median(it->second), "ms");
    }
  }

  // topk: simulated top-k phase per operator that ran it.
  std::vector<std::string> summaries(n);
  for (size_t i = 0; i < n; ++i) {
    if (t.full.queries[i].ok()) summaries[i] = answers[i].resilience_summary;
  }
  std::map<std::string, std::vector<double>> op_sim;
  for (size_t i = 0; i < n; ++i) {
    if (!t.full.queries[i].ok()) continue;
    const std::string op = OperatorOf(list[i], summaries[i], faults);
    if (!op.empty()) op_sim[op].push_back(TopKPhaseMs(t.full, i, list[i]));
  }
  for (const char* op : kGpuOperators) {
    auto it = op_sim.find(op);
    if (it == op_sim.end()) {
      m->NotMeasured("topk." + std::string(op) + ".sim_ms", "ms",
                     "not run on this workload");
    } else {
      m->Set("topk." + std::string(op) + ".sim_ms", Mean(it->second), "ms");
    }
    m->NotMeasured("topk." + std::string(op) + ".host_ms", "ms",
                   "runs inside the engine call; measured on operators_exact");
  }

  // cputopk: the CPU fallback's operators on every row's Q2 rank.
  {
    const TweetQuery q2{2, Plan::kSort, 1.0, kCpuK};
    std::vector<KV> kv(oracle.rows());
    std::vector<float> ranks(oracle.rows());
    for (size_t row = 0; row < kv.size(); ++row) {
      ranks[row] = oracle.Rank(q2, row);
      kv[row] = KV{ranks[row], static_cast<uint32_t>(row)};
    }
    Status st = AddCpuOperatorMetrics(*tables.dev, kv, kCpuK,
                                      TopKOrderedBits(ranks, kCpuK), &t.spans,
                                      m);
    if (!st.ok() && out.error.empty()) out.error = st.ToString();
  }

  AddSimtMetrics(t, m);

  // planner: only the resilient path plans, so only tweets_faults has it.
  if (!faults) {
    const std::string why = "resilience is off; the plan fixes the operator";
    m->NotMeasured("planner.plan_us", "us", why);
    m->NotMeasured("planner.pred_over_sim", "x", why);
    m->NotMeasured("planner.regret", "x", why);
    ResilienceNotMeasured(why, m);
  } else {
    // PlanTopK as the engine calls it for each answered materialized or
    // group-by top-k step, timed outside the queries.
    std::vector<double> plan_us, pred_over_sim;
    const int probe = t.spans.Begin("planner-probe", 0);
    for (size_t i = 0; i < n; ++i) {
      if (!t.full.queries[i].ok() || summaries[i].empty()) continue;
      const TweetAnswer& a = answers[i];
      const size_t rows = list[i].shape == 4 ? a.num_groups : a.matched;
      cost::Workload w;
      w.n = rows;
      w.k = std::min(list[i].k, rows);
      w.elem_size = sizeof(KV);
      w.key_size = sizeof(uint32_t);
      w.concurrent_streams = kStreams;
      const int s = t.spans.Begin("planner::PlanTopK", probe);
      const double t0 = ProcessCpuMs();
      StatusOr<planner::Plan> p = Status::Internal("not planned");
      for (int r = 0; r < kPlanReps; ++r) {
        p = planner::PlanTopK(tables.dev->spec(), w);
      }
      plan_us.push_back((ProcessCpuMs() - t0) * 1e3 / kPlanReps);
      t.spans.End(s);
      if (!p.ok() || p->ranked.empty()) continue;
      const double sim = TopKPhaseMs(t.full, i, list[i]);
      if (t.full.queries[i].transfer_faults == 0 && sim > 0 &&
          p->best->name() == OperatorOf(list[i], summaries[i], true)) {
        pred_over_sim.push_back(p->ranked.front().predicted_ms / sim);
      }
    }
    t.spans.End(probe);
    m->Set("planner.plan_us", Mean(plan_us), "us");
    m->Set("planner.pred_over_sim", Mean(pred_over_sim), "x");
    m->NotMeasured("planner.regret", "x",
                   "needs every ranked operator on the engine's intermediate "
                   "input; measured on operators_exact");

    double retries = 0, fallbacks = 0, cpu = 0, reruns = 0, backoff = 0;
    size_t faulted = 0, recovered = 0;
    for (size_t i = 0; i < n; ++i) {
      const ResilienceCounts c = ParseSummary(summaries[i]);
      retries += c.retries;
      fallbacks += c.fallbacks;
      reruns += c.corruption_reruns;
      cpu += c.cpu ? 1 : 0;
      backoff += t.full.queries[i].backoff_ms;
      if (t.full.queries[i].transfer_faults > 0) {
        ++faulted;
        recovered += t.full.queries[i].ok() ? 1 : 0;
      }
    }
    const double dn = static_cast<double>(n);
    m->Set("planner.resilient.retries", retries / dn, "count");
    m->Set("planner.resilient.fallbacks", fallbacks / dn, "count");
    m->Set("planner.resilient.cpu_fallbacks", cpu / dn, "count");
    m->Set("planner.resilient.corruption_reruns", reruns / dn, "count");
    m->Set("planner.resilient.backoff_ms", backoff / dn, "ms");
    // Added latency: the same prefix with the fault plan removed.
    runner.set_faults(false);
    Pass clean = runner.RunPass(queries, t.prefix, false, nullptr, "no-faults");
    runner.set_faults(true);
    std::vector<double> added;
    for (size_t i = 0; i < t.prefix; ++i) {
      if (t.full.queries[i].ok()) {
        added.push_back(t.full.queries[i].sim_ms() - clean.queries[i].sim_ms());
      }
    }
    m->Set("planner.resilient.added_latency_ms", Mean(added), "ms");
    if (faulted == 0) {
      m->NotMeasured("planner.resilient.recovered_frac", "frac",
                     "no query saw a fault under this seed");
    } else {
      m->Set("planner.resilient.recovered_frac",
             static_cast<double>(recovered) / static_cast<double>(faulted),
             "frac");
    }
  }

  out.correct = out.error.empty();
  out.meta.push_back({"sim_fingerprint", JsonString(SimFingerprint(t.full))});
  out.meta.push_back({"spans", JsonString(WriteSpans(t, opts))});
  out.meta.push_back({"span_count", std::to_string(t.spans.size())});
  out.meta.push_back({"not_measured", m->ReasonsJson()});
  out.meta.push_back(
      {"missing", "{\"engine.fused.useful_frac\": \"the engine does not "
                  "report how many candidates the fused kernel emitted\"}"});
  return out;
}

}  // namespace mptopk::perfbench
