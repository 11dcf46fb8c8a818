// operators_exact: each GPU top-k operator called through the registry on
// seeded f32 arrays, uniform and increasing, k in {32, 256}, with every
// block traced (the Device default). No engine: a tracer or operator change
// moves this workload, an engine change does not.
#include <algorithm>
#include <random>

#include "bench.h"
#include "common/distributions.h"
#include "oracle.h"
#include "planner/plan_topk.h"

namespace mptopk::perfbench {
namespace {

// n is 2^16 less a seeded multiple of 256 (at most 1792), so every seed has
// its own simulated times even where an operator's cost ignores the data.
constexpr size_t kMaxN = size_t{1} << 16;
constexpr size_t kNStep = 256;
constexpr int kInstances = 5;
constexpr uint64_t kCallOrderSeed = 20180610;
constexpr size_t kKs[] = {32, 256};
constexpr Distribution kDists[] = {Distribution::kUniform,
                                   Distribution::kIncreasing};
constexpr int kTraceTarget = 0;
constexpr int kSetupReps = 15;
constexpr int kPlanReps = 50;

struct Input {
  Distribution dist;
  std::vector<float> data;
  std::map<size_t, std::vector<uint32_t>> expected;  ///< by k, lazily

  const std::vector<uint32_t>& Expected(size_t k) {
    auto it = expected.find(k);
    if (it == expected.end()) {
      it = expected.emplace(k, TopKOrderedBits(data, k)).first;
    }
    return it->second;
  }
};

struct Call {
  size_t input;
  size_t k;
  const topk::TopKOperator* op;
};

size_t InputSize(uint64_t seed) { return kMaxN - kNStep * (seed % 8); }

std::vector<Input> MakeInputs(uint64_t seed) {
  std::vector<Input> inputs;
  for (Distribution d : kDists) {
    for (int i = 0; i < kInstances; ++i) {
      const uint64_t s = seed * 1000003ull + static_cast<uint64_t>(i) * 31 +
                         static_cast<uint64_t>(d);
      inputs.push_back({d, GenerateFloats(InputSize(seed), d, s), {}});
    }
  }
  return inputs;
}

}  // namespace

Outcome RunOperators(const Options& opts) {
  Outcome out;
  auto fail = [&out](const Status& st) {
    out.correct = false;
    out.error = st.ToString();
    return out;
  };

  // Set-up: generate the input arrays (TopKHost stages them per call).
  std::vector<Input> inputs;
  auto setup = [&opts](std::vector<Input>* out) {
    const double t0 = ProcessCpuMs();
    *out = MakeInputs(opts.seed);
    return (ProcessCpuMs() - t0) * 1e-3;
  };
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) setup_s.push_back(setup(&inputs));
  auto setup_again = [&setup]() {
    std::vector<Input> scratch;
    return setup(&scratch);
  };

  simt::Device dev;
  dev.set_host_workers(opts.workers);
  dev.set_trace_sample_target(kTraceTarget);

  std::vector<Call> calls;
  for (size_t in = 0; in < inputs.size(); ++in) {
    for (size_t k : kKs) {
      for (const char* name : kGpuOperators) {
        auto op = topk::FindOperator(name);
        if (!op.ok()) return fail(op.status());
        calls.push_back({in, k, op.value()});
      }
    }
  }
  std::mt19937_64 rng(kCallOrderSeed);
  std::shuffle(calls.begin(), calls.end(), rng);

  std::vector<std::vector<float>> results(calls.size());
  std::vector<Query> queries;
  for (size_t i = 0; i < calls.size(); ++i) {
    Query q;
    q.label = calls[i].op->name();
    q.call = "topk::FindOperator(" + q.label + ")->TopKHost";
    q.run = [&, i](const simt::ExecCtx& ctx) -> Status {
      const Call& c = calls[i];
      const std::vector<float>& data = inputs[c.input].data;
      MPTOPK_ASSIGN_OR_RETURN(
          auto r, c.op->TopKHost(ctx, data.data(), data.size(), c.k));
      results[i] = std::move(r.items);
      return Status::OK();
    };
    q.check = [&, i](Fingerprint* fp) {
      for (float v : results[i]) fp->Add(static_cast<double>(v));
      return CheckTopK(inputs[calls[i].input].Expected(calls[i].k), results[i]);
    };
    queries.push_back(std::move(q));
  }

  Runner runner(dev, /*streams=*/1, nullptr);
  const size_t n = InputSize(opts.seed);
  out.meta = {{"n", std::to_string(n)},
              {"queries_per_pass", std::to_string(calls.size())},
              {"streams", "1"},
              {"trace_sample_target", std::to_string(kTraceTarget)},
              {"fault_rate", "0"}};

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

  const std::string no_engine = "no engine on this workload";
  for (const char* name :
       {"engine.scan.sim_ms", "engine.topk.sim_ms", "engine.groupby.sim_ms",
        "engine.gather.sim_ms", "engine.pcie.sim_ms",
        "engine.backoff.sim_ms"}) {
    m->NotMeasured(name, "ms", no_engine);
  }
  m->NotMeasured("engine.kernels_per_query", "count", no_engine);
  m->NotMeasured("engine.overlap", "x", no_engine);
  for (int shape = 1; shape <= 4; ++shape) {
    for (const char* plan : {"sort", "bitonic", "fused"}) {
      if (shape == 4 && std::string(plan) == "fused") continue;
      m->NotMeasured("engine.q" + std::to_string(shape) + "." + plan +
                         ".host_ms",
                     "ms", no_engine);
    }
  }

  // topk: simulated kernel ms (input staging excluded) and host ms per
  // operator; sim ms per (input, k) for the planner's regret.
  std::map<std::string, std::vector<double>> op_sim;
  std::map<std::pair<size_t, size_t>, std::map<std::string, double>> sim_at;
  for (size_t i = 0; i < calls.size(); ++i) {
    if (!t.full.queries[i].ok()) continue;
    const double ms = KernelMs(t.full, t.full.queries[i]);
    op_sim[calls[i].op->name()].push_back(ms);
    sim_at[{calls[i].input, calls[i].k}][calls[i].op->name()] = ms;
  }
  const auto host = HostMsByLabel(t.full, queries);
  for (const char* op : kGpuOperators) {
    m->Set("topk." + std::string(op) + ".sim_ms", Mean(op_sim[op]), "ms");
    auto it = host.find(op);
    m->Set("topk." + std::string(op) + ".host_ms",
           it == host.end() ? 0.0 : Median(it->second), "ms");
  }

  {
    Input& in = inputs.front();
    Status st = AddCpuOperatorMetrics(dev, in.data, kKs[1], in.Expected(kKs[1]),
                                      &t.spans, m);
    if (!st.ok() && out.error.empty()) out.error = st.ToString();
  }

  AddSimtMetrics(t, m);

  // planner: PlanTopK per (input, k), against the simulated ms of the
  // operators it ranks.
  std::vector<double> plan_us, pred_over_sim, regret;
  const int probe = t.spans.Begin("planner-probe", 0);
  for (const auto& [key, sims] : sim_at) {
    cost::Workload w;
    w.n = n;
    w.k = key.second;
    w.elem_size = sizeof(float);
    w.key_size = sizeof(uint32_t);
    w.dist = inputs[key.first].dist;
    const int s = t.spans.Begin("planner::PlanTopK", probe);
    const double t0 = ProcessCpuMs();
    StatusOr<planner::Plan> p = Status::Internal("not planned");
    for (int r = 0; r < kPlanReps; ++r) p = planner::PlanTopK(dev.spec(), w);
    plan_us.push_back((ProcessCpuMs() - t0) * 1e3 / kPlanReps);
    t.spans.End(s);
    if (!p.ok()) continue;
    auto best = sims.find(p->best->name());
    if (best == sims.end() || best->second <= 0) continue;
    pred_over_sim.push_back(p->ranked.front().predicted_ms / best->second);
    double lowest = best->second;
    for (const planner::OperatorEstimate& e : p->ranked) {
      auto it = sims.find(e.op->name());
      if (it != sims.end()) lowest = std::min(lowest, it->second);
    }
    regret.push_back(best->second / lowest);
  }
  t.spans.End(probe);
  m->Set("planner.plan_us", Mean(plan_us), "us");
  m->Set("planner.pred_over_sim", Mean(pred_over_sim), "x");
  m->Set("planner.regret", Mean(regret), "x");
  ResilienceNotMeasured("no faults on this workload", m);

  out.correct = out.error.empty();
  out.meta.push_back({"sim_fingerprint", JsonString(SimFingerprint(t.full))});
  out.meta.push_back({"spans", JsonString(WriteSpans(t, opts))});
  out.meta.push_back({"span_count", std::to_string(t.spans.size())});
  out.meta.push_back({"not_measured", m->ReasonsJson()});
  return out;
}

}  // namespace mptopk::perfbench
