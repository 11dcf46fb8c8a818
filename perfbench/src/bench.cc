#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

namespace mptopk::perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double CpuMs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

double ProcessCpuMs() { return CpuMs(CLOCK_PROCESS_CPUTIME_ID); }

double ReferenceMs() {
  constexpr size_t kWords = size_t{1} << 21;  // 16 MiB
  constexpr size_t kSteps = size_t{1} << 18;
  static std::vector<uint64_t> table(kWords, 1);
  const double t0 = CpuMs(CLOCK_THREAD_CPUTIME_ID);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[i] += table[x & (kWords - 1)] ^ x;
  }
  const double ms = CpuMs(CLOCK_THREAD_CPUTIME_ID) - t0;
  // Keeps the loop observable so it cannot be optimised away.
  if (table[x & (kWords - 1)] == 0) std::fputc('\0', stderr);
  return ms;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// --- Metrics -----------------------------------------------------------------

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;
  entries_.push_back({name, value, unit});
}

void Metrics::NotMeasured(const std::string& name, const std::string& unit,
                          const std::string& reason) {
  Set(name, 0.0, unit);
  reasons_.emplace_back(name, reason);
}

std::string Metrics::ToJson() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", entries_[i].value);
    os << (i ? ", " : "") << JsonString(entries_[i].name)
       << ": {\"value\": " << num
       << ", \"unit\": " << JsonString(entries_[i].unit) << "}";
  }
  os << "}";
  return os.str();
}

std::string Metrics::ReasonsJson() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < reasons_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(reasons_[i].first) << ": "
       << JsonString(reasons_[i].second);
  }
  os << "}";
  return os.str();
}

// --- Fingerprint / JSON helpers ---------------------------------------------

void Fingerprint::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

void Fingerprint::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  Add(static_cast<uint64_t>(s.size()));
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// --- Spans -------------------------------------------------------------------

double Spans::HostUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0_)
      .count();
}

int Spans::Begin(const std::string& name, int parent) {
  const int id = static_cast<int>(events_.size()) + 1;
  events_.push_back({name, id, parent, 1, 0, HostUs(), 0.0, ""});
  return id;
}

void Spans::End(int id) {
  Event& e = events_[static_cast<size_t>(id - 1)];
  e.dur_us = HostUs() - e.ts_us;
}

void Spans::AddSim(const std::string& name, int parent, int stream,
                   double start_ms, double end_ms,
                   const std::string& args_json) {
  const int id = static_cast<int>(events_.size()) + 1;
  events_.push_back({name, id, parent, 2, stream, start_ms * 1e3,
                     (end_ms - start_ms) * 1e3, args_json});
}

Status Spans::Write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return Status::Internal("cannot write " + path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": "
       "{\"name\": \"host clock\"}},\n";
  f << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"args\": "
       "{\"name\": \"simulated device clock (tid = stream)\"}}";
  for (const Event& e : events_) {
    char nums[160];
    std::snprintf(nums, sizeof(nums),
                  "\"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                  e.pid, e.tid, e.ts_us, e.dur_us);
    f << ",\n{\"name\": " << JsonString(e.name) << ", \"ph\": \"X\", " << nums
      << ", \"args\": {\"id\": " << e.id << ", \"parent\": " << e.parent
      << (e.args.empty() ? "" : ", ") << e.args << "}}";
  }
  f << "\n]}\n";
  return f ? Status::OK() : Status::Internal("short write to " + path);
}

// --- Runner ------------------------------------------------------------------

const char* const kTermNames[5] = {"global", "shared", "atomic", "dependent",
                                   "overhead"};
const char* const kGpuOperators[6] = {"Sort",         "PerThreadTopK",
                                      "RadixSelect",  "BucketSelect",
                                      "BitonicTopK",  "HybridTopK"};
const char* const kCpuOperators[3] = {"StlPq", "HandPq", "Bitonic"};

std::string SimFingerprint(const Pass& p) {
  Fingerprint fp;
  fp.Add(p.fingerprint);
  fp.Add(static_cast<uint64_t>(p.peak_bytes));
  return Hex(fp.value());
}

double KernelMs(const Pass& p, const QueryRecord& r) {
  double ms = 0.0;
  for (size_t j = r.log_begin; j < r.log_end && j < p.log.size(); ++j) {
    ms += p.log[j].time.total_ms;
  }
  return ms;
}

std::map<std::string, std::vector<double>> HostMsByLabel(
    const Pass& p, const std::vector<Query>& queries) {
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < p.queries.size(); ++i) {
    out[queries[i].label].push_back(p.queries[i].host_ms);
  }
  return out;
}

int BindingTerm(const simt::KernelTime& t) {
  const double terms[5] = {t.global_ms, t.shared_ms, t.atomic_ms,
                           t.dependent_ms, t.overhead_ms};
  return static_cast<int>(std::max_element(terms, terms + 5) - terms);
}

void KernelTotals::Add(const simt::KernelStats& k) {
  const double terms[5] = {k.time.global_ms, k.time.shared_ms,
                           k.time.atomic_ms, k.time.dependent_ms,
                           k.time.overhead_ms};
  for (int i = 0; i < 5; ++i) term_ms[i] += terms[i];
  total_ms += k.time.total_ms;
  util_ms += k.time.occupancy.sm_utilization * k.time.total_ms;
  ++bound[BindingTerm(k.time)];
  ++launches;
  blocks_launched += k.metrics.blocks_launched;
  blocks_traced += k.metrics.blocks_traced;
  global_bytes += k.metrics.global_bytes;
  global_useful_bytes += k.metrics.global_useful_bytes;
  shared_cycles += k.metrics.shared_cycles;
  bank_conflict_cycles += k.metrics.bank_conflict_cycles;
  warp_instructions += k.metrics.warp_instructions;
  divergent_lane_slots += k.metrics.divergent_lane_slots;
}

namespace {

void HashKernel(const simt::KernelStats& k, Fingerprint* fp) {
  fp->Add(k.name);
  fp->Add(static_cast<uint64_t>(k.stream_id));
  fp->Add(k.start_ms);
  fp->Add(k.end_ms);
  for (double v : {k.time.global_ms, k.time.shared_ms, k.time.atomic_ms,
                   k.time.dependent_ms, k.time.overhead_ms, k.time.total_ms,
                   k.time.occupancy.sm_utilization}) {
    fp->Add(v);
  }
  const simt::KernelMetrics& m = k.metrics;
  for (uint64_t v :
       {m.global_transactions, m.global_bytes, m.global_useful_bytes,
        m.local_bytes, m.shared_cycles, m.shared_bytes, m.shared_useful_bytes,
        m.bank_conflict_cycles, m.shared_atomic_cycles, m.global_atomics,
        m.dependent_stall_cycles, m.warp_instructions, m.divergent_lane_slots,
        m.blocks_traced, m.blocks_launched}) {
    fp->Add(v);
  }
  fp->Add(static_cast<uint64_t>(k.resources.grid_dim));
  fp->Add(static_cast<uint64_t>(k.resources.block_dim));
  fp->Add(static_cast<uint64_t>(k.resources.shared_bytes_per_block));
}

}  // namespace

size_t Pass::failed() const {
  size_t n = 0;
  for (const QueryRecord& r : queries) n += r.ok() ? 0 : 1;
  return n;
}

Runner::Runner(simt::Device& dev, int streams,
               std::shared_ptr<simt::FaultPlan> plan)
    : dev_(dev), plan_(std::move(plan)) {
  for (int i = 0; i < streams; ++i) {
    streams_.push_back(dev_.CreateStream("bench-" + std::to_string(i)));
  }
  dev_.set_fault_plan(plan_);
}

Pass Runner::RunPass(std::vector<Query>& queries, size_t count,
                     bool keep_log, Spans* spans, const std::string& pass_name,
                     std::vector<double>* reference) {
  dev_.ResetAccounting();
  if (plan_ != nullptr) plan_->Reset();
  const uint64_t reuse0 = dev_.pool_reuse_count();
  Pass pass;
  pass.queries.reserve(count);
  const int concurrency =
      static_cast<int>(std::min<size_t>(streams_.size(), count));
  const int wspan = spans != nullptr ? spans->Begin(pass_name, 0) : 0;
  Fingerprint pass_fp;

  for (size_t i = 0; i < count; ++i) {
    Query& q = queries[i];
    simt::Stream* stream = streams_[i % streams_.size()];
    QueryRecord rec;
    rec.stream_id = stream->id();
    rec.sim_start_ms = stream->now_ms();
    rec.log_begin = dev_.kernel_log().size();
    const double pcie0 = dev_.pcie_ms();
    const double busy0 = dev_.total_sim_ms();
    const int faults0 = plan_ != nullptr ? plan_->stats().transfers_failed : 0;

    if (reference != nullptr && i % kReferenceEvery == 0) {
      reference->push_back(ReferenceMs());
    }
    const int qspan = spans != nullptr ? spans->Begin(q.label, wspan) : 0;
    const double t0 = NowSeconds();
    const double cpu0 = ProcessCpuMs();
    Status st;
    {
      simt::MemoryArena arena(q.label);
      simt::ExecCtx ctx(dev_, stream, &arena);
      ctx.set_concurrency_hint(concurrency);
      const int cspan = spans != nullptr ? spans->Begin(q.call, qspan) : 0;
      st = q.run(ctx);
      if (spans != nullptr) spans->End(cspan);
    }
    rec.host_ms = ProcessCpuMs() - cpu0;
    rec.wall_ms = (NowSeconds() - t0) * 1e3;
    if (spans != nullptr) spans->End(qspan);

    rec.code = st.code();
    rec.sim_end_ms = stream->now_ms();
    rec.log_end = dev_.kernel_log().size();
    rec.pcie_ms = dev_.pcie_ms() - pcie0;
    rec.transfer_faults =
        plan_ != nullptr ? plan_->stats().transfers_failed - faults0 : 0;
    double kernel_ms = 0.0;
    Fingerprint qfp;
    qfp.Add(static_cast<uint64_t>(rec.code));
    qfp.Add(static_cast<uint64_t>(rec.stream_id));
    qfp.Add(rec.sim_start_ms);
    qfp.Add(rec.sim_end_ms);
    qfp.Add(rec.pcie_ms);
    for (size_t j = rec.log_begin; j < rec.log_end; ++j) {
      const simt::KernelStats& k = dev_.kernel_log()[j];
      kernel_ms += k.time.total_ms;
      HashKernel(k, &qfp);
      if (spans != nullptr) {
        spans->AddSim(k.name, qspan, k.stream_id, k.start_ms, k.end_ms,
                      "\"bound\": \"" +
                          std::string(kTermNames[BindingTerm(k.time)]) +
                          "\", \"stream\": " + std::to_string(k.stream_id));
      }
    }
    rec.backoff_ms = (dev_.total_sim_ms() - busy0) - kernel_ms;
    // The query's span on its stream is its kernels plus its transfers plus
    // charged delays; anything else moved the stream clock unaccounted.
    const double parts = kernel_ms + rec.pcie_ms + rec.backoff_ms;
    if (std::fabs(rec.sim_ms() - parts) > 1e-9 * std::max(1.0, rec.sim_ms()) &&
        pass.error.empty()) {
      pass.error = q.label + ": simulated span " +
                   std::to_string(rec.sim_ms()) +
                   " ms != kernels + PCIe + backoff " + std::to_string(parts);
    }

    if (st.ok()) {
      const int kspan = spans != nullptr ? spans->Begin("check", wspan) : 0;
      Status c = q.check(&qfp);
      if (spans != nullptr) spans->End(kspan);
      if (!c.ok() && pass.error.empty()) {
        pass.error = q.label + ": wrong answer: " + c.message();
      }
    }
    rec.hash = qfp.value();
    pass_fp.Add(rec.hash);
    pass.host_query_s += rec.host_ms * 1e-3;
    pass.wall_query_s += rec.wall_ms * 1e-3;
    pass.queries.push_back(rec);
  }
  if (spans != nullptr) spans->End(wspan);
  pass.makespan_ms = dev_.makespan_ms();
  pass.log_len = dev_.kernel_log().size();
  pass.pool_reuse = dev_.pool_reuse_count() - reuse0;
  pass.footprint_bytes = dev_.footprint_bytes();
  pass.peak_bytes = dev_.peak_allocated_bytes();
  pass_fp.Add(pass.makespan_ms);
  pass.fingerprint = pass_fp.value();
  if (keep_log) pass.log = dev_.kernel_log();
  return pass;
}

// --- Drivers -----------------------------------------------------------------

namespace {

// Queries issued before any timed pass so lazy host set-up (worker threads,
// allocator growth) is not charged to the first timed queries.
constexpr size_t kWarmupQueries = 8;
// Rounds of the differenced prefix configurations; each reports its fastest.
constexpr int kPrefixReps = 2;

Pass Warmup(Runner& runner, std::vector<Query>& queries) {
  return runner.RunPass(queries, std::min(kWarmupQueries, queries.size()),
                        false, nullptr, "warmup");
}

}  // namespace

EndToEnd RunUntraced(Runner& runner, std::vector<Query>& queries,
                     double seconds, std::vector<double> setup_s,
                     const std::function<double()>& setup_again) {
  const Pass warmup = Warmup(runner, queries);
  EndToEnd e;
  e.host_ms.assign(queries.size(), 0.0);
  e.wall_ms = e.host_ms;
  std::vector<double> reference;
  const double start = NowSeconds();
  while (true) {
    const double t0 = NowSeconds();
    Pass p = runner.RunPass(queries, queries.size(), e.passes == 0, nullptr,
                            "pass", &reference);
    const double dt = NowSeconds() - t0;
    for (size_t i = 0; i < p.queries.size(); ++i) {
      e.host_ms[i] += p.queries[i].host_ms;
      e.wall_ms[i] += p.queries[i].wall_ms;
    }
    e.attempted += p.queries.size();
    e.failed += p.failed();
    if (e.error.empty() && !p.error.empty()) e.error = p.error;
    if (e.passes == 0) {
      // A slow machine may leave time for one pass only; the warm-up ran
      // the same prefix, so it checks reproduction in that case too.
      for (size_t i = 0; i < warmup.queries.size() && e.error.empty(); ++i) {
        if (warmup.queries[i].hash != p.queries[i].hash) {
          e.error = "query " + std::to_string(i) +
                    ": simulated numbers differ between warm-up and pass 1";
        }
      }
      e.first = std::move(p);
    } else if (e.error.empty() && p.fingerprint != e.first.fingerprint) {
      e.error = "pass " + std::to_string(e.passes + 1) +
                " simulated fingerprint " + Hex(p.fingerprint) +
                " differs from pass 1 " + Hex(e.first.fingerprint);
    }
    ++e.passes;
    setup_s.push_back(setup_again());
    // Whole passes only, ending as close to `seconds` as a pass allows.
    if (NowSeconds() - start + dt / 2 > seconds) break;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    e.host_ms[i] /= static_cast<double>(e.passes);
    e.wall_ms[i] /= static_cast<double>(e.passes);
  }
  e.setup_s = Median(setup_s);
  e.setup_samples = setup_s.size();
  e.reference_ms = Median(reference);
  return e;
}

void AddEndToEndMetrics(const EndToEnd& e, Metrics* m) {
  std::vector<double> sim;
  for (const QueryRecord& r : e.first.queries) sim.push_back(r.sim_ms());
  m->Set("sim_query_ms_p50", Percentile(sim, 0.5), "ms");
  m->Set("sim_query_ms_p90", Percentile(sim, 0.9), "ms");
  m->Set("sim_qps",
         static_cast<double>(sim.size()) / (e.first.makespan_ms * 1e-3),
         "1/s");
  const double scale = e.speed_scale();
  double host_s = 0.0;
  for (double ms : e.host_ms) host_s += ms * 1e-3 * scale;
  m->Set("host_query_ms_p50", Percentile(e.host_ms, 0.5) * scale, "ms");
  m->Set("host_query_ms_p90", Percentile(e.host_ms, 0.9) * scale, "ms");
  m->Set("host_qps", static_cast<double>(e.host_ms.size()) / host_s, "1/s");
  m->Set("setup_s", e.setup_s, "s");
  m->Set("host_peak_rss_mib", PeakRssMib(), "MiB");
  m->Set("device_peak_mib",
         static_cast<double>(e.first.peak_bytes) / (1024.0 * 1024.0), "MiB");
  m->Set("answered_frac",
         1.0 - static_cast<double>(e.first.failed()) /
                   static_cast<double>(e.first.queries.size()),
         "frac");
}

void AddRunMeta(const EndToEnd& e, Meta* meta) {
  meta->push_back({"sim_fingerprint", JsonString(SimFingerprint(e.first))});
  meta->push_back({"passes", std::to_string(e.passes)});
  meta->push_back(
      {"samples", "{\"sim_query_ms\": " +
                      std::to_string(e.first.queries.size()) +
                      ", \"host_query_ms\": " +
                      std::to_string(e.host_ms.size()) +
                      ", \"host_calls_per_query\": " +
                      std::to_string(e.passes) + ", \"setup\": " +
                      std::to_string(e.setup_samples) + "}"});
  meta->push_back({"reference_ms", std::to_string(e.reference_ms)});
  meta->push_back({"raw_host_query_ms_p50",
                   std::to_string(Percentile(e.host_ms, 0.5))});
  meta->push_back({"wall_query_ms_p50",
                   std::to_string(Percentile(e.wall_ms, 0.5))});
}

Traced RunTraced(Runner& runner, std::vector<Query>& queries,
                 const Options& opts, int trace_target) {
  simt::Device& dev = runner.device();
  Warmup(runner, queries);
  Traced t;
  t.full = runner.RunPass(queries, queries.size(), true, &t.spans,
                          opts.workload);
  t.error = t.full.error;
  t.prefix = std::max<size_t>(1, queries.size() / 6);
  const int workers = dev.host_workers();
  const double inf = std::numeric_limits<double>::infinity();
  t.ref_s = t.spans_s = t.min_trace_s = t.ref_wall_s = t.parallel_wall_s =
      inf;
  for (int rep = 0; rep < kPrefixReps; ++rep) {
    Pass ref = runner.RunPass(queries, t.prefix, false, nullptr, "reference");
    Spans scratch;
    Pass spans = runner.RunPass(queries, t.prefix, false, &scratch, "spans");
    dev.set_host_workers(opts.parallel_workers);
    Pass parallel =
        runner.RunPass(queries, t.prefix, false, nullptr, "parallel-workers");
    dev.set_host_workers(workers);
    dev.set_trace_sample_target(1);
    Pass min_trace =
        runner.RunPass(queries, t.prefix, false, nullptr, "min-trace");
    dev.set_trace_sample_target(trace_target);

    t.ref_s = std::min(t.ref_s, ref.host_query_s);
    t.spans_s = std::min(t.spans_s, spans.host_query_s);
    t.ref_wall_s = std::min(t.ref_wall_s, ref.wall_query_s);
    t.parallel_wall_s = std::min(t.parallel_wall_s, parallel.wall_query_s);
    t.min_trace_s = std::min(t.min_trace_s, min_trace.host_query_s);
    for (size_t i = 0; i < t.prefix && t.error.empty(); ++i) {
      if (ref.queries[i].hash != t.full.queries[i].hash) {
        t.error = "recording spans changed the simulated fingerprint";
      } else if (parallel.queries[i].hash != ref.queries[i].hash) {
        t.error = "simulated fingerprint differs between " +
                  std::to_string(workers) + " and " +
                  std::to_string(opts.parallel_workers) + " host workers";
      }
    }
    if (rep == 0) {
      for (size_t i = 0; i < t.prefix; ++i) {
        t.ref_sim_ms.push_back(ref.queries[i].sim_ms());
        t.min_trace_sim_ms.push_back(min_trace.queries[i].sim_ms());
      }
    }
  }
  return t;
}

void AddSimtMetrics(const Traced& t, Metrics* m) {
  KernelTotals k;
  for (const simt::KernelStats& s : t.full.log) k.Add(s);
  const double q = static_cast<double>(t.full.queries.size());
  m->Set("simt.launches", static_cast<double>(k.launches) / q, "count");
  m->Set("simt.blocks_launched", static_cast<double>(k.blocks_launched) / q,
         "count");
  m->Set("simt.blocks_traced", static_cast<double>(k.blocks_traced) / q,
         "count");
  m->Set("simt.host_us_per_block",
         t.full.host_query_s * 1e6 / static_cast<double>(k.blocks_launched),
         "us");
  m->Set("simt.analyze_host_frac", 1.0 - t.min_trace_s / t.ref_s, "frac");
  m->Set("simt.worker_speedup", t.ref_wall_s / t.parallel_wall_s, "x");
  std::vector<double> drift;
  for (size_t i = 0; i < t.ref_sim_ms.size(); ++i) {
    if (t.ref_sim_ms[i] > 0) {
      drift.push_back(std::fabs(t.min_trace_sim_ms[i] - t.ref_sim_ms[i]) /
                      t.ref_sim_ms[i]);
    }
  }
  m->Set("simt.sampling_drift", Mean(drift), "frac");
  for (int i = 0; i < 5; ++i) {
    m->Set(std::string("simt.") + kTermNames[i] + "_ms", k.term_ms[i] / q,
           "ms");
  }
  for (int i = 0; i < 5; ++i) {
    m->Set(std::string("simt.bound.") + kTermNames[i] + "_frac",
           static_cast<double>(k.bound[i]) / static_cast<double>(k.launches),
           "frac");
  }
  m->Set("simt.coalescing",
         static_cast<double>(k.global_useful_bytes) /
             static_cast<double>(k.global_bytes),
         "frac");
  m->Set("simt.bank_conflict_frac",
         k.shared_cycles == 0 ? 0.0
                              : static_cast<double>(k.bank_conflict_cycles) /
                                    static_cast<double>(k.shared_cycles),
         "frac");
  m->Set("simt.divergence_frac",
         static_cast<double>(k.divergent_lane_slots) /
             (32.0 * static_cast<double>(k.warp_instructions)),
         "frac");
  m->Set("simt.sm_utilization", k.util_ms / k.total_ms, "frac");
  m->Set("simt.pool_reuse", static_cast<double>(t.full.pool_reuse), "count");
  m->Set("simt.footprint_mib",
         static_cast<double>(t.full.footprint_bytes) / (1024.0 * 1024.0),
         "MiB");
  m->Set("simt.kernel_log_len", static_cast<double>(t.full.log_len), "count");
  m->Set("trace.overhead_frac", 1.0 - t.ref_s / t.spans_s, "frac");
}

void ResilienceNotMeasured(const std::string& reason, Metrics* m) {
  for (const char* name :
       {"planner.resilient.retries", "planner.resilient.fallbacks",
        "planner.resilient.cpu_fallbacks",
        "planner.resilient.corruption_reruns"}) {
    m->NotMeasured(name, "count", reason);
  }
  m->NotMeasured("planner.resilient.backoff_ms", "ms", reason);
  m->NotMeasured("planner.resilient.added_latency_ms", "ms", reason);
  m->NotMeasured("planner.resilient.recovered_frac", "frac", reason);
}

std::string WriteSpans(const Traced& t, const Options& opts) {
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string path = opts.out_dir + "/spans-" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + ".json";
  Status st = t.spans.Write(path);
  if (!st.ok()) {
    std::fprintf(stderr, "warning: %s\n", st.ToString().c_str());
    return "";
  }
  return path;
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace mptopk::perfbench
