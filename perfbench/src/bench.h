// Shared machinery of the benchmark: options, named metrics, spans, the
// simulated fingerprint and the pass runner that times every query on both
// clocks (simulated device ms and host CPU time).
//
// A workload is a fixed list of queries. One pass issues the whole list in
// order from one host thread (closed loop); query i runs on stream i mod S
// through its own ExecCtx and MemoryArena. Each pass starts from reset device
// accounting and a reset fault plan, so every pass is identical on the
// simulated clock and only host time differs between passes.
#ifndef MPTOPK_PERFBENCH_BENCH_H_
#define MPTOPK_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/key_transform.h"
#include "common/status.h"
#include "common/tuple_types.h"
#include "simt/device.h"
#include "simt/exec_ctx.h"
#include "topk/registry.h"

namespace mptopk::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_commit = "unknown";
  int host_cores = 1;
  /// Host block workers of every Device the benchmark builds.
  int workers = 1;
  /// Host block workers the traced run compares `workers` with.
  int parallel_workers = 2;
};

double NowSeconds();

/// CPU ms used so far by all threads of the process. Unlike wall time it
/// leaves out time the hypervisor gave this machine's cores to other guests
/// (steal) and time a thread sat blocked, e.g. at a launch's join while a
/// worker was descheduled; on a shared VM those swing from none to most of
/// a core within minutes.
double ProcessCpuMs();

/// CPU ms of this thread for a fixed single-threaded unit of host work
/// (xorshift-indexed read-modify-writes over a 16 MiB table, which lives in
/// the last-level cache other guests share) that exercises none of the
/// program's code: it tracks only how fast the host currently runs
/// memory-bound code like the simulator's.
double ReferenceMs();

/// Per-query host metrics are scaled by kNominalReferenceMs / (the median
/// ReferenceMs of the run), so a run on a host that is slowed down as a
/// whole reads like one that is not.
inline constexpr double kNominalReferenceMs = 2.5;
/// Timed passes measure ReferenceMs() before every this-many-th query, so
/// the run's reference samples come from all through its passes.
inline constexpr size_t kReferenceEvery = 10;

/// Percentile by linear interpolation between order statistics, q in [0, 1].
double Percentile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);

/// Metrics by name, each with a unit; printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a metric this workload cannot measure: value 0 plus the reason,
  /// which lands in the run's metadata line.
  void NotMeasured(const std::string& name, const std::string& unit,
                   const std::string& reason);
  std::string ToJson() const;
  std::string ReasonsJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::pair<std::string, std::string>> reasons_;
};

/// FNV-1a over the exact bits of every value fed to it.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

std::string Hex(uint64_t v);
std::string JsonString(const std::string& s);

/// Spans kept in memory and written once as Chrome trace-event JSON. Host
/// spans (pid 1) use host microseconds since the recorder was made;
/// simulated-clock spans (pid 2, one track per stream) use simulated
/// microseconds. Every span carries its id and its parent's id in args.
class Spans {
 public:
  Spans() : t0_(std::chrono::steady_clock::now()) {}
  int Begin(const std::string& name, int parent);
  void End(int id);
  void AddSim(const std::string& name, int parent, int stream, double start_ms,
              double end_ms, const std::string& args_json);
  size_t size() const { return events_.size(); }
  Status Write(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    int id;
    int parent;
    int pid;
    int tid;
    double ts_us;
    double dur_us;
    std::string args;
  };
  double HostUs() const;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Event> events_;
};

/// One query of a workload. `run` drives one public entry point and keeps
/// its answer; `check` compares that answer with the host oracle (never
/// inside the query's timed region) and folds it into `digest`.
struct Query {
  std::string label;  ///< per-layer grouping key, e.g. "q2.fused"
  std::string call;   ///< the public entry point it drives
  std::function<Status(const simt::ExecCtx&)> run;
  std::function<Status(Fingerprint* digest)> check;
};

/// What one query cost, measured from outside the program.
struct QueryRecord {
  StatusCode code = StatusCode::kOk;
  double host_ms = 0.0;  ///< process CPU ms of the call (ProcessCpuMs)
  double wall_ms = 0.0;  ///< wall-clock ms of the call
  int stream_id = 0;
  double sim_start_ms = 0.0;
  double sim_end_ms = 0.0;
  size_t log_begin = 0;
  size_t log_end = 0;
  double pcie_ms = 0.0;
  /// Simulated delay charged outside kernels and transfers (retry backoff).
  double backoff_ms = 0.0;
  int transfer_faults = 0;
  uint64_t hash = 0;
  double sim_ms() const { return sim_end_ms - sim_start_ms; }
  bool ok() const { return code == StatusCode::kOk; }
};

struct Pass {
  std::vector<QueryRecord> queries;
  /// The device kernel log of this pass (kept when asked for).
  std::vector<simt::KernelStats> log;
  size_t log_len = 0;
  double makespan_ms = 0.0;
  /// Device allocator state: reuses during this pass, address-space extent
  /// and allocation high-water mark (device lifetime) after it.
  uint64_t pool_reuse = 0;
  size_t footprint_bytes = 0;
  size_t peak_bytes = 0;
  uint64_t fingerprint = 0;
  double host_query_s = 0.0;  ///< sum of the queries' host_ms, in s
  double wall_query_s = 0.0;  ///< sum of the queries' wall_ms, in s
  /// First wrong answer or accounting violation; empty when all is well.
  std::string error;
  size_t failed() const;
};

class Runner {
 public:
  /// Creates `streams` streams on `dev`; `plan` (may be null) is reset at
  /// the start of every pass.
  Runner(simt::Device& dev, int streams, std::shared_ptr<simt::FaultPlan> plan);

  /// Runs queries [0, count) once. With `spans`, records the workload span
  /// (named `pass_name`), query, call, check and kernel spans. With
  /// `reference`, appends a ReferenceMs() before every kReferenceEvery-th
  /// query, outside its timed region.
  Pass RunPass(std::vector<Query>& queries, size_t count, bool keep_log,
               Spans* spans, const std::string& pass_name,
               std::vector<double>* reference = nullptr);

  simt::Device& device() { return dev_; }
  /// Installs (true) or removes (false) the fault plan for later passes.
  void set_faults(bool on) { dev_.set_fault_plan(on ? plan_ : nullptr); }

 private:
  simt::Device& dev_;
  std::vector<simt::Stream*> streams_;
  std::shared_ptr<simt::FaultPlan> plan_;
};

/// The workload's simulated fingerprint: a pass's fingerprint plus the
/// device allocation high-water mark, as hex.
std::string SimFingerprint(const Pass& p);

/// Simulated kernel ms of one query of `p` (its launches in p.log).
double KernelMs(const Pass& p, const QueryRecord& r);

/// Host ms of each query of `p`, grouped by query label.
std::map<std::string, std::vector<double>> HostMsByLabel(
    const Pass& p, const std::vector<Query>& queries);

/// The six GPU top-k operators the benchmark reports, by registry name.
extern const char* const kGpuOperators[6];
/// The CPU baselines (registry names "cpu:<name>").
extern const char* const kCpuOperators[3];

/// Index of the term that binds a kernel: 0 global, 1 shared, 2 atomic,
/// 3 dependent, 4 overhead (argmax of the five terms).
int BindingTerm(const simt::KernelTime& t);
extern const char* const kTermNames[5];

/// Sums of the simulator's per-kernel accounting over a set of launches.
struct KernelTotals {
  double term_ms[5] = {0, 0, 0, 0, 0};
  double total_ms = 0.0;
  double util_ms = 0.0;  ///< sum of sm_utilization * total_ms
  uint64_t bound[5] = {0, 0, 0, 0, 0};
  uint64_t launches = 0;
  uint64_t blocks_launched = 0;
  uint64_t blocks_traced = 0;
  uint64_t global_bytes = 0;
  uint64_t global_useful_bytes = 0;
  uint64_t shared_cycles = 0;
  uint64_t bank_conflict_cycles = 0;
  uint64_t warp_instructions = 0;
  uint64_t divergent_lane_slots = 0;
  void Add(const simt::KernelStats& k);
};

/// End-to-end measurements of a workload: the first pass (simulated
/// clock; every later pass must reproduce it) and, per query, the mean over
/// all passes (host clock). A mean, not the best of N: how many passes fit
/// depends on the machine's speed, and a best of N drops as N grows.
struct EndToEnd {
  Pass first;
  std::vector<double> host_ms;  ///< per query, mean CPU ms of a call
  std::vector<double> wall_ms;  ///< per query, mean wall-clock ms of a call
  size_t passes = 0;
  size_t attempted = 0;
  size_t failed = 0;
  double setup_s = 0.0;  ///< median set-up, CPU s
  size_t setup_samples = 0;
  /// Median ReferenceMs of the run's passes.
  double reference_ms = 0.0;
  std::string error;
  /// kNominalReferenceMs / reference_ms: multiplies every per-query host
  /// time. Not the set-ups: they run outside the passes, away from the
  /// reference samples, and scaling them doubled their spread.
  double speed_scale() const { return kNominalReferenceMs / reference_ms; }
};

/// Runs whole passes, as many as come closest to `seconds` (at least one),
/// repeating the workload's set-up (`setup_again`, which returns CPU
/// seconds) after each pass; `setup_s` holds the set-ups made before. Checks
/// that the warm-up prefix and every later pass reproduce the first pass's
/// simulated numbers.
EndToEnd RunUntraced(Runner& runner, std::vector<Query>& queries,
                     double seconds, std::vector<double> setup_s,
                     const std::function<double()>& setup_again);

/// Fills the end-to-end metrics every workload reports.
void AddEndToEndMetrics(const EndToEnd& e, Metrics* m);

using Meta = std::vector<std::pair<std::string, std::string>>;

/// Metadata of an end-to-end run: simulated fingerprint, passes, sample
/// counts, the reference time and the unscaled host percentiles.
void AddRunMeta(const EndToEnd& e, Meta* meta);

/// The traced run: one full pass with spans on (kernel log kept), then the
/// differenced configurations over the first sixth of the list, each run
/// twice in alternation and reporting its fastest: spans off (reference),
/// spans on, opts.parallel_workers host workers, minimal block tracing. Host
/// CPU s, except the worker comparison, which is about wall-clock time.
struct Traced {
  Pass full;
  size_t prefix = 0;
  double ref_s = 0.0;
  double spans_s = 0.0;
  double min_trace_s = 0.0;
  double ref_wall_s = 0.0;
  double parallel_wall_s = 0.0;
  std::vector<double> ref_sim_ms;
  std::vector<double> min_trace_sim_ms;
  Spans spans;
  std::string error;
};

Traced RunTraced(Runner& runner, std::vector<Query>& queries,
                 const Options& opts, int trace_target);

/// Records the planner.resilient.* metrics as not measured, with `reason`.
void ResilienceNotMeasured(const std::string& reason, Metrics* m);

/// Per-layer metrics every workload reports from a traced run: the simt
/// layer and the tracing overhead.
void AddSimtMetrics(const Traced& t, Metrics* m);

/// Writes the traced run's spans under opts.out_dir; returns the path.
std::string WriteSpans(const Traced& t, const Options& opts);

/// Times each CPU baseline through topk::FindOperator("cpu:<name>")->TopKHost
/// on `data` (median of a few calls, each under a span), checks every answer
/// against `expected` (ordered key bits, descending) and records
/// topk.cpu.<name>.host_ms.
template <typename E>
Status AddCpuOperatorMetrics(simt::Device& dev, const std::vector<E>& data,
                             size_t k, const std::vector<uint32_t>& expected,
                             Spans* spans, Metrics* m) {
  constexpr int kReps = 5;
  const int parent = spans->Begin("cpu-baselines", 0);
  for (const char* name : kCpuOperators) {
    const std::string reg = std::string("cpu:") + name;
    MPTOPK_ASSIGN_OR_RETURN(const topk::TopKOperator* op,
                            topk::FindOperator(reg));
    std::vector<double> ms;
    for (int r = 0; r < kReps; ++r) {
      const int s = spans->Begin(reg + "->TopKHost", parent);
      const double t0 = ProcessCpuMs();
      auto res = op->TopKHost(simt::ExecCtx(dev), data.data(), data.size(), k);
      ms.push_back(ProcessCpuMs() - t0);
      spans->End(s);
      if (!res.ok()) return res.status().WithContext(reg);
      if (res->items.size() != expected.size()) {
        return Status::Internal(reg + ": wrong result size");
      }
      for (size_t j = 0; j < expected.size(); ++j) {
        using Key = typename ElementTraits<E>::Key;
        if (KeyTraits<Key>::ToOrderedBits(ElementTraits<E>::PrimaryKey(
                res->items[j])) != expected[j]) {
          return Status::Internal(reg + ": wrong answer at " +
                                  std::to_string(j));
        }
      }
    }
    m->Set("topk.cpu." + std::string(name) + ".host_ms", Median(ms), "ms");
  }
  spans->End(parent);
  return Status::OK();
}

/// Peak resident set of this process in MiB.
double PeakRssMib();

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  /// Extra "key": value JSON members for the metadata line.
  Meta meta;
};

Outcome RunTweets(const Options& opts, bool faults);
Outcome RunOperators(const Options& opts);

}  // namespace mptopk::perfbench

#endif  // MPTOPK_PERFBENCH_BENCH_H_
