// topk_perfbench: runs one workload, checks every answer against a host
// oracle and prints every metric by name with its unit.
//
//   topk_perfbench --workload tweets_mix|operators_exact|tweets_faults
//                  --seed N --seconds S --trace 0|1
//                  [--out_dir DIR] [--git_commit SHA]
//
// Output: a metadata line ({"meta": ...}: seed, sizes, host cores and
// workers, trace target, fault rate, build type, git commit, simulated
// fingerprint, sample counts), then, as the last line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the traced and
// differenced configurations, reports the per-layer metrics and writes the
// spans as Chrome trace-event JSON under --out_dir.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"

#ifndef MPTOPK_PERFBENCH_BUILD_TYPE
#define MPTOPK_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace mptopk::perfbench {
namespace {

constexpr int kMaxWorkers = 4;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: topk_perfbench --workload "
               "tweets_mix|operators_exact|tweets_faults --seed N --seconds S "
               "--trace 0|1 [--out_dir DIR] [--git_commit SHA]\n",
               msg);
  return 2;
}

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

int Main(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + flag).c_str());
    }
    uint64_t num = 0;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &opts.seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &num) || num == 0) return Usage("bad --seconds");
      opts.seconds = static_cast<double>(num);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      opts.trace = value == "1";
    } else if (flag == "--out_dir") {
      opts.out_dir = value;
    } else if (flag == "--git_commit") {
      opts.git_commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed) return Usage("--seed is required");
  if (opts.workload != "tweets_mix" && opts.workload != "operators_exact" &&
      opts.workload != "tweets_faults") {
    return Usage("unknown --workload");
  }
  opts.host_cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Measured passes use one host block worker. On a shared VM the CPU time
  // of a multi-threaded launch depends on which cores its workers land on
  // and what else runs beside them there, which the single-threaded
  // reference task cannot see. The traced run compares with nproc - 1
  // workers (one core stays free; with a worker on every core, one busy
  // core stalls every launch at its join), at least 2 and at most 4.
  opts.workers = 1;
  opts.parallel_workers = std::clamp(opts.host_cores - 1, 2, kMaxWorkers);
  if (!kOptimized) {
    std::fprintf(stderr,
                 "\n*** WARNING: unoptimised build (%s). Host wall-clock "
                 "numbers from this binary are meaningless; build with "
                 "-DCMAKE_BUILD_TYPE=Release. ***\n\n",
                 MPTOPK_PERFBENCH_BUILD_TYPE);
  }

  Outcome o = opts.workload == "operators_exact"
                  ? RunOperators(opts)
                  : RunTweets(opts, opts.workload == "tweets_faults");

  std::string meta = "{\"workload\": " + JsonString(opts.workload) +
                     ", \"seed\": " + std::to_string(opts.seed) +
                     ", \"seconds\": " + std::to_string(opts.seconds) +
                     ", \"trace\": " + (opts.trace ? "1" : "0") +
                     ", \"host_cores\": " + std::to_string(opts.host_cores) +
                     ", \"host_workers\": " + std::to_string(opts.workers) +
                     ", \"parallel_workers\": " +
                     std::to_string(opts.parallel_workers) +
                     ", \"build_type\": " +
                     JsonString(MPTOPK_PERFBENCH_BUILD_TYPE) +
                     ", \"optimized\": " + (kOptimized ? "true" : "false") +
                     ", \"git_commit\": " + JsonString(opts.git_commit);
  for (const auto& [key, value] : o.meta) {
    meta += ", " + JsonString(key) + ": " + value;
  }
  meta += "}";
  std::printf("{\"meta\": %s, \"error\": %s}\n", meta.c_str(),
              JsonString(o.error).c_str());
  if (!o.error.empty()) std::fprintf(stderr, "error: %s\n", o.error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              o.correct ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              o.metrics.ToJson().c_str());
  std::fflush(stdout);
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace mptopk::perfbench

int main(int argc, char** argv) {
  return mptopk::perfbench::Main(argc, argv);
}
