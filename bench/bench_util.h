// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each binary regenerates one table/figure of the paper's evaluation
// (Section 6/7); see DESIGN.md's experiment index. GPU numbers are
// simulated milliseconds from the SIMT device model (deterministic);
// CPU numbers are host wall-clock. Default input sizes are scaled down
// from the paper's 2^29 so every bench runs in seconds — pass --n_log2
// to raise them; shapes are size-stable (Figure 13 covers scaling).
#ifndef MPTOPK_BENCH_BENCH_UTIL_H_
#define MPTOPK_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "common/flags.h"
#include "common/table_printer.h"
#include "topk/registry.h"

namespace mptopk::bench {

inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Standard flags shared by the GPU benches.
inline void DefineCommonFlags(Flags* flags, const char* default_n_log2) {
  flags->Define("n_log2", default_n_log2,
                "log2 of the input size (paper uses 29)");
  flags->Define("csv", "false", "emit CSV instead of an aligned table");
  flags->Define("trace_sample", "32",
                "blocks traced per kernel launch (0 = all, exact)");
  flags->Define("seed", "42", "data generator seed");
}

/// Runs one registered top-k operator on host data, returning simulated
/// kernel ms (NaN when the operator cannot run at this configuration, e.g.
/// per-thread top-k beyond its shared-memory limit -- rendered as '-').
/// Under MPTOPK_RACECHECK, hazard summaries print to stderr (timings do not
/// change; the checker is analysis-only).
template <typename E>
double RunOp(const topk::TopKOperator& op, const std::vector<E>& data,
             size_t k, int trace_sample) {
  simt::Device dev;
  dev.set_trace_sample_target(trace_sample);
  const simt::DeviceTimeTracker clock(dev);
  auto r = op.TopKHost(dev, data.data(), data.size(), k);
  if (dev.racecheck() && !dev.race_report().clean()) {
    std::fprintf(stderr, "%s: %s\n", op.name().c_str(),
                 dev.race_report().Summary().c_str());
  }
  if (!r.ok()) return kNaN;
  return clock.ElapsedMs();
}

/// Name-addressed variant: resolves `name` (canonical or alias) through
/// the registry -- the one string->operator parser in the codebase. An
/// unknown name aborts with the registered-operator list, so a typo in a
/// bench column is caught on the first run rather than printing '-'.
template <typename E>
double RunOp(const std::string& name, const std::vector<E>& data, size_t k,
             int trace_sample) {
  auto op = topk::FindOperator(name);
  if (!op.ok()) {
    std::fprintf(stderr, "%s\n", op.status().ToString().c_str());
    std::abort();
  }
  return RunOp(*op.value(), data, k, trace_sample);
}

/// The paper's "Memory Bandwidth" floor: time to read the data once.
inline double BandwidthFloorMs(size_t bytes) {
  return static_cast<double>(bytes) /
         (simt::DeviceSpec::TitanXMaxwell().global_bw_gbps * 1e9) * 1e3;
}

inline void PrintTable(TablePrinter& table, bool csv) {
  if (csv) {
    table.PrintCsv();
  } else {
    table.Print();
  }
}

/// One-stop bench main() preamble: parses argv against the (already
/// defined) flags, prints parse errors to stderr and --help to stdout.
/// Returns false when main should immediately return *exit_code.
inline bool BenchInit(Flags& flags, int argc, char** argv, int* exit_code) {
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    *exit_code = 1;
    return false;
  }
  if (flags.help_requested()) {
    flags.PrintHelp(argv[0]);
    *exit_code = 0;
    return false;
  }
  return true;
}

/// One exit path for a failed Status inside a bench main: print, return 1.
inline int FailWith(const Status& st) {
  std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return 1;
}

/// The one milliseconds-cell format every bench table reports through
/// (3 decimals; NaN — infeasible configuration — renders as '-').
inline std::string MsCell(double ms) { return TablePrinter::Cell(ms, 3); }

inline std::vector<size_t> PowersOfTwo(size_t lo, size_t hi) {
  std::vector<size_t> v;
  for (size_t k = lo; k <= hi; k <<= 1) v.push_back(k);
  return v;
}

}  // namespace mptopk::bench

#endif  // MPTOPK_BENCH_BENCH_UTIL_H_
