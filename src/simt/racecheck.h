// Barrier-epoch race detection over the trace path (cuda-memcheck
// --tool racecheck, for the simulator).
//
// The sequential `ForEachThread` loops make every kernel produce the right
// answer regardless of barriers, so a missing `Block::Sync()` — a data race
// on real hardware — is invisible to the correctness tests. The checker
// closes that gap: `Block::Sync()` advances a barrier-epoch counter in the
// tracer, every traced access carries its epoch, and two accesses to
// overlapping bytes form a hazard when
//
//   * they happen in the same epoch (no barrier orders them),
//   * they come from different threads,
//   * at least one is a write,
//   * they are not both atomic (atomics serialize in hardware), and
//   * they are not the same warp instruction (same warp, same sequence
//     number: lanes of one warp executing one SIMT instruction in lockstep,
//     e.g. the classic `x[i] = x[i+1]`-style shuffle within a warp —
//     exempt exactly as racecheck's lockstep filter).
//
// Shared memory is always checked; global memory is checked per block
// (cross-block global ordering is out of scope, as on the real tool).
// Only traced blocks are checked — under trace sampling
// (Device::set_trace_sample_target) the untraced blocks are invisible,
// which is sound for this library's block-homogeneous kernels.
//
// Enabled per device (DeviceSpec::racecheck, Device::set_racecheck, or the
// MPTOPK_RACECHECK environment variable); only then does the tracer keep
// the flat per-access list the checker sorts. Epochs never feed the timing
// model — simulated timings are bit-identical either way. See
// docs/racecheck.md.
#ifndef MPTOPK_SIMT_RACECHECK_H_
#define MPTOPK_SIMT_RACECHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "simt/device_spec.h"
#include "simt/trace.h"

namespace mptopk::simt {

/// One conflicting access pair. `a` is the sorted-first access (lower
/// address, then earlier thread).
struct RaceHazard {
  enum class Space { kShared, kGlobal };

  struct Party {
    int tid = 0;
    int lane = 0;
    int warp = 0;
    uint32_t seq = 0;
    bool write = false;
    bool atomic = false;
    uint64_t addr = 0;
    uint32_t size = 0;
  };

  std::string kernel;
  Space space = Space::kShared;
  int block_idx = 0;
  uint32_t epoch = 0;
  Party a;
  Party b;
  /// The overlapping byte range [addr, addr + bytes).
  uint64_t addr = 0;
  uint32_t bytes = 0;

  /// e.g. "WW shared kernel=foo block=0 epoch=1 bytes=[64,68) tid 3 (w1:l3)
  /// wrote x tid 4 (w1:l4) wrote"
  std::string ToString() const;
};

/// Aggregated result of checking one or more launches.
struct RaceReport {
  /// Total conflicting pairs found (keeps counting past the record cap).
  uint64_t hazard_count = 0;
  uint64_t blocks_checked = 0;
  /// First kMaxRecordedHazards hazards, in detection order.
  std::vector<RaceHazard> hazards;

  static constexpr size_t kMaxRecordedHazards = 64;

  bool clean() const { return hazard_count == 0; }
  void Merge(const RaceReport& o);
  /// One line: "racecheck: N hazards across B blocks" plus up to three
  /// example hazards; "racecheck: clean (B blocks)" when none.
  std::string Summary() const;
};

/// Stateless analysis: checks one traced block's recorded accesses and
/// accumulates hazards into *report.
class RaceChecker {
 public:
  static void CheckBlock(const BlockTracer& tracer, const DeviceSpec& spec,
                         const std::string& kernel, int block_idx,
                         RaceReport* report);
};

/// True when the MPTOPK_RACECHECK environment variable enables checking
/// (set and not one of "0", "false", "off").
bool RacecheckEnvEnabled();

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_RACECHECK_H_
