// BatchExecutor: concurrent multi-query execution over one device.
//
// Accepts N statements (filter+top-k or group-by-count, the paper's query
// shapes), plans and runs each through the regular engine entry points, but
// binds every query to its own ExecCtx — a stream picked round-robin from a
// configurable pool plus a per-query MemoryArena — so queries overlap on
// the simulated timeline and their buffers recycle through the device's
// pooled allocator. Host execution stays sequential (results are therefore
// bit-identical to running the queries one at a time); concurrency lives in
// the timing model, where per-stream clocks advance independently and
// oversubscribed kernels pay bandwidth contention.
//
// The report gives per-query results and placement plus the aggregate
// numbers the ROADMAP's serving story needs: makespan vs. serialized sum,
// queries/sec at the simulated clock, and pooled-memory accounting.
#ifndef MPTOPK_ENGINE_BATCH_H_
#define MPTOPK_ENGINE_BATCH_H_

#include <string>
#include <vector>

#include "engine/query.h"
#include "engine/table.h"

namespace mptopk::engine {

/// One statement of a batch: either a filter+top-k query (kFilterTopK) or
/// a group-by-count top-k (kGroupByCount).
struct BatchQuery {
  enum class Kind { kFilterTopK, kGroupByCount };
  Kind kind = Kind::kFilterTopK;
  std::string label;

  // kFilterTopK parameters.
  Filter filter;
  Ranking ranking;
  std::string id_column = "id";
  TopKStrategy strategy = TopKStrategy::kCombinedBitonic;

  // kGroupByCount parameters.
  std::string group_column;
  GroupByStrategy groupby_strategy = GroupByStrategy::kBitonic;

  size_t k = 10;
  /// Per-query execution options (resilient routing, operator override);
  /// ExecOptions::ctx is overwritten with the batch-assigned context.
  ExecOptions exec;
};

/// Per-query outcome and timeline placement.
struct BatchItemReport {
  std::string label;
  int stream_id = 0;
  double start_ms = 0.0;
  double finish_ms = 0.0;
  /// Simulated busy ms this query consumed (kernels plus charged backoff;
  /// PCIe excluded), measured around it.
  double kernel_ms = 0.0;
  /// Peak bytes live in this query's arena (its working set).
  size_t arena_peak_bytes = 0;
  Status status = Status::OK();
  QueryResult result;             // kind == kFilterTopK
  GroupByResult group_result;     // kind == kGroupByCount
};

struct BatchReport {
  std::vector<BatchItemReport> items;
  size_t failed = 0;
  /// Wall-clock of the overlapped schedule (max finish - batch epoch).
  double makespan_ms = 0.0;
  /// Sum of the per-query stream spans — what the same schedule costs with
  /// no overlap (contention inflation included, so this upper-bounds a
  /// clean sequential run).
  double serialized_sum_ms = 0.0;
  double queries_per_sec = 0.0;
  /// Device-wide allocation high-water mark after the batch (table
  /// residency + live query working sets).
  size_t peak_allocated_bytes = 0;
  /// Allocations served by free-list reuse during the batch.
  uint64_t pool_reuse_count = 0;
  /// Address space carved out of the device (plateaus under pooling).
  size_t footprint_bytes = 0;

  std::string Summary() const;
};

class BatchExecutor {
 public:
  /// Creates `num_streams` streams (>= 1) on the table's device. The
  /// executor may be reused; streams persist and their clocks carry
  /// forward, so a second Execute schedules after the first.
  BatchExecutor(Table& table, int num_streams);

  /// Runs all queries, round-robin across the stream pool. Individual query
  /// failures are recorded in the report (failed count + per-item status)
  /// without aborting the batch; only malformed batches return non-OK.
  StatusOr<BatchReport> Execute(const std::vector<BatchQuery>& queries);

  int num_streams() const { return static_cast<int>(streams_.size()); }

 private:
  Table& table_;
  std::vector<simt::Stream*> streams_;
};

}  // namespace mptopk::engine

#endif  // MPTOPK_ENGINE_BATCH_H_
