// Top-k query execution over the column store — the paper's MapD
// integration study (Sections 5 and 6.8).
//
// Query shape: SELECT id FROM t WHERE <filter> ORDER BY <ranking> DESC
// LIMIT k, executed with one of three strategies:
//
//  * kFilterSort      : filter/project kernel materializes (rank, row) pairs,
//                       then a full radix sort picks the top k — MapD's
//                       default plan in the paper.
//  * kFilterBitonic   : same materialization, bitonic top-k instead of sort.
//  * kCombinedBitonic : the Section 5 FusedSortReducer — the filter acts as
//                       a buffer filler that feeds matched (rank, row) pairs
//                       directly into the in-shared SortReducer, never
//                       materializing the filtered column in global memory.
//
// And: SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC LIMIT k
// (paper query 4), with the count-ordering step done by sort or bitonic
// top-k.
#ifndef MPTOPK_ENGINE_QUERY_H_
#define MPTOPK_ENGINE_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"
#include "simt/exec_ctx.h"

namespace mptopk::engine {

enum class CompareOp { kLt, kLe, kGt, kGe, kEq };

struct FilterClause {
  std::string column;
  CompareOp op;
  double value;
};

/// A disjunction of clauses: matches when ANY clause matches (e.g.
/// lang='en' OR lang='es').
struct Disjunction {
  std::vector<FilterClause> any_of;
};

/// Conjunctive normal form: a row matches when EVERY disjunction matches.
/// No disjunctions = match all. The single-predicate and single-OR filters
/// of the paper's queries are the 1-disjunction special case; CNF also
/// expresses e.g. (time < X) AND (lang='en' OR lang='es').
struct Filter {
  std::vector<Disjunction> all_of;

  Filter() = default;
  /// Convenience: a single disjunction (the paper's query shapes).
  Filter(std::initializer_list<FilterClause> any_of_clauses) {
    all_of.push_back(Disjunction{any_of_clauses});
  }

  Filter& And(std::initializer_list<FilterClause> any_of_clauses) {
    all_of.push_back(Disjunction{any_of_clauses});
    return *this;
  }
};

/// ORDER BY sum(coeff_i * column_i) DESC — the paper's custom ranking
/// functions (e.g. retweet_count + 0.5 * likes_count).
struct RankingTerm {
  std::string column;
  double coeff;
};
struct Ranking {
  std::vector<RankingTerm> terms;
};

enum class TopKStrategy { kFilterSort, kFilterBitonic, kCombinedBitonic };

inline const char* StrategyName(TopKStrategy s) {
  switch (s) {
    case TopKStrategy::kFilterSort:
      return "Filter+Sort";
    case TopKStrategy::kFilterBitonic:
      return "Filter+BitonicTopK";
    case TopKStrategy::kCombinedBitonic:
      return "Combined BitonicTopK";
  }
  return "Unknown";
}

/// How the engine executes the top-k step of a query.
struct ExecOptions {
  /// Route the top-k step through planner::ResilientTopKDevice: the planner
  /// picks the algorithm and faults are retried / fallen back transparently
  /// (the query's `strategy` still controls filtering/materialization; under
  /// the combined strategy the resilient executor serves as the recovery
  /// path when the fused reduction fails).
  bool resilient = false;
  /// Execution context for the whole query (stream + arena). nullptr runs
  /// on the table device's default stream — the legacy single-query path.
  /// Set by engine::BatchExecutor to interleave queries across streams.
  const simt::ExecCtx* ctx = nullptr;
  /// Registry name (or alias) of the operator to run the top-k step with,
  /// overriding the strategy's default ("Sort" under kFilterSort /
  /// GroupByStrategy::kSort, "BitonicTopK" otherwise). Resolved through
  /// topk::FindOperator, so any registered operator — including extensions —
  /// is addressable; unknown names fail the query with the registered list.
  /// Ignored when `resilient` routes the step through the planner.
  std::string topk_operator;
};

struct QueryResult {
  /// Values of the id column for the top rows, descending by rank.
  std::vector<int64_t> ids;
  std::vector<float> rank_values;
  size_t matched_rows = 0;
  /// ExecutionReport::Summary() of the resilient top-k step (empty when
  /// ExecOptions::resilient is off or the step did not run).
  std::string resilience_summary;
};

/// Runs the filter + order-by-limit query. `id_column` must be kInt64;
/// ranking columns are read as doubles. Returns min(k, matched) rows.
StatusOr<QueryResult> FilterTopKQuery(Table& table, const Filter& filter,
                                      const Ranking& ranking,
                                      const std::string& id_column, size_t k,
                                      TopKStrategy strategy,
                                      const ExecOptions& exec = {});

enum class GroupByStrategy { kSort, kBitonic };

struct GroupByResult {
  std::vector<int32_t> keys;      // group keys, descending by count
  std::vector<uint32_t> counts;
  size_t num_groups = 0;
  /// Simulated ms of the two phases (paper Q4's split); the whole query's
  /// time is read off the device around the call (simt::DeviceTimeTracker).
  double groupby_ms = 0.0;  // hash build + group compaction
  double topk_ms = 0.0;     // the ORDER BY COUNT(*) LIMIT k step
  /// See QueryResult::resilience_summary.
  std::string resilience_summary;
};

/// GROUP BY count + top-k by count (paper query 4). `group_column` must be
/// kInt32 with non-negative values; a negative value is kInvalidArgument.
StatusOr<GroupByResult> GroupByCountTopKQuery(Table& table,
                                              const std::string& group_column,
                                              size_t k, GroupByStrategy strategy,
                                              const ExecOptions& exec = {});

}  // namespace mptopk::engine

#endif  // MPTOPK_ENGINE_QUERY_H_
