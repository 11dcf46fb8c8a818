// Host oracles. Tweet queries are re-evaluated over the host copies of the
// table's columns (DeviceBuffer::host_data()); operator calls are compared
// with std::partial_sort on ordered key bits.
//
// The tweet check is tie-robust: each returned id must satisfy the filter,
// the ids must be distinct, and both the returned rank values and the rank
// values of the returned rows must equal the host top-k rank multiset. Which
// row wins a tie is not checked. Q4 keys and counts must match exactly.
#ifndef MPTOPK_PERFBENCH_ORACLE_H_
#define MPTOPK_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "bench.h"
#include "engine/table.h"
#include "engine_adapter.h"

namespace mptopk::perfbench {

class TweetOracle {
 public:
  /// Reads the host copies of the tweets table's columns.
  static StatusOr<TweetOracle> Make(const engine::Table& table);

  /// Non-OK when `a` is not a correct answer to `q`; folds the answer into
  /// `digest`.
  Status Check(const TweetQuery& q, const TweetAnswer& a, Fingerprint* digest);

  /// Host rank value of `row` under q's ranking, computed as the engine
  /// defines it (double sum of coeff * column, then rounded to float).
  float Rank(const TweetQuery& q, size_t row) const;
  size_t rows() const { return rows_; }

 private:
  bool Matches(const TweetQuery& q, size_t row) const;
  struct Expected {
    size_t matched = 0;
    std::vector<float> top;  ///< min(k, matched) rank values, descending
  };
  const Expected& ExpectedFor(const TweetQuery& q);
  Status CheckGroupBy(const TweetQuery& q, const TweetAnswer& a);

  size_t rows_ = 0;
  const int64_t* id_ = nullptr;
  const int32_t* tweet_time_ = nullptr;
  const int32_t* retweets_ = nullptr;
  const int32_t* likes_ = nullptr;
  const int32_t* lang_ = nullptr;
  const int32_t* uid_ = nullptr;
  std::map<std::tuple<int, double, size_t>, Expected> cache_;
  std::vector<uint32_t> uid_counts_;  ///< filled on the first Q4 check
  std::vector<uint32_t> counts_desc_;
};

/// The k greatest keys of `data` as ordered bits, descending.
std::vector<uint32_t> TopKOrderedBits(const std::vector<float>& data, size_t k);

/// Non-OK unless `got` equals `expected` element for element (ordered bits).
Status CheckTopK(const std::vector<uint32_t>& expected,
                 const std::vector<float>& got);

}  // namespace mptopk::perfbench

#endif  // MPTOPK_PERFBENCH_ORACLE_H_
