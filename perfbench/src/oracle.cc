#include "oracle.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/key_transform.h"
#include "engine/tweets.h"

namespace mptopk::perfbench {
namespace {

uint32_t Bits(float v) { return KeyTraits<float>::ToOrderedBits(v); }

StatusOr<const int32_t*> I32Column(const engine::Table& t,
                                   const std::string& name) {
  MPTOPK_ASSIGN_OR_RETURN(const engine::Column* c, t.GetColumn(name));
  if (c->type != engine::ColumnType::kInt32) {
    return Status::InvalidArgument(name + " is not int32");
  }
  return c->i32.host_data();
}

std::vector<float> SortedDesc(std::vector<float> v) {
  std::sort(v.begin(), v.end(),
            [](float a, float b) { return Bits(a) > Bits(b); });
  return v;
}

}  // namespace

StatusOr<TweetOracle> TweetOracle::Make(const engine::Table& table) {
  TweetOracle o;
  o.rows_ = table.num_rows();
  MPTOPK_ASSIGN_OR_RETURN(const engine::Column* id, table.GetColumn("id"));
  if (id->type != engine::ColumnType::kInt64) {
    return Status::InvalidArgument("id is not int64");
  }
  o.id_ = id->i64.host_data();
  MPTOPK_ASSIGN_OR_RETURN(o.tweet_time_, I32Column(table, "tweet_time"));
  MPTOPK_ASSIGN_OR_RETURN(o.retweets_, I32Column(table, "retweet_count"));
  MPTOPK_ASSIGN_OR_RETURN(o.likes_, I32Column(table, "likes_count"));
  MPTOPK_ASSIGN_OR_RETURN(o.lang_, I32Column(table, "lang"));
  MPTOPK_ASSIGN_OR_RETURN(o.uid_, I32Column(table, "uid"));
  // Ids are dense from id[0]; the check maps an id to its row by offset and
  // then confirms the row holds that id.
  for (size_t i = 0; i < o.rows_; ++i) {
    if (o.id_[i] != o.id_[0] + static_cast<int64_t>(i)) {
      return Status::InvalidArgument("tweet ids are not dense");
    }
  }
  return o;
}

bool TweetOracle::Matches(const TweetQuery& q, size_t row) const {
  switch (q.shape) {
    case 1:
      return static_cast<double>(tweet_time_[row]) < Q1TimeBound(q.selectivity);
    case 3:
      return lang_[row] == engine::kLangEn || lang_[row] == engine::kLangEs;
    default:
      return true;
  }
}

float TweetOracle::Rank(const TweetQuery& q, size_t row) const {
  double v = 0.0;
  v += 1.0 * static_cast<double>(retweets_[row]);
  if (q.shape == 2) v += 0.5 * static_cast<double>(likes_[row]);
  return static_cast<float>(v);
}

const TweetOracle::Expected& TweetOracle::ExpectedFor(const TweetQuery& q) {
  const auto key = std::make_tuple(q.shape, q.shape == 1 ? q.selectivity : 0.0,
                                   q.k);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  Expected e;
  std::vector<float> ranks;
  for (size_t row = 0; row < rows_; ++row) {
    if (Matches(q, row)) ranks.push_back(Rank(q, row));
  }
  e.matched = ranks.size();
  const size_t k = std::min(q.k, ranks.size());
  std::partial_sort(ranks.begin(), ranks.begin() + k, ranks.end(),
                    [](float a, float b) { return Bits(a) > Bits(b); });
  e.top.assign(ranks.begin(), ranks.begin() + k);
  return cache_.emplace(key, std::move(e)).first->second;
}

Status TweetOracle::Check(const TweetQuery& q, const TweetAnswer& a,
                          Fingerprint* digest) {
  if (q.shape == 4) {
    MPTOPK_RETURN_NOT_OK(CheckGroupBy(q, a));
    for (size_t j = 0; j < a.keys.size(); ++j) {
      digest->Add(static_cast<uint64_t>(a.keys[j]));
      digest->Add(static_cast<uint64_t>(a.counts[j]));
    }
    return Status::OK();
  }
  const Expected& e = ExpectedFor(q);
  if (a.matched != e.matched) {
    return Status::Internal("matched " + std::to_string(a.matched) +
                            " rows, host filter matches " +
                            std::to_string(e.matched));
  }
  if (a.ids.size() != e.top.size() || a.ranks.size() != e.top.size()) {
    return Status::Internal("returned " + std::to_string(a.ids.size()) +
                            " ids, expected " + std::to_string(e.top.size()));
  }
  std::vector<float> row_ranks;
  for (size_t j = 0; j < a.ids.size(); ++j) {
    if (Bits(a.ranks[j]) != Bits(e.top[j])) {
      return Status::Internal("rank value " + std::to_string(j) + " is " +
                              std::to_string(a.ranks[j]) + ", host top-k has " +
                              std::to_string(e.top[j]));
    }
    const int64_t off = a.ids[j] - id_[0];
    if (off < 0 || off >= static_cast<int64_t>(rows_) ||
        id_[off] != a.ids[j]) {
      return Status::Internal("unknown id " + std::to_string(a.ids[j]));
    }
    const size_t row = static_cast<size_t>(off);
    if (!Matches(q, row)) {
      return Status::Internal("id " + std::to_string(a.ids[j]) +
                              " fails the filter");
    }
    row_ranks.push_back(Rank(q, row));
    digest->Add(static_cast<uint64_t>(a.ids[j]));
    digest->Add(static_cast<uint64_t>(Bits(a.ranks[j])));
  }
  std::vector<int64_t> ids = a.ids;
  std::sort(ids.begin(), ids.end());
  if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
    return Status::Internal("duplicate id in result");
  }
  row_ranks = SortedDesc(std::move(row_ranks));
  for (size_t j = 0; j < row_ranks.size(); ++j) {
    if (Bits(row_ranks[j]) != Bits(e.top[j])) {
      return Status::Internal("ranks of the returned rows differ from the host "
                              "top-k multiset at " + std::to_string(j));
    }
  }
  return Status::OK();
}

Status TweetOracle::CheckGroupBy(const TweetQuery& q, const TweetAnswer& a) {
  if (uid_counts_.empty()) {
    int32_t max_uid = 0;
    for (size_t row = 0; row < rows_; ++row) {
      if (uid_[row] < 0) return Status::InvalidArgument("negative uid");
      max_uid = std::max(max_uid, uid_[row]);
    }
    uid_counts_.assign(static_cast<size_t>(max_uid) + 1, 0);
    for (size_t row = 0; row < rows_; ++row) ++uid_counts_[uid_[row]];
    for (uint32_t c : uid_counts_) {
      if (c > 0) counts_desc_.push_back(c);
    }
    std::sort(counts_desc_.begin(), counts_desc_.end(),
              std::greater<uint32_t>());
  }
  if (a.num_groups != counts_desc_.size()) {
    return Status::Internal("found " + std::to_string(a.num_groups) +
                            " groups, host has " +
                            std::to_string(counts_desc_.size()));
  }
  const size_t k = std::min(q.k, counts_desc_.size());
  if (a.keys.size() != k || a.counts.size() != k) {
    return Status::Internal("returned " + std::to_string(a.keys.size()) +
                            " groups, expected " + std::to_string(k));
  }
  for (size_t j = 0; j < k; ++j) {
    if (a.counts[j] != counts_desc_[j]) {
      return Status::Internal("count " + std::to_string(j) + " is " +
                              std::to_string(a.counts[j]) + ", host has " +
                              std::to_string(counts_desc_[j]));
    }
    if (a.keys[j] < 0 ||
        static_cast<size_t>(a.keys[j]) >= uid_counts_.size() ||
        uid_counts_[a.keys[j]] != a.counts[j]) {
      return Status::Internal("uid " + std::to_string(a.keys[j]) +
                              " does not have count " +
                              std::to_string(a.counts[j]));
    }
  }
  std::vector<int32_t> keys = a.keys;
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return Status::Internal("duplicate group key in result");
  }
  return Status::OK();
}

std::vector<uint32_t> TopKOrderedBits(const std::vector<float>& data,
                                      size_t k) {
  std::vector<uint32_t> bits(data.size());
  for (size_t i = 0; i < data.size(); ++i) bits[i] = Bits(data[i]);
  k = std::min(k, bits.size());
  std::partial_sort(bits.begin(), bits.begin() + k, bits.end(),
                    std::greater<uint32_t>());
  bits.resize(k);
  return bits;
}

Status CheckTopK(const std::vector<uint32_t>& expected,
                 const std::vector<float>& got) {
  if (got.size() != expected.size()) {
    return Status::Internal("returned " + std::to_string(got.size()) +
                            " items, expected " +
                            std::to_string(expected.size()));
  }
  for (size_t j = 0; j < got.size(); ++j) {
    if (Bits(got[j]) != expected[j]) {
      return Status::Internal("item " + std::to_string(j) +
                              " differs from std::partial_sort");
    }
  }
  return Status::OK();
}

}  // namespace mptopk::perfbench
