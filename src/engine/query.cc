// Query execution kernels: filter/project materialization, the Section 5
// FusedSortReducer (filter as buffer-filler feeding the in-shared bitonic
// reduction), hash group-by count, and id gathering.
#include "engine/query.h"

#include <algorithm>
#include <optional>

#include "common/bits.h"
#include "gputopk/bitonic_kernels.h"
#include "gputopk/kernel_util.h"
#include "gputopk/radix_sort.h"
#include "planner/resilient.h"
#include "topk/registry.h"

namespace mptopk::engine {
namespace {

using gpu::TopKResult;
using simt::Block;
using simt::DeviceBuffer;
using simt::GlobalSpan;
using simt::SharedSpan;
using simt::Thread;
using KV = mptopk::KV;

constexpr int kBlockDim = 256;
constexpr int kMaxGrid = 128;
constexpr size_t kFilterTile = 2048;
constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

// A column resolved to device spans, readable as double inside kernels.
struct ColRef {
  ColumnType type = ColumnType::kInt32;
  GlobalSpan<int32_t> i32;
  GlobalSpan<int64_t> i64;
  GlobalSpan<float> f32;

  double Read(Thread& t, size_t row) const {
    switch (type) {
      case ColumnType::kInt32:
        return static_cast<double>(i32.Read(t, row));
      case ColumnType::kInt64:
        return static_cast<double>(i64.Read(t, row));
      case ColumnType::kFloat32:
        return static_cast<double>(f32.Read(t, row));
    }
    return 0;
  }
};

StatusOr<ColRef> Resolve(const Table& table, const std::string& name) {
  MPTOPK_ASSIGN_OR_RETURN(const Column* col, table.GetColumn(name));
  ColRef ref;
  ref.type = col->type;
  switch (col->type) {
    case ColumnType::kInt32:
      ref.i32 = GlobalSpan<int32_t>(const_cast<Column*>(col)->i32);
      break;
    case ColumnType::kInt64:
      ref.i64 = GlobalSpan<int64_t>(const_cast<Column*>(col)->i64);
      break;
    case ColumnType::kFloat32:
      ref.f32 = GlobalSpan<float>(const_cast<Column*>(col)->f32);
      break;
  }
  return ref;
}

bool Compare(CompareOp op, double lhs, double rhs) {
  switch (op) {
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
    case CompareOp::kEq:
      return lhs == rhs;
  }
  return false;
}

struct CompiledClause {
  ColRef col;
  CompareOp op;
  double value;
};

// Filter + ranking with resolved columns, evaluable per row in kernels.
struct CompiledQuery {
  // CNF: every disjunction must match; empty = match all.
  std::vector<std::vector<CompiledClause>> conjuncts;
  std::vector<std::pair<ColRef, double>> rank_terms;

  bool Match(Thread& t, size_t row) const {
    for (const auto& disjunction : conjuncts) {
      bool any = false;
      for (const auto& c : disjunction) {
        if (Compare(c.op, c.col.Read(t, row), c.value)) {
          any = true;
          break;  // short-circuit, like generated predicate code
        }
      }
      if (!any) return false;
    }
    return true;
  }

  float RankValue(Thread& t, size_t row) const {
    double v = 0;
    for (const auto& [col, coeff] : rank_terms) {
      v += coeff * col.Read(t, row);
    }
    return static_cast<float>(v);
  }
};

StatusOr<CompiledQuery> Compile(const Table& table, const Filter& filter,
                                const Ranking& ranking) {
  CompiledQuery q;
  for (const auto& disjunction : filter.all_of) {
    if (disjunction.any_of.empty()) {
      return Status::InvalidArgument("empty disjunction in filter");
    }
    std::vector<CompiledClause> compiled;
    for (const auto& clause : disjunction.any_of) {
      MPTOPK_ASSIGN_OR_RETURN(ColRef col, Resolve(table, clause.column));
      compiled.push_back(CompiledClause{col, clause.op, clause.value});
    }
    q.conjuncts.push_back(std::move(compiled));
  }
  if (ranking.terms.empty()) {
    return Status::InvalidArgument("ranking needs at least one term");
  }
  for (const auto& term : ranking.terms) {
    MPTOPK_ASSIGN_OR_RETURN(ColRef col, Resolve(table, term.column));
    q.rank_terms.emplace_back(col, term.coeff);
  }
  return q;
}

// Per-block shared staging for scan-based stream compaction into KV rows.
// Shared addresses, and therefore bank conflicts, follow allocation order,
// so each kernel constructs it after the shared arrays it allocates first.
struct BlockCompactor {
  explicit BlockCompactor(Block& blk)
      : compact(blk.AllocShared<KV>(kFilterTile)),
        th(blk.AllocShared<uint32_t>(kBlockDim)),
        scratch(blk.AllocShared<uint32_t>(kBlockDim)),
        meta(blk.AllocShared<uint32_t>(2)) {}

  // Compacts one tile of `count` rows: counts the rows `keep(t, i)` accepts,
  // reserves their output range with one AtomicAdd on counters[0], scatters
  // each row's `emit(t, i)` (a KV for kept rows) in row order and flushes
  // the staged rows to `out` coalesced.
  template <typename Keep, typename Emit>
  void Tile(Block& blk, size_t count, Keep&& keep, Emit&& emit,
            GlobalSpan<uint32_t> counters, GlobalSpan<KV> out) {
    blk.ForEachThread([&](Thread& t) {
      uint32_t c = 0;
      for (size_t i = t.tid; i < count; i += kBlockDim) c += keep(t, i);
      th.Write(t, t.tid, c);
    });
    blk.Sync();
    uint32_t total = 0;
    gpu::BlockExclusiveScan(blk, th, kBlockDim, scratch, &total);
    blk.ForEachThread([&](Thread& t) {
      if (t.tid == 0) {
        meta.Write(t, 0, counters.AtomicAdd(t, 0, total));
        meta.Write(t, 1, total);
      }
    });
    blk.Sync();
    blk.ForEachThread([&](Thread& t) {
      uint32_t pos = th.Read(t, t.tid);
      for (size_t i = t.tid; i < count; i += kBlockDim) {
        if (std::optional<KV> kv = emit(t, i)) compact.Write(t, pos++, *kv);
      }
    });
    blk.Sync();
    blk.ForEachThread([&](Thread& t) {
      uint32_t base_out = meta.Read(t, 0);
      uint32_t total_out = meta.Read(t, 1);
      for (uint32_t i = t.tid; i < total_out; i += kBlockDim) {
        out.Write(t, base_out + i, compact.Read(t, i));
      }
    });
    blk.Sync();
  }

  SharedSpan<KV> compact;
  SharedSpan<uint32_t> th;
  SharedSpan<uint32_t> scratch;
  SharedSpan<uint32_t> meta;
};

// Materializes matched (rank, row) pairs compacted into `out` (scan-based
// staging, coalesced write-out); counters[0] accumulates the match count.
Status LaunchFilterProject(const simt::ExecCtx& dev, const CompiledQuery& q,
                           size_t n, GlobalSpan<KV> out,
                           GlobalSpan<uint32_t> counters) {
  const gpu::TilePartition part(n, kFilterTile, kMaxGrid);
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kBlockDim,
       .name = "filter_project"},
      [&](Block& blk) {
        auto kv_tile = blk.AllocShared<KV>(kFilterTile);
        auto flags = blk.AllocShared<uint32_t>(kFilterTile);
        BlockCompactor compactor(blk);

        const size_t range_hi = part.hi(blk.block_idx());
        for (size_t base = part.lo(blk.block_idx()); base < range_hi;
             base += kFilterTile) {
          size_t count = std::min(kFilterTile, range_hi - base);
          // Evaluate: one global read per referenced column per row.
          blk.ForEachThread([&](Thread& t) {
            for (size_t i = t.tid; i < count; i += kBlockDim) {
              size_t row = base + i;
              bool m = q.Match(t, row);
              flags.Write(t, i, m ? 1u : 0u);
              if (m) {
                kv_tile.Write(t, i,
                              KV{q.RankValue(t, row),
                                 static_cast<uint32_t>(row)});
              }
            }
          });
          blk.Sync();
          compactor.Tile(
              blk, count,
              [&](Thread& t, size_t i) { return flags.Read(t, i); },
              [&](Thread& t, size_t i) -> std::optional<KV> {
                if (flags.Read(t, i) == 0) return std::nullopt;
                return kv_tile.Read(t, i);
              },
              counters, out);
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

// The Section 5 FusedSortReducer: reads nt rows at a time, filters and
// evaluates the ranking, compacts matches into a 16*nt shared buffer, and
// whenever more than 15*nt have accumulated (or input ends) runs the
// SortReducer reduction on the buffer, emitting tile/2^merges candidates
// (bitonic k-runs) per flush. counters[0] = candidates emitted,
// counters[1] = matched rows.
Status LaunchFusedFilterTopK(const simt::ExecCtx& dev, const CompiledQuery& q,
                             const gpu::TilePartition& part, size_t k,
                             const gpu::BitonicGeometry& g,
                             GlobalSpan<KV> out,
                             GlobalSpan<uint32_t> counters) {
  const size_t opb = g.OutPerBlock();
  const gpu::BitonicNetwork net(k);
  const auto ops = gpu::BitonicReduceSchedule(g.tile, opb, /*unsorted=*/true);
  const KV sentinel = ElementTraits<KV>::LowestSentinel();
  const size_t flush_level = g.tile - g.nt;  // paper: "> 15*nt matched"

  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = g.nt, .regs_per_thread = g.B + 16,
       .name = "fused_filter_topk"},
      [&](Block& blk) {
        auto s = blk.AllocShared<KV>(g.SharedElems(g.tile));
        auto chunk = blk.AllocShared<KV>(g.nt);
        auto th = blk.AllocShared<uint32_t>(g.nt);
        auto scratch = blk.AllocShared<uint32_t>(g.nt);
        auto meta = blk.AllocShared<uint32_t>(2);

        const size_t range_hi = part.hi(blk.block_idx());
        size_t fill = 0;
        uint32_t matched_total = 0;

        auto flush = [&]() {
          // Sentinel-pad, local sort to k-runs, merge-reduce, emit.
          blk.ForEachThread([&](Thread& t) {
            for (size_t i = fill + t.tid; i < g.tile; i += g.nt) {
              s.Write(t, g.PadIdx(i), sentinel);
            }
          });
          blk.Sync();
          gpu::bitonic::ReduceShared(blk, s, ops, net, g);
          blk.ForEachThread([&](Thread& t) {
            if (t.tid == 0) {
              meta.Write(t, 0, counters.AtomicAdd(
                                   t, 0, static_cast<uint32_t>(opb)));
            }
          });
          blk.Sync();
          blk.ForEachThread([&](Thread& t) {
            uint32_t base_out = meta.Read(t, 0);
            for (size_t i = t.tid; i < opb; i += g.nt) {
              out.Write(t, base_out + i, s.Read(t, g.PadIdx(i)));
            }
          });
          blk.Sync();
          fill = 0;
        };

        for (size_t base = part.lo(blk.block_idx()); base < range_hi;
             base += g.nt) {
          size_t count = std::min<size_t>(g.nt, range_hi - base);
          // Buffer filler: one row per thread.
          blk.ForEachThread([&](Thread& t) {
            bool m = false;
            if (static_cast<size_t>(t.tid) < count) {
              size_t row = base + t.tid;
              m = q.Match(t, row);
              if (m) {
                chunk.Write(t, t.tid,
                            KV{q.RankValue(t, row),
                               static_cast<uint32_t>(row)});
              }
            }
            th.Write(t, t.tid, m ? 1u : 0u);
          });
          blk.Sync();
          uint32_t total = 0;
          gpu::BlockExclusiveScan(blk, th, g.nt, scratch, &total);
          blk.ForEachThread([&](Thread& t) {
            if (static_cast<size_t>(t.tid) < count) {
              // Re-read own flag via scan offsets: a thread's slot changed
              // to its exclusive offset; matched iff next offset differs.
              uint32_t off = th.Read(t, t.tid);
              uint32_t next = t.tid + 1 < blk.block_dim()
                                  ? th.Read(t, t.tid + 1)
                                  : total;
              if (next != off) {
                s.Write(t, g.PadIdx(fill + off), chunk.Read(t, t.tid));
              }
            }
          });
          blk.Sync();
          fill += total;
          matched_total += total;
          if (fill > flush_level) flush();
        }
        if (fill > 0) flush();
        blk.ForEachThread([&](Thread& t) {
          if (t.tid == 0 && matched_total > 0) {
            counters.ReduceAdd(t, 1, matched_total);
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Fetches the id column for the (small) top-k row set.
Status LaunchGatherIds(const simt::ExecCtx& dev, GlobalSpan<int64_t> id_col,
                       GlobalSpan<uint32_t> rows, size_t count,
                       GlobalSpan<int64_t> out) {
  return gpu::LaunchGridStride(
      dev, "gather_ids", count, kBlockDim, 1, [&](Thread& t, size_t i) {
        out.Write(t, i, id_col.Read(t, rows.Read(t, i)));
      });
}

// --- Group-by ----------------------------------------------------------------

uint32_t HashSlots(size_t n) {
  return static_cast<uint32_t>(NextPowerOfTwo(2 * n));
}

// Open-addressing hash build: keys via CAS, counts via atomicAdd.
Status LaunchHashBuild(const simt::ExecCtx& dev, GlobalSpan<int32_t> group_col,
                       size_t n, GlobalSpan<uint32_t> keys,
                       GlobalSpan<uint32_t> counts, uint32_t mask) {
  const gpu::TilePartition part(n, kFilterTile, kMaxGrid);
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kBlockDim, .name = "groupby_hash"},
      [&](Block& blk) {
        const size_t lo = part.lo(blk.block_idx());
        const size_t hi = part.hi(blk.block_idx());
        blk.ForEachThread([&](Thread& t) {
          for (size_t i = lo + t.tid; i < hi; i += kBlockDim) {
            uint32_t key = static_cast<uint32_t>(group_col.Read(t, i));
            uint32_t slot = (key * 2654435761u) & mask;
            while (true) {
              uint32_t cur = keys.AtomicCas(t, slot, kEmptySlot, key);
              if (cur == kEmptySlot || cur == key) {
                counts.ReduceAdd(t, slot, 1u);
                break;
              }
              slot = (slot + 1) & mask;
            }
          }
        });
      });
  return st.ok() ? Status::OK() : st.status();
}

// Compacts occupied hash slots into (count, key) pairs.
Status LaunchCompactGroups(const simt::ExecCtx& dev, GlobalSpan<uint32_t> keys,
                           GlobalSpan<uint32_t> counts, size_t slots,
                           GlobalSpan<KV> out,
                           GlobalSpan<uint32_t> counters) {
  const gpu::TilePartition part(slots, kFilterTile, kMaxGrid);
  auto st = dev.Launch(
      {.grid_dim = part.grid, .block_dim = kBlockDim,
       .name = "groupby_compact"},
      [&](Block& blk) {
        BlockCompactor compactor(blk);
        const size_t range_hi = part.hi(blk.block_idx());
        for (size_t base = part.lo(blk.block_idx()); base < range_hi;
             base += kFilterTile) {
          size_t count = std::min(kFilterTile, range_hi - base);
          compactor.Tile(
              blk, count,
              [&](Thread& t, size_t i) {
                return keys.Read(t, base + i) != kEmptySlot;
              },
              [&](Thread& t, size_t i) -> std::optional<KV> {
                uint32_t key = keys.Read(t, base + i);
                if (key == kEmptySlot) return std::nullopt;
                return KV{static_cast<float>(counts.Read(t, base + i)), key};
              },
              counters, out);
        }
      });
  return st.ok() ? Status::OK() : st.status();
}

// Resolves the operator for a query's top-k step: the ExecOptions override
// when set, otherwise the strategy's default registry name.
StatusOr<const topk::TopKOperator*> ResolveTopKOperator(
    const ExecOptions& exec, const char* strategy_default) {
  return topk::FindOperator(exec.topk_operator.empty() ? strategy_default
                                                       : exec.topk_operator);
}

// Runs the top-k step through the resilient executor and captures its
// one-line report for the query result.
StatusOr<TopKResult<KV>> ResilientStep(const simt::ExecCtx& dev,
                                       DeviceBuffer<KV>& data, size_t n,
                                       size_t k, std::string* summary) {
  MPTOPK_ASSIGN_OR_RETURN(auto r,
                          planner::ResilientTopKDevice<KV>(dev, data, n, k));
  *summary = r.report.Summary();
  TopKResult<KV> top;
  top.items = std::move(r.items);
  return top;
}

}  // namespace

StatusOr<QueryResult> FilterTopKQuery(Table& table, const Filter& filter,
                                      const Ranking& ranking,
                                      const std::string& id_column, size_t k,
                                      TopKStrategy strategy,
                                      const ExecOptions& exec) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  simt::ExecCtx default_ctx(*table.device());
  const simt::ExecCtx& dev = exec.ctx != nullptr ? *exec.ctx : default_ctx;
  const size_t n = table.num_rows();
  MPTOPK_ASSIGN_OR_RETURN(const Column* id_col_ptr,
                          table.GetColumn(id_column));
  if (id_col_ptr->type != ColumnType::kInt64) {
    return Status::InvalidArgument("id column must be int64");
  }
  MPTOPK_ASSIGN_OR_RETURN(CompiledQuery q, Compile(table, filter, ranking));

  MPTOPK_ASSIGN_OR_RETURN(auto counters, dev.Alloc<uint32_t>(2));
  counters.host_data()[0] = 0;
  counters.host_data()[1] = 0;
  GlobalSpan<uint32_t> cnts(counters);

  TopKResult<KV> top;
  size_t matched = 0;
  std::string resilience_summary;

  if (strategy == TopKStrategy::kCombinedBitonic) {
    const size_t k2 = NextPowerOfTwo(k);
    MPTOPK_ASSIGN_OR_RETURN(
        auto g, gpu::ResolveBitonicGeometry(dev.spec(), sizeof(KV), k2,
                                            gpu::BitonicOptions{}));
    // Candidate capacity: every block flushes tile >> merges runs each time
    // its buffer passes the flush level, plus its final partial flush.
    const gpu::TilePartition part(n, g.tile, kMaxGrid);
    const size_t max_flushes_per_block =
        CeilDiv(part.per_block, g.tile - g.nt) + 2;
    MPTOPK_ASSIGN_OR_RETURN(
        auto cand, dev.Alloc<KV>(part.grid * max_flushes_per_block *
                                 g.OutPerBlock()));
    GlobalSpan<KV> cand_span(cand);
    MPTOPK_RETURN_NOT_OK(
        LaunchFusedFilterTopK(dev, q, part, k2, g, cand_span, cnts));
    uint32_t counter_vals[2];
    MPTOPK_RETURN_NOT_OK(dev.CopyToHost(counter_vals, counters, 2));
    matched = counter_vals[1];
    size_t emitted = counter_vals[0];
    if (matched == 0) return QueryResult{};
    auto reduced = gpu::BitonicReduceRuns(dev, cand, emitted, k2);
    if (reduced.ok()) {
      top = std::move(reduced).value();
    } else if (exec.resilient) {
      // Recovery path: the candidate runs are a superset of the global
      // top-k, so a resilient top-k over them yields the same answer.
      const size_t k_r = std::min(std::min(k, matched), emitted);
      MPTOPK_ASSIGN_OR_RETURN(
          top, ResilientStep(dev, cand, emitted, k_r, &resilience_summary));
    } else {
      return reduced.status();
    }
  } else {
    MPTOPK_ASSIGN_OR_RETURN(auto kv_buf, dev.Alloc<KV>(std::max<size_t>(n, 1)));
    GlobalSpan<KV> kv_span(kv_buf);
    MPTOPK_RETURN_NOT_OK(LaunchFilterProject(dev, q, n, kv_span, cnts));
    uint32_t counter_vals[2];
    MPTOPK_RETURN_NOT_OK(dev.CopyToHost(counter_vals, counters, 2));
    matched = counter_vals[0];
    if (matched == 0) return QueryResult{};
    const size_t k_eff = std::min(k, matched);
    if (exec.resilient) {
      MPTOPK_ASSIGN_OR_RETURN(top, ResilientStep(dev, kv_buf, matched, k_eff,
                                                 &resilience_summary));
    } else {
      MPTOPK_ASSIGN_OR_RETURN(
          const topk::TopKOperator* op,
          ResolveTopKOperator(exec, strategy == TopKStrategy::kFilterSort
                                        ? "Sort"
                                        : "BitonicTopK"));
      MPTOPK_ASSIGN_OR_RETURN(top, op->TopKDevice(dev, kv_buf, matched,
                                                  k_eff));
    }
  }

  // Trim sentinels (combined path may round k up / pad short matches).
  const size_t k_out = std::min(k, matched);
  top.items.resize(std::min(top.items.size(), k_out));

  // Assemble ids on device (paper: "copies the top-k tweet ids and
  // assembles the tweet").
  QueryResult result;
  result.matched_rows = matched;
  if (!top.items.empty()) {
    std::vector<uint32_t> rows(top.items.size());
    for (size_t i = 0; i < top.items.size(); ++i) {
      rows[i] = top.items[i].value;
      result.rank_values.push_back(top.items[i].key);
    }
    MPTOPK_ASSIGN_OR_RETURN(auto rows_buf,
                            dev.Alloc<uint32_t>(rows.size()));
    MPTOPK_RETURN_NOT_OK(dev.CopyToDevice(rows_buf, rows.data(), rows.size()));
    MPTOPK_ASSIGN_OR_RETURN(auto ids_buf, dev.Alloc<int64_t>(rows.size()));
    GlobalSpan<int64_t> ids_span(ids_buf);
    GlobalSpan<uint32_t> rows_span(rows_buf);
    GlobalSpan<int64_t> id_col(const_cast<Column*>(id_col_ptr)->i64);
    MPTOPK_RETURN_NOT_OK(
        LaunchGatherIds(dev, id_col, rows_span, rows.size(), ids_span));
    result.ids.resize(rows.size());
    MPTOPK_RETURN_NOT_OK(dev.CopyToHost(result.ids.data(), ids_buf, rows.size()));
  }
  result.resilience_summary = std::move(resilience_summary);
  return result;
}

StatusOr<GroupByResult> GroupByCountTopKQuery(Table& table,
                                              const std::string& group_column,
                                              size_t k, GroupByStrategy strategy,
                                              const ExecOptions& exec) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  simt::ExecCtx default_ctx(*table.device());
  const simt::ExecCtx& dev = exec.ctx != nullptr ? *exec.ctx : default_ctx;
  const size_t n = table.num_rows();
  MPTOPK_ASSIGN_OR_RETURN(const Column* gcol, table.GetColumn(group_column));
  if (gcol->type != ColumnType::kInt32) {
    return Status::InvalidArgument("group column must be int32");
  }

  // A negative key would alias the hash table's empty-slot marker once cast
  // to uint32_t, so it is rejected before anything runs on the device.
  const int32_t* gvals = gcol->i32.host_data();
  if (std::any_of(gvals, gvals + n, [](int32_t v) { return v < 0; })) {
    return Status::InvalidArgument("group column '" + group_column +
                                   "' has a negative value");
  }

  const simt::DeviceTimeTracker tracker(dev.device());
  const uint32_t slots = HashSlots(n);
  MPTOPK_ASSIGN_OR_RETURN(auto keys, dev.Alloc<uint32_t>(slots));
  MPTOPK_ASSIGN_OR_RETURN(auto counts, dev.Alloc<uint32_t>(slots));
  MPTOPK_RETURN_NOT_OK(
      gpu::FillDevice<uint32_t>(dev, keys, 0, slots, kEmptySlot));
  MPTOPK_RETURN_NOT_OK(gpu::FillDevice<uint32_t>(dev, counts, 0, slots, 0));

  GlobalSpan<int32_t> gspan(const_cast<Column*>(gcol)->i32);
  GlobalSpan<uint32_t> kspan(keys), cspan(counts);
  MPTOPK_RETURN_NOT_OK(
      LaunchHashBuild(dev, gspan, n, kspan, cspan, slots - 1));

  MPTOPK_ASSIGN_OR_RETURN(auto groups, dev.Alloc<KV>(slots));
  MPTOPK_ASSIGN_OR_RETURN(auto counter, dev.Alloc<uint32_t>(1));
  counter.host_data()[0] = 0;
  GlobalSpan<KV> gr(groups);
  GlobalSpan<uint32_t> ct(counter);
  MPTOPK_RETURN_NOT_OK(LaunchCompactGroups(dev, kspan, cspan, slots, gr, ct));
  uint32_t num_groups = 0;
  MPTOPK_RETURN_NOT_OK(dev.CopyToHost(&num_groups, counter, 1));
  const double groupby_ms = tracker.ElapsedMs();

  GroupByResult result;
  result.num_groups = num_groups;
  result.groupby_ms = groupby_ms;
  if (num_groups == 0) return result;
  const size_t k_eff = std::min<size_t>(k, num_groups);
  TopKResult<KV> top;
  if (exec.resilient) {
    MPTOPK_ASSIGN_OR_RETURN(top,
                            ResilientStep(dev, groups, num_groups, k_eff,
                                          &result.resilience_summary));
  } else {
    MPTOPK_ASSIGN_OR_RETURN(
        const topk::TopKOperator* op,
        ResolveTopKOperator(exec, strategy == GroupByStrategy::kSort
                                      ? "Sort"
                                      : "BitonicTopK"));
    MPTOPK_ASSIGN_OR_RETURN(top, op->TopKDevice(dev, groups, num_groups,
                                                k_eff));
  }
  result.topk_ms = tracker.ElapsedMs() - groupby_ms;
  for (const KV& kv : top.items) {
    result.keys.push_back(static_cast<int32_t>(kv.value));
    result.counts.push_back(static_cast<uint32_t>(kv.key));
  }
  return result;
}

}  // namespace mptopk::engine
