#include "engine/batch.h"

#include <algorithm>
#include <cstdio>

#include "topk/registry.h"

namespace mptopk::engine {

std::string BatchReport::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%zu queries (%zu failed) | makespan %.3f ms vs serialized "
                "%.3f ms (%.2fx) | %.1f q/s | peak mem %.1f MiB, %llu pooled "
                "reuses",
                items.size(), failed, makespan_ms, serialized_sum_ms,
                makespan_ms > 0 ? serialized_sum_ms / makespan_ms : 0.0,
                queries_per_sec, peak_allocated_bytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(pool_reuse_count));
  return buf;
}

BatchExecutor::BatchExecutor(Table& table, int num_streams) : table_(table) {
  num_streams = std::max(1, num_streams);
  streams_.reserve(num_streams);
  for (int i = 0; i < num_streams; ++i) {
    streams_.push_back(
        table_.device()->CreateStream("batch-" + std::to_string(i)));
  }
}

StatusOr<BatchReport> BatchExecutor::Execute(
    const std::vector<BatchQuery>& queries) {
  simt::Device& dev = *table_.device();
  // A batch naming an unknown top-k operator is malformed: resolve every
  // override against the registry up front rather than failing per item.
  for (const BatchQuery& q : queries) {
    if (!q.exec.topk_operator.empty()) {
      MPTOPK_RETURN_NOT_OK(topk::FindOperator(q.exec.topk_operator).status());
    }
  }
  BatchReport report;
  report.items.reserve(queries.size());

  const uint64_t reuse_before = dev.pool_reuse_count();
  // Batch epoch: the earliest point any stream in the pool can start.
  double epoch = streams_.front()->now_ms();
  for (simt::Stream* s : streams_) epoch = std::min(epoch, s->now_ms());
  const int concurrency =
      static_cast<int>(std::min<size_t>(streams_.size(), queries.size()));

  double max_finish = epoch;
  for (size_t i = 0; i < queries.size(); ++i) {
    const BatchQuery& q = queries[i];
    simt::Stream* stream = streams_[i % streams_.size()];
    simt::MemoryArena arena(q.label.empty() ? "query-" + std::to_string(i)
                                            : q.label);
    simt::ExecCtx ctx(dev, stream, &arena);
    ctx.set_concurrency_hint(concurrency);

    BatchItemReport item;
    item.label = arena.name;
    item.stream_id = stream->id();
    item.start_ms = stream->now_ms();

    ExecOptions exec = q.exec;
    exec.ctx = &ctx;
    const simt::DeviceTimeTracker clock(dev);
    switch (q.kind) {
      case BatchQuery::Kind::kFilterTopK: {
        auto r = FilterTopKQuery(table_, q.filter, q.ranking, q.id_column,
                                 q.k, q.strategy, exec);
        if (r.ok()) {
          item.result = std::move(r).value();
        } else {
          item.status = r.status();
        }
        break;
      }
      case BatchQuery::Kind::kGroupByCount: {
        auto r = GroupByCountTopKQuery(table_, q.group_column, q.k,
                                       q.groupby_strategy, exec);
        if (r.ok()) {
          item.group_result = std::move(r).value();
        } else {
          item.status = r.status();
        }
        break;
      }
    }
    item.finish_ms = stream->now_ms();
    item.kernel_ms = clock.ElapsedMs();
    item.arena_peak_bytes = arena.peak_bytes;
    if (!item.status.ok()) ++report.failed;
    report.serialized_sum_ms += item.finish_ms - item.start_ms;
    max_finish = std::max(max_finish, item.finish_ms);
    report.items.push_back(std::move(item));
  }

  report.makespan_ms = max_finish - epoch;
  if (report.makespan_ms > 0) {
    report.queries_per_sec =
        static_cast<double>(queries.size()) / (report.makespan_ms * 1e-3);
  }
  report.peak_allocated_bytes = dev.peak_allocated_bytes();
  report.pool_reuse_count = dev.pool_reuse_count() - reuse_before;
  report.footprint_bytes = dev.footprint_bytes();
  return report;
}

}  // namespace mptopk::engine
