// Resilient top-k execution (see resilient.h for the contract).
#include "planner/resilient.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "topk/registry.h"

namespace mptopk::planner {

std::string ExecutionReport::Summary() const {
  std::ostringstream os;
  os << (final_algorithm.empty() ? "<failed>" : final_algorithm) << " after "
     << attempts.size() << (attempts.size() == 1 ? " attempt" : " attempts")
     << " (" << retries << (retries == 1 ? " retry" : " retries") << ", "
     << fallbacks << (fallbacks == 1 ? " fallback" : " fallbacks");
  if (corruption_reruns > 0) {
    os << ", " << corruption_reruns << " corruption rerun"
       << (corruption_reruns == 1 ? "" : "s");
  }
  if (degraded_to_chunked) os << ", degraded to chunked";
  if (used_cpu) os << ", ran on CPU";
  os << ", " << backoff_ms << " ms backoff)";
  return os.str();
}

namespace {

/// Same-stage retries of a retryable (kUnavailable) failure before the
/// stage falls back; retry r waits kBackoffBaseMs * 2^r simulated ms.
constexpr int kMaxRetries = 3;
constexpr double kBackoffBaseMs = 0.25;

/// Simulated device clock: kernel time + charged backoff + PCIe staging.
double DeviceClockMs(const simt::ExecCtx& dev) {
  return dev.total_sim_ms() + dev.pcie_ms();
}

/// Total order on whole elements: rank (ElementTraits::Less), then payload.
/// Equal under it means the same element, so sorted copies group repeats.
template <typename E>
bool WholeLess(const E& a, const E& b) {
  if (ElementTraits<E>::Less(a, b)) return true;
  if (ElementTraits<E>::Less(b, a)) return false;
  if constexpr (requires { a.value; }) return a.value < b.value;
  return false;
}

// The result check: exactly k items, descending, and a correct top-k of the
// input for some choice among the elements tying the k-th item. The input
// elements that outrank the k-th item must equal, as a multiset of whole
// elements (payload included), the items ranked above it; every other item
// must be a distinct input element tying it. One O(n) pass over the input;
// each input element that reaches the k-th item is looked up in the items
// sorted by WholeLess.
template <typename E>
Status VerifyTopK(const E* input, size_t n, const std::vector<E>& items,
                  size_t k) {
  if (items.size() != k) {
    return Status::Internal(
        "verification: result has " + std::to_string(items.size()) +
        " items, expected " + std::to_string(k));
  }
  for (size_t i = 1; i < items.size(); ++i) {
    if (ElementTraits<E>::Less(items[i - 1], items[i])) {
      return Status::Internal("verification: result not descending at index " +
                              std::to_string(i));
    }
  }
  if (k == 0) return Status::OK();

  const E& kth = items.back();
  size_t above = 0;  // items ranked above the k-th: a prefix, as descending
  while (ElementTraits<E>::Less(kth, items[above])) ++above;

  // Item indices sorted by whole element; found[j] counts the input elements
  // equal to the run of equal items that starts at order[j].
  std::vector<size_t> order(k);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return WholeLess(items[a], items[b]);
  });
  std::vector<size_t> found(k, 0);
  size_t outrank = 0;  // input elements strictly greater than the k-th result
  size_t reach = 0;    // input elements >= the k-th result
  for (size_t i = 0; i < n; ++i) {
    const E& e = input[i];
    if (ElementTraits<E>::Less(e, kth)) continue;
    ++reach;
    if (ElementTraits<E>::Less(kth, e)) ++outrank;
    auto it = std::lower_bound(
        order.begin(), order.end(), e,
        [&](size_t j, const E& v) { return WholeLess(items[j], v); });
    if (it != order.end() && !WholeLess(e, items[*it])) {
      ++found[it - order.begin()];
    }
  }
  if (outrank > k - 1) {
    return Status::Internal(
        "verification: " + std::to_string(outrank) +
        " input elements outrank the k-th result element (max " +
        std::to_string(k - 1) + ")");
  }
  if (reach < k) {
    return Status::Internal(
        "verification: only " + std::to_string(reach) +
        " input elements reach the k-th result element (need " +
        std::to_string(k) + ")");
  }
  if (outrank != above) {
    return Status::Internal(
        "verification: " + std::to_string(outrank) +
        " input elements outrank the k-th result element, but " +
        std::to_string(above) + " result elements do");
  }
  // Each run of equal items needs as many equal input elements. With
  // outrank == above this also makes the outranking input elements exactly
  // the items above the k-th: each matches at most one run.
  for (size_t j = 0; j < k;) {
    size_t end = j + 1;
    while (end < k && !WholeLess(items[order[j]], items[order[end]])) ++end;
    if (found[j] < end - j) {
      return Status::Internal("verification: result element " +
                              std::to_string(order[j]) +
                              " is not a distinct input element");
    }
    j = end;
  }
  return Status::OK();
}

/// The items of an operator call, as a RunStage attempt.
template <typename E>
StatusOr<std::vector<E>> ItemsOf(StatusOr<gpu::TopKResult<E>> r) {
  if (!r.ok()) return r.status();
  return std::move(r.value().items);
}

/// A plain transfer as a RunStage attempt: no items, nothing to verify.
template <typename E>
StatusOr<std::vector<E>> NoItems(Status st) {
  if (!st.ok()) return st;
  return std::vector<E>{};
}

/// The one retry loop: runs one stage with bounded retry of retryable
/// faults (exponential simulated backoff) and one re-execution on a failed
/// result check (skipped when verify_input is null, e.g. transfers).
/// Failed attempts charge their device time (plus backoff) to the report's
/// added_latency_ms; on success stores the verified items (if `items`).
template <typename E, typename F>
Status RunStage(const simt::ExecCtx& dev, const std::string& stage,
                const E* verify_input, size_t n, size_t k, F&& fn,
                ExecutionReport* rep, std::vector<E>* items) {
  int retries = 0;
  int reruns = 0;
  Status last;
  while (true) {
    const double t0 = DeviceClockMs(dev);
    StatusOr<std::vector<E>> r = fn();
    AttemptRecord rec;
    rec.stage = stage;
    if (r.ok()) {
      Status v = verify_input != nullptr
                     ? VerifyTopK(verify_input, n, r.value(), k)
                     : Status::OK();
      if (v.ok()) {
        rep->attempts.push_back(std::move(rec));
        if (items != nullptr) *items = std::move(r).value();
        return Status::OK();
      }
      rec.code = v.code();
      rec.detail = v.message();
      rep->attempts.push_back(std::move(rec));
      ++rep->faults_seen;
      rep->added_latency_ms += DeviceClockMs(dev) - t0;
      last = v;
      if (reruns == 0) {  // one re-execution on corruption
        ++reruns;
        ++rep->corruption_reruns;
        continue;
      }
      return last.WithContext(stage + " (corrupt after re-execution)");
    }
    last = r.status();
    rec.code = last.code();
    rec.detail = last.message();
    ++rep->faults_seen;
    if (last.IsRetryable() && retries < kMaxRetries) {
      // Exponential backoff before retry number `retries` (0-based),
      // charged to the device clock and the report.
      rec.backoff_ms =
          kBackoffBaseMs * static_cast<double>(uint64_t{1} << retries);
      dev.AddSimulatedDelayMs(rec.backoff_ms);
      rep->backoff_ms += rec.backoff_ms;
      ++rep->retries;
      ++retries;
      rep->attempts.push_back(std::move(rec));
      rep->added_latency_ms += DeviceClockMs(dev) - t0;
      continue;
    }
    rep->attempts.push_back(std::move(rec));
    rep->added_latency_ms += DeviceClockMs(dev) - t0;
    return last.WithContext(stage);
  }
}

/// Walks the planner-ranked GPU operators (topk/registry.h) over
/// device-resident data, retrying within a stage and falling back across
/// stages. No chunked/CPU degrade here — callers layer those on.
template <typename E>
Status RunGpuStages(const simt::ExecCtx& dev, simt::DeviceBuffer<E>& data, size_t n,
                    size_t k, ExecutionReport* rep, std::vector<E>* items) {
  auto plan = PlanTopK(dev.spec(),
                       MakeWorkload<E>(dev, n, k, Distribution::kUniform));
  if (!plan.ok()) {
    rep->attempts.push_back(
        {"planner", plan.status().code(), plan.status().message(), 0.0});
    ++rep->faults_seen;
    return plan.status().WithContext("planner");
  }
  Status last = Status::Internal("planner returned no feasible operator");
  bool first = true;
  for (const OperatorEstimate& est : plan.value().ranked) {
    if (!first) ++rep->fallbacks;  // reached only after the previous failed
    first = false;
    const std::string& name = est.op->name();
    Status st = RunStage<E>(
        dev, name, data.host_data(), n, k,
        [&] { return ItemsOf(est.op->TopKDevice(dev, data, n, k)); }, rep,
        items);
    if (st.ok()) {
      rep->final_algorithm = name;
      return Status::OK();
    }
    last = st;
  }
  return last;
}

/// The final CPU stage over host-resident input: the registry's CPU
/// operators in caps fallback order (hand-rolled heap first), skipping any
/// whose caps reject this (element type, n, k) request.
template <typename E>
Status RunCpuStage(const simt::ExecCtx& dev, const E* data, size_t n, size_t k,
                   ExecutionReport* rep, std::vector<E>* items) {
  Status last = Status::Internal("no CPU operator registered");
  bool first = true;
  for (const topk::TopKOperator* op : topk::CpuFallbackChain()) {
    if (!op->CheckCaps(topk::ElemTypeOf<E>::value, n, k).ok()) continue;
    if (!first) ++rep->fallbacks;
    first = false;
    Status st = RunStage<E>(
        dev, op->name(), data, n, k,
        [&] { return ItemsOf(op->TopKHost(dev, data, n, k)); }, rep, items);
    if (st.ok()) {
      rep->used_cpu = true;
      rep->final_algorithm = op->name();
      return st;
    }
    last = st;
  }
  return last;
}

}  // namespace

template <typename E>
StatusOr<ResilientResult<E>> ResilientTopKDevice(
    const simt::ExecCtx& dev, simt::DeviceBuffer<E>& data, size_t n,
    size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("ResilientTopKDevice: require 1 <= k <= n");
  }
  if (n > data.size()) {
    return Status::InvalidArgument(
        "ResilientTopKDevice: n exceeds device buffer size");
  }
  ResilientResult<E> out;

  Status st = RunGpuStages(dev, data, n, k, &out.report, &out.items);
  if (!st.ok()) {
    ++out.report.fallbacks;
    // Accounted readback of the input (itself subject to transient faults).
    std::vector<E> host(n);
    Status rb = RunStage<E>(
        dev, "cpu-readback", nullptr, n, k,
        [&] { return NoItems<E>(dev.CopyToHost(host.data(), data, n)); },
        &out.report, nullptr);
    if (!rb.ok()) {
      return rb.WithContext("ResilientTopKDevice: input readback failed");
    }
    st = RunCpuStage(dev, host.data(), n, k, &out.report, &out.items);
  }
  if (!st.ok()) {
    return st.WithContext("ResilientTopKDevice: all stages failed");
  }
  return out;
}

template <typename E>
StatusOr<ResilientResult<E>> ResilientTopK(const simt::ExecCtx& dev, const E* data,
                                           size_t n, size_t k) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("ResilientTopK: require 1 <= k <= n");
  }
  ResilientResult<E> out;
  bool done = false;

  const size_t bytes = n * sizeof(E);
  const size_t used = dev.allocated_bytes();
  const size_t free_bytes =
      dev.spec().global_mem_bytes > used ? dev.spec().global_mem_bytes - used
                                         : 0;
  // The resident path needs the input plus algorithm scratch; require modest
  // headroom before attempting it, else degrade to streaming immediately.
  if (bytes + bytes / 8 <= free_bytes) {
    // Stage the input. An allocation failure (device full / injected)
    // degrades to chunked; transient copy faults retry like any stage.
    auto buf = dev.Alloc<E>(n);
    if (!buf.ok()) {
      out.report.attempts.push_back({"stage-input", buf.status().code(),
                                     buf.status().message(), 0.0});
      ++out.report.faults_seen;
    } else {
      Status cp = RunStage<E>(
          dev, "stage-input", nullptr, n, k,
          [&] { return NoItems<E>(dev.CopyToDevice(buf.value(), data, n)); },
          &out.report, nullptr);
      done = cp.ok() &&
             RunGpuStages(dev, buf.value(), n, k, &out.report, &out.items)
                 .ok();
    }
  } else {
    out.report.attempts.push_back(
        {"resident", StatusCode::kResourceExhausted,
         "input (" + std::to_string(bytes) +
             " bytes) exceeds free device memory (" +
             std::to_string(free_bytes) + " bytes)",
         0.0});
  }

  const topk::TopKOperator* streaming = topk::StreamingFallback();
  if (!done && streaming != nullptr &&
      streaming->CheckCaps(topk::ElemTypeOf<E>::value, n, k).ok()) {
    ++out.report.fallbacks;
    out.report.degraded_to_chunked = true;
    Status st = RunStage<E>(
        dev, streaming->name(), data, n, k,
        [&] { return ItemsOf(streaming->TopKHost(dev, data, n, k)); },
        &out.report, &out.items);
    if (st.ok()) {
      out.report.final_algorithm = streaming->name();
      done = true;
    }
  }
  if (!done) {
    ++out.report.fallbacks;
    Status st = RunCpuStage(dev, data, n, k, &out.report, &out.items);
    if (!st.ok()) return st.WithContext("ResilientTopK: all stages failed");
  }
  return out;
}

#define MPTOPK_INSTANTIATE_RESILIENT(E)                                  \
  template StatusOr<ResilientResult<E>> ResilientTopKDevice<E>(          \
      const simt::ExecCtx&, simt::DeviceBuffer<E>&, size_t, size_t);     \
  template StatusOr<ResilientResult<E>> ResilientTopK<E>(                \
      const simt::ExecCtx&, const E*, size_t, size_t);

MPTOPK_INSTANTIATE_RESILIENT(float)
MPTOPK_INSTANTIATE_RESILIENT(double)
MPTOPK_INSTANTIATE_RESILIENT(uint32_t)
MPTOPK_INSTANTIATE_RESILIENT(int32_t)
MPTOPK_INSTANTIATE_RESILIENT(KV)

#undef MPTOPK_INSTANTIATE_RESILIENT

}  // namespace mptopk::planner
