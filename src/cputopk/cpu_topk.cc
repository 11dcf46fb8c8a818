// CPU top-k implementations (paper Section 6.7 + Appendix C).
#include "cputopk/cpu_topk.h"

#include <algorithm>
#include <queue>
#include <thread>

#include "common/bits.h"
#include "cputopk/simd_step.h"
#include "gputopk/bitonic_plan.h"

namespace mptopk::cpu {
namespace {

template <typename E>
struct DescendingByTraits {
  bool operator()(const E& a, const E& b) const {
    return ElementTraits<E>::Less(b, a);
  }
};

// --- Heap baselines ----------------------------------------------------------

// STL priority_queue as a size-k min-heap over one partition.
template <typename E>
std::vector<E> StlPqPartition(const E* data, size_t n, size_t k) {
  auto greater = [](const E& a, const E& b) {
    return ElementTraits<E>::Less(b, a);
  };
  std::priority_queue<E, std::vector<E>, decltype(greater)> pq(greater);
  size_t i = 0;
  for (; i < std::min(n, k); ++i) pq.push(data[i]);
  for (; i < n; ++i) {
    if (ElementTraits<E>::Less(pq.top(), data[i])) {
      pq.pop();
      pq.push(data[i]);
    }
  }
  std::vector<E> out;
  out.reserve(pq.size());
  while (!pq.empty()) {
    out.push_back(pq.top());
    pq.pop();
  }
  return out;
}

// Hand-rolled array min-heap with replace-min (avoids the pop+push double
// sift of the STL version; the paper's "Hand PQ").
template <typename E>
class HandMinHeap {
 public:
  explicit HandMinHeap(size_t k) { heap_.reserve(k); }

  size_t size() const { return heap_.size(); }
  const E& min() const { return heap_.front(); }
  const std::vector<E>& items() const { return heap_; }

  void Push(const E& x) {
    heap_.push_back(x);
    size_t j = heap_.size() - 1;
    while (j > 0) {
      size_t p = (j - 1) / 2;
      if (!ElementTraits<E>::Less(heap_[j], heap_[p])) break;
      std::swap(heap_[j], heap_[p]);
      j = p;
    }
  }

  void ReplaceMin(const E& x) {
    size_t j = 0;
    const size_t n = heap_.size();
    while (true) {
      size_t c = 2 * j + 1;
      if (c >= n) break;
      if (c + 1 < n && ElementTraits<E>::Less(heap_[c + 1], heap_[c])) ++c;
      if (!ElementTraits<E>::Less(heap_[c], x)) break;
      heap_[j] = heap_[c];
      j = c;
    }
    heap_[j] = x;
  }

 private:
  std::vector<E> heap_;
};

template <typename E>
std::vector<E> HandPqPartition(const E* data, size_t n, size_t k) {
  HandMinHeap<E> heap(k);
  size_t i = 0;
  for (; i < std::min(n, k); ++i) heap.Push(data[i]);
  for (; i < n; ++i) {
    if (ElementTraits<E>::Less(heap.min(), data[i])) {
      heap.ReplaceMin(data[i]);
    }
  }
  return heap.items();
}

// --- CPU bitonic top-k (Appendix C) -------------------------------------------

// The partition is processed in L1-resident vectors of kVectorSize elements.
// Each vector is reduced 16x by the SortReducer/BitonicReducer schedules;
// the surviving bitonic k-runs accumulate in a temp buffer that feeds the
// next phase, exactly as in the paper's Algorithm 5.
constexpr size_t kVectorSize = 2048;

// One compare-exchange step over v[0, m): pairs (i, i+inc), ascending run
// polarity from (i & dir).
template <typename E>
void StepScalar(E* v, size_t m, uint32_t dir, uint32_t inc) {
  for (size_t p = 0; p < m / 2; ++p) {
    size_t low = p & (inc - 1);
    size_t i = (p << 1) - low;
    gpu::BitonicCompareExchange(v[i], v[i + inc], (i & dir) == 0);
  }
}

template <typename E>
void RunSteps(E* v, size_t m, const std::vector<gpu::BitonicStep>& steps) {
  for (const gpu::BitonicStep& st : steps) {
    if constexpr (std::is_same_v<E, float>) {
      StepFloatSimd(v, m, st.dir, st.inc);  // AVX2/SSE2/scalar dispatch
    } else {
      StepScalar(v, m, st.dir, st.inc);
    }
  }
}

// Pairwise-max merge (Algorithm 3): v[0, m) -> v[0, m/2).
template <typename E>
void Merge(E* v, size_t m, size_t k) {
  for (size_t j = 0; j < m / 2; ++j) {
    size_t i = (j / k) * 2 * k + (j % k);
    v[j] = gpu::BitonicPairMax(v[i], v[i + k]);
  }
}

// Reduces each L1-resident vector of in[0, n) 16x by the GPU kernels'
// reduction schedule (gputopk/bitonic_plan.h): the SortReducer's on
// unsorted input, the BitonicReducer's on bitonic k-runs. The surviving
// bitonic k-runs are concatenated (merge is last, the GPU reducers'
// contract).
template <typename E>
std::vector<E> ReducePhase(const E* in, size_t n, bool unsorted,
                           const gpu::BitonicNetwork& net) {
  const size_t keep = std::max(kVectorSize / 16, 2 * net.k);
  const auto ops = gpu::BitonicReduceSchedule(kVectorSize, keep, unsorted);
  std::vector<E> out(CeilDiv(n, kVectorSize) * keep);
  E v[kVectorSize];
  for (size_t base = 0, o = 0; base < n; base += kVectorSize, o += keep) {
    const size_t count = std::min(kVectorSize, n - base);
    std::copy(in + base, in + base + count, v);
    std::fill(v + count, v + kVectorSize, ElementTraits<E>::LowestSentinel());
    for (const gpu::BitonicOp& op : ops) {
      if (op.kind == gpu::BitonicOp::kMerge) {
        Merge(v, op.m, net.k);
      } else {
        RunSteps(v, op.m, op.kind == gpu::BitonicOp::kLocalSort
                              ? net.local_sort
                              : net.rebuild);
      }
    }
    std::copy(v, v + keep, out.data() + o);
  }
  return out;
}

// Appendix C Algorithm 5: one partition -> top-k. The step sequences are
// built once per partition.
template <typename E>
std::vector<E> BitonicPartition(const E* data, size_t n, size_t k) {
  const gpu::BitonicNetwork net(k);
  std::vector<E> cur = ReducePhase(data, n, /*unsorted=*/true, net);
  while (cur.size() > kVectorSize) {
    cur = ReducePhase(cur.data(), cur.size(), /*unsorted=*/false, net);
  }
  // Final: sort the remaining candidates and take k (paper line 8:
  // "O <- sort(temp[current], numElements)").
  std::sort(cur.begin(), cur.end(), DescendingByTraits<E>{});
  cur.resize(std::min(cur.size(), k));
  return cur;
}

template <typename E>
bool AnyNanKey(const E* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (IsNanKey(ElementTraits<E>::PrimaryKey(data[i]))) return true;
  }
  return false;
}

}  // namespace

template <typename E>
StatusOr<CpuTopKResult<E>> CpuTopK(const E* data, size_t n, size_t k,
                                   CpuAlgorithm algo, int threads) {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  if (algo == CpuAlgorithm::kBitonic) {
    // The 2048-element L1 vectors must shrink by 16x per phase, so two
    // k-runs must fit in a sixteenth of a vector.
    if (!IsPowerOfTwo(k) || k > 256) {
      return Status::InvalidArgument(
          "CPU bitonic top-k requires power-of-two k <= 256");
    }
    // The float SIMD step kernels (SSE/AVX2 min/max) drop NaN operands
    // instead of propagating them, so NaN-keyed elements are peeled off
    // here and re-inserted as the greatest keys, preserving the canonical
    // NaN order of key_transform.h.
    if constexpr (std::is_floating_point_v<typename ElementTraits<E>::Key>) {
      if (AnyNanKey(data, n)) {
        std::vector<E> nans, rest;
        rest.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          if (IsNanKey(ElementTraits<E>::PrimaryKey(data[i]))) {
            nans.push_back(data[i]);
          } else {
            rest.push_back(data[i]);
          }
        }
        CpuTopKResult<E> result;
        result.items.assign(nans.begin(),
                            nans.begin() + std::min(k, nans.size()));
        const size_t rem = k - result.items.size();
        if (rem > 0) {
          if (k <= rest.size()) {
            MPTOPK_ASSIGN_OR_RETURN(
                auto sub, CpuTopK(rest.data(), rest.size(), k, algo, threads));
            result.items.insert(result.items.end(), sub.items.begin(),
                                sub.items.begin() + rem);
            result.threads_used = sub.threads_used;
          } else {
            std::sort(rest.begin(), rest.end(), DescendingByTraits<E>{});
            result.items.insert(result.items.end(), rest.begin(),
                                rest.begin() + rem);
          }
        }
        return result;
      }
    }
  }
  int nthreads = threads > 0
                     ? threads
                     : static_cast<int>(std::thread::hardware_concurrency());
  nthreads = std::max(1, nthreads);
  // Do not split below a sensible partition size.
  nthreads = static_cast<int>(
      std::min<size_t>(nthreads, std::max<size_t>(1, n / (4 * k + 1))));

  std::vector<std::vector<E>> partials(nthreads);
  auto run_partition = [&](int tid) {
    size_t chunk = n / nthreads;
    size_t begin = tid * chunk;
    size_t end = tid + 1 == nthreads ? n : begin + chunk;
    const E* p = data + begin;
    size_t len = end - begin;
    switch (algo) {
      case CpuAlgorithm::kStlPq:
        partials[tid] = StlPqPartition(p, len, k);
        break;
      case CpuAlgorithm::kHandPq:
        partials[tid] = HandPqPartition(p, len, k);
        break;
      case CpuAlgorithm::kBitonic:
        partials[tid] = BitonicPartition(p, len, k);
        break;
    }
  };
  if (nthreads == 1) {
    run_partition(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (int t = 0; t < nthreads; ++t) pool.emplace_back(run_partition, t);
    for (auto& th : pool) th.join();
  }

  // Global reduction of the per-partition top-k's.
  std::vector<E> all;
  for (auto& p : partials) {
    all.insert(all.end(), p.begin(), p.end());
  }
  std::sort(all.begin(), all.end(), DescendingByTraits<E>{});
  all.resize(std::min(all.size(), k));

  CpuTopKResult<E> result;
  result.items = std::move(all);
  result.threads_used = nthreads;
  return result;
}

#define MPTOPK_INSTANTIATE_CPU(E)                                           \
  template StatusOr<CpuTopKResult<E>> CpuTopK<E>(const E*, size_t, size_t,  \
                                                 CpuAlgorithm, int);

MPTOPK_INSTANTIATE_CPU(float)
MPTOPK_INSTANTIATE_CPU(double)
MPTOPK_INSTANTIATE_CPU(uint32_t)
MPTOPK_INSTANTIATE_CPU(int32_t)
MPTOPK_INSTANTIATE_CPU(int64_t)
MPTOPK_INSTANTIATE_CPU(KV)

#undef MPTOPK_INSTANTIATE_CPU

}  // namespace mptopk::cpu
