// Registry implementation plus the built-in operator set: the six GPU
// algorithms, the chunked streaming executor and the three CPU backends.
// Built-ins live in this translation unit so that any binary referencing
// the Registry links their registrars (static-library dead-stripping keeps
// whole objects, and every Registry user pulls this one in).
#include "topk/registry.h"

#include <cctype>
#include <utility>

#include "cputopk/cpu_topk.h"
#include "gputopk/bitonic_topk.h"
#include "gputopk/bucket_select.h"
#include "gputopk/chunked.h"
#include "gputopk/hybrid_topk.h"
#include "gputopk/perthread_topk.h"
#include "gputopk/radix_select.h"
#include "gputopk/radix_sort.h"

namespace mptopk::topk {

// ---- TopKOperator base ------------------------------------------------------

Status TopKOperator::CheckCaps(ElemType t, size_t n, size_t k) const {
  if ((caps_.elem_types & ElemBit(t)) == 0) {
    return Status::InvalidArgument(name_ + " does not support element type " +
                                   ElemTypeName(t));
  }
  if (k == 0 || k > n) {
    return Status::InvalidArgument(
        name_ + ": require 1 <= k <= n (k=" + std::to_string(k) +
        ", n=" + std::to_string(n) + ")");
  }
  if (caps_.pow2_k_only && !IsPowerOfTwo(k)) {
    return Status::InvalidArgument(name_ + " requires power-of-two k (k=" +
                                   std::to_string(k) + ")");
  }
  if (caps_.max_k != 0 && k > caps_.max_k) {
    return Status::InvalidArgument(
        name_ + ": k=" + std::to_string(k) + " exceeds max supported k=" +
        std::to_string(caps_.max_k));
  }
  return Status::OK();
}

// Default hooks: GPU operators get staging host paths for free; everything
// else is an explicit kUnimplemented (unreachable through the caps-checked
// façades when elem_types is declared honestly).
#define MPTOPK_X(T, EN, NAME)                                                \
  StatusOr<gpu::TopKResult<T>> TopKOperator::RunDevice(                      \
      const simt::ExecCtx&, simt::DeviceBuffer<T>&, size_t, size_t) const {  \
    return Status::Unimplemented(                                            \
        name_ + " has no device-resident entry point for " NAME);            \
  }                                                                          \
  StatusOr<gpu::TopKResult<T>> TopKOperator::RunHost(                        \
      const simt::ExecCtx& dev, const T* data, size_t n, size_t k) const {   \
    if (caps_.backend != Backend::kGpuSim || caps_.streams_host_input) {     \
      return Status::Unimplemented(name_ +                                   \
                                   " has no host entry point for " NAME);    \
    }                                                                        \
    return StageAndRunDevice<T>(dev, data, n, k);                            \
  }
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X

// ---- Registry ---------------------------------------------------------------

Registry& Registry::Instance() {
  static Registry* r = new Registry();  // leaked: outlives static teardown
  return *r;
}

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

const TopKOperator* Registry::Register(std::unique_ptr<TopKOperator> op,
                                       int order,
                                       std::vector<std::string> aliases) {
  if (FindOrNull(op->name()) != nullptr) {
    std::fprintf(stderr, "duplicate top-k operator registration: %s\n",
                 op->name().c_str());
    std::abort();
  }
  entries_.push_back(Entry{std::move(op), order, std::move(aliases)});
  return entries_.back().op.get();
}

const TopKOperator* Registry::FindOrNull(const std::string& name) const {
  const std::string want = Lower(name);
  for (const Entry& e : entries_) {
    if (Lower(e.op->name()) == want) return e.op.get();
    for (const std::string& a : e.aliases) {
      if (Lower(a) == want) return e.op.get();
    }
  }
  return nullptr;
}

StatusOr<const TopKOperator*> Registry::Find(const std::string& name) const {
  if (const TopKOperator* op = FindOrNull(name); op != nullptr) return op;
  return Status::InvalidArgument("unknown top-k operator '" + name +
                                 "'; registered operators: " +
                                 KnownOperatorList());
}

std::vector<const TopKOperator*> Registry::All() const {
  std::vector<std::pair<int, const TopKOperator*>> v;
  v.reserve(entries_.size());
  for (const Entry& e : entries_) v.emplace_back(e.order, e.op.get());
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second->name() < b.second->name();
            });
  std::vector<const TopKOperator*> out;
  out.reserve(v.size());
  for (const auto& [order, op] : v) out.push_back(op);
  return out;
}

std::string Registry::KnownOperatorList() const {
  std::string out;
  for (const TopKOperator* op : All()) {
    if (!out.empty()) out += ", ";
    out += op->name();
  }
  return out;
}

std::vector<const TopKOperator*> GpuSweepOperators(bool include_extensions) {
  std::vector<const TopKOperator*> out;
  for (const TopKOperator* op : Registry::Instance().All()) {
    const OperatorCaps& c = op->caps();
    if (c.backend != Backend::kGpuSim || c.streams_host_input) continue;
    if (c.extension && !include_extensions) continue;
    out.push_back(op);
  }
  return out;
}

std::vector<const TopKOperator*> CpuFallbackChain() {
  std::vector<const TopKOperator*> out;
  for (const TopKOperator* op : Registry::Instance().All()) {
    if (op->caps().backend == Backend::kCpu) out.push_back(op);
  }
  std::sort(out.begin(), out.end(),
            [](const TopKOperator* a, const TopKOperator* b) {
              if (a->caps().fallback_rank != b->caps().fallback_rank) {
                return a->caps().fallback_rank < b->caps().fallback_rank;
              }
              return a->name() < b->name();
            });
  return out;
}

const TopKOperator* StreamingFallback() {
  for (const TopKOperator* op : Registry::Instance().All()) {
    if (op->caps().streams_host_input) return op;
  }
  return nullptr;
}

// ---- Built-in operators -----------------------------------------------------

namespace {

constexpr uint32_t kChunkedElemTypes =
    ElemTypeOf<float>::bit | ElemTypeOf<double>::bit |
    ElemTypeOf<uint32_t>::bit | ElemTypeOf<int32_t>::bit |
    ElemTypeOf<KV>::bit;

constexpr uint32_t kCpuElemTypes =
    ElemTypeOf<float>::bit | ElemTypeOf<double>::bit |
    ElemTypeOf<uint32_t>::bit | ElemTypeOf<int32_t>::bit |
    ElemTypeOf<int64_t>::bit | ElemTypeOf<KV>::bit;

// Cost hook of the comparison-network methods (bitonic, hybrid): the model
// at k rounded up to a power of two, as they run, or radix select's when
// the round-up passes n (RunRoundedPow2). The model reports the kernels'
// own feasibility (two k-runs per tile).
template <double (*Model)(const simt::DeviceSpec&, const cost::Workload&)>
double RoundedKCost(const simt::DeviceSpec& s, const cost::Workload& w) {
  cost::Workload w2 = w;
  w2.k = NextPowerOfTwo(w.k);
  return w2.k > w.n ? cost::RadixSelectCostMs(s, w) : Model(s, w2);
}

// The comparison-network methods (bitonic, hybrid): round k up to a power of
// two, trim the result, and fall back to radix select when the round-up
// would exceed n.
template <typename E, typename RunFn>
StatusOr<gpu::TopKResult<E>> RunRoundedPow2(const simt::ExecCtx& dev,
                                            simt::DeviceBuffer<E>& data,
                                            size_t n, size_t k, RunFn run) {
  const size_t k2 = NextPowerOfTwo(k);
  if (k2 > n) return gpu::RadixSelectTopKDevice(dev, data, n, k);
  MPTOPK_ASSIGN_OR_RETURN(auto r, run(k2));
  r.items.resize(k);
  return r;
}

// The device adapter: a GPU operator is its caps plus one generic callable
// `run(dev, data, n, k)` over device-resident data, instantiated for every
// element type. The host entry stages the input (TopKOperator::RunHost).
template <typename RunFn>
class DeviceOperator final : public TopKOperator {
 public:
  DeviceOperator(const char* name, const char* display_name, OperatorCaps caps,
                 RunFn run)
      : TopKOperator(name, display_name, caps), run_(std::move(run)) {}

 protected:
#define MPTOPK_X(T, EN, NAME)                                              \
  StatusOr<gpu::TopKResult<T>> RunDevice(                                  \
      const simt::ExecCtx& dev, simt::DeviceBuffer<T>& data, size_t n,     \
      size_t k) const override {                                           \
    return run_(dev, data, n, k);                                          \
  }
  MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X

 private:
  RunFn run_;
};

// The host adapter: an operator with only a host-resident entry point
// `run(dev, data, n, k)`. The callable is instantiated only for the element
// types in kElems (the streaming and CPU backends are explicitly
// instantiated for a subset), and kElems becomes caps().elem_types.
template <uint32_t kElems, typename RunFn>
class HostOperator final : public TopKOperator {
 public:
  HostOperator(const char* name, OperatorCaps caps, RunFn run)
      : TopKOperator(name, WithElems(caps)), run_(std::move(run)) {}

 protected:
#define MPTOPK_X(T, EN, NAME)                                              \
  StatusOr<gpu::TopKResult<T>> RunHost(const simt::ExecCtx& dev,           \
                                       const T* data, size_t n, size_t k)  \
      const override {                                                     \
    if constexpr ((kElems & ElemTypeOf<T>::bit) != 0) {                    \
      return run_(dev, data, n, k);                                        \
    } else {                                                               \
      return TopKOperator::RunHost(dev, data, n, k);                       \
    }                                                                      \
  }
  MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X

 private:
  static OperatorCaps WithElems(OperatorCaps caps) {
    caps.elem_types = kElems;
    return caps;
  }

  RunFn run_;
};

template <typename RunFn>
std::unique_ptr<TopKOperator> Device(const char* name, const char* display_name,
                                     OperatorCaps caps, RunFn run) {
  return std::make_unique<DeviceOperator<RunFn>>(name, display_name, caps,
                                                 std::move(run));
}

template <uint32_t kElems, typename RunFn>
std::unique_ptr<TopKOperator> Host(const char* name, OperatorCaps caps,
                                   RunFn run) {
  return std::make_unique<HostOperator<kElems, RunFn>>(name, caps,
                                                       std::move(run));
}

// A CPU baseline: no simulated device time; callers time it on the host
// clock. Host execution has no transient faults.
std::unique_ptr<TopKOperator> Cpu(const char* name, cpu::CpuAlgorithm algo,
                                  int fallback_rank, bool pow2_only,
                                  size_t max_k) {
  return Host<kCpuElemTypes>(
      name,
      {.backend = Backend::kCpu,
       .pow2_k_only = pow2_only,
       .max_k = max_k,
       .fallback_rank = fallback_rank},
      [algo]<typename E>(const simt::ExecCtx&, const E* data, size_t n,
                         size_t k) -> StatusOr<gpu::TopKResult<E>> {
        MPTOPK_ASSIGN_OR_RETURN(auto c, cpu::CpuTopK(data, n, k, algo));
        return gpu::TopKResult<E>{std::move(c.items)};
      });
}

// Display order mirrors the paper's presentation (and the bench column
// order): the five core GPU algorithms, the hybrid extension, the streaming
// executor, then the CPU baselines.
OperatorRegistrar r_sort(
    Device("Sort", "Sort", {.cost_ms = &cost::SortCostMs},
           [](const simt::ExecCtx& dev, auto& data, size_t n, size_t k) {
             return gpu::SortTopKDevice(dev, data, n, k);
           }),
    10, {"sort"});
OperatorRegistrar r_perthread(
    Device("PerThreadTopK", "PerThread", {.cost_ms = &cost::PerThreadCostMs},
           [](const simt::ExecCtx& dev, auto& data, size_t n, size_t k) {
             return gpu::PerThreadTopKDevice(dev, data, n, k);
           }),
    20, {"perthread"});
OperatorRegistrar r_radix(
    Device("RadixSelect", "RadixSelect", {.cost_ms = &cost::RadixSelectCostMs},
           [](const simt::ExecCtx& dev, auto& data, size_t n, size_t k) {
             return gpu::RadixSelectTopKDevice(dev, data, n, k);
           }),
    30, {"radix_select"});
OperatorRegistrar r_bucket(
    Device("BucketSelect", "BucketSelect",
           {.cost_ms = &cost::BucketSelectCostMs},
           [](const simt::ExecCtx& dev, auto& data, size_t n, size_t k) {
             return gpu::BucketSelectTopKDevice(dev, data, n, k);
           }),
    40, {"bucket_select"});
OperatorRegistrar r_bitonic(
    Device("BitonicTopK", "BitonicTopK",
           {.cost_ms = &RoundedKCost<cost::BitonicTopKCostMs>},
           [](const simt::ExecCtx& dev, auto& data, size_t n, size_t k) {
             return RunRoundedPow2(dev, data, n, k, [&](size_t k2) {
               return gpu::BitonicTopKDevice(dev, data, n, k2,
                                             gpu::BitonicOptions{});
             });
           }),
    50, {"bitonic"});
OperatorRegistrar r_hybrid(
    Device("HybridTopK", "HybridTopK",
           {.extension = true,
            .cost_ms = &RoundedKCost<cost::HybridCostMs>},
           [](const simt::ExecCtx& dev, auto& data, size_t n, size_t k) {
             return RunRoundedPow2(dev, data, n, k, [&](size_t k2) {
               return gpu::HybridTopKDevice(dev, data, n, k2);
             });
           }),
    60, {"hybrid"});
// Streaming host entry only, with chunked.h's default geometry (auto chunk
// size, bitonic per-chunk reduction). The per-chunk reduction rounds k up;
// there is no staged full-input negate pass for bottom-k.
OperatorRegistrar r_chunked(
    Host<kChunkedElemTypes>(
        "ChunkedTopK",
        {.streams_host_input = true,
         .supports_bottom_k = false},
        []<typename E>(const simt::ExecCtx& dev, const E* data, size_t n,
                       size_t k) -> StatusOr<gpu::TopKResult<E>> {
          MPTOPK_ASSIGN_OR_RETURN(auto c, gpu::ChunkedTopK(dev, data, n, k));
          return gpu::TopKResult<E>{std::move(c.items)};
        }),
    70, {"chunked"});
OperatorRegistrar r_cpu_stl(Cpu("cpu:StlPq", cpu::CpuAlgorithm::kStlPq,
                                /*fallback_rank=*/1, /*pow2_only=*/false,
                                /*max_k=*/0),
                            80, {"stlpq", "cpu_stlpq"});
OperatorRegistrar r_cpu_hand(Cpu("cpu:HandPq", cpu::CpuAlgorithm::kHandPq,
                                 /*fallback_rank=*/0, /*pow2_only=*/false,
                                 /*max_k=*/0),
                             90, {"handpq", "cpu_handpq"});
OperatorRegistrar r_cpu_bitonic(Cpu("cpu:Bitonic", cpu::CpuAlgorithm::kBitonic,
                                    /*fallback_rank=*/2, /*pow2_only=*/true,
                                    /*max_k=*/256),
                                100, {"cpu_bitonic"});

}  // namespace

}  // namespace mptopk::topk
