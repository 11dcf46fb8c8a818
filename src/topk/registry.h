// The unified top-k operator registry: every selection backend — the six
// GPU-simulated algorithms, the chunked streaming executor and the three
// CPU baselines — is one TopKOperator with an OperatorCaps descriptor, and
// consumers (planner, resilient executor, query engine, benches, tests)
// enumerate or resolve operators here by name.
//
// Adding an operator is a one-file change: register a static
// OperatorRegistrar for a TopKOperator whose Run hooks cover the element
// types it supports (registry.cc builds each built-in from its caps and one
// generic callable). The planner ranks it by its caps.cost_ms hook, the
// resilient executor slots it into the fallback chain by backend, and the
// property-differential sweep, degenerate-input tests and paper-figure
// benches pick it up automatically (see docs/operators.md).
#ifndef MPTOPK_TOPK_REGISTRY_H_
#define MPTOPK_TOPK_REGISTRY_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/status.h"
#include "common/tuple_types.h"
#include "cost/cost_model.h"
#include "gputopk/kernel_util.h"
#include "gputopk/topk_result.h"
#include "simt/exec_ctx.h"

namespace mptopk::topk {

// One tag per entry of MPTOPK_TOPK_ELEMENT_TYPES (common/tuple_types.h); the
// per-type virtual hooks of TopKOperator are generated from the same list,
// so a type added there is immediately addressable by every operator.
enum class ElemType : int {
#define MPTOPK_X(T, EN, NAME) EN,
  MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X
};

inline constexpr int kNumElemTypes = 0
#define MPTOPK_X(T, EN, NAME) +1
    MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X
    ;

constexpr uint32_t ElemBit(ElemType t) {
  return uint32_t{1} << static_cast<int>(t);
}

inline const char* ElemTypeName(ElemType t) {
  switch (t) {
#define MPTOPK_X(T, EN, NAME) \
  case ElemType::EN:          \
    return NAME;
    MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X
  }
  return "?";
}

/// Maps a C++ element type to its ElemType tag at compile time.
template <typename E>
struct ElemTypeOf;
#define MPTOPK_X(T, EN, NAME)                           \
  template <>                                           \
  struct ElemTypeOf<T> {                                \
    static constexpr ElemType value = ElemType::EN;     \
    static constexpr uint32_t bit = ElemBit(ElemType::EN); \
  };
MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X

inline constexpr uint32_t kAllElemTypes = (uint32_t{1} << kNumElemTypes) - 1;

enum class Backend { kGpuSim, kCpu };

inline const char* BackendName(Backend b) {
  return b == Backend::kGpuSim ? "gpu-sim" : "cpu";
}

/// Static capabilities of one operator — what the planner filters and ranks
/// on, what the resilient executor builds its fallback chain from, and what
/// the caps-enforcement façade validates every call against.
struct OperatorCaps {
  Backend backend = Backend::kGpuSim;
  /// Bitmask of ElemBit(ElemType) values this operator is compiled for.
  uint32_t elem_types = kAllElemTypes;
  /// Requires power-of-two k at the call boundary (e.g. the CPU bitonic
  /// network). The GPU bitonic and hybrid operators instead round k up
  /// internally and trim the result.
  bool pow2_k_only = false;
  /// Largest supported k (0 = no static cap; dynamic limits such as
  /// per-thread shared-memory exhaustion surface as kResourceExhausted).
  size_t max_k = 0;
  /// Consumes host-resident input in streamed chunks (no device-resident
  /// entry point); the resilient executor's degrade stage.
  bool streams_host_input = false;
  /// Beyond the paper's core algorithm set (Section 8 future work); the
  /// planner only considers extensions when asked to.
  bool extension = false;
  /// Can serve bottom-k via key negation.
  bool supports_bottom_k = true;
  /// Position in the resilient executor's CPU fallback chain (lower first;
  /// meaningful for Backend::kCpu operators).
  int fallback_rank = 0;
  /// Section 7 cost model: predicted milliseconds for the workload, or a
  /// negative value when infeasible. nullptr = not planner-rankable.
  double (*cost_ms)(const simt::DeviceSpec&, const cost::Workload&) = nullptr;
};

/// One top-k backend. The public entry points are the caps-checked template
/// façades; implementations override the per-element-type Run hooks (C++
/// virtuals cannot be templates, so the overload set is macro-generated
/// from MPTOPK_TOPK_ELEMENT_TYPES).
class TopKOperator {
 public:
  TopKOperator(std::string name, OperatorCaps caps)
      : name_(std::move(name)), display_name_(name_), caps_(caps) {}
  TopKOperator(std::string name, std::string display_name, OperatorCaps caps)
      : name_(std::move(name)),
        display_name_(std::move(display_name)),
        caps_(caps) {}
  virtual ~TopKOperator() = default;

  TopKOperator(const TopKOperator&) = delete;
  TopKOperator& operator=(const TopKOperator&) = delete;

  /// Canonical registry name, e.g. "RadixSelect" or "cpu:HandPq".
  const std::string& name() const { return name_; }
  /// Short label for bench table columns (defaults to name()).
  const std::string& display_name() const { return display_name_; }
  const OperatorCaps& caps() const { return caps_; }

  template <typename E>
  bool SupportsElem() const {
    return (caps_.elem_types & ElemTypeOf<E>::bit) != 0;
  }

  /// Validates an (element type, n, k) request against the caps. Every
  /// violation is kInvalidArgument — never a wrong answer.
  Status CheckCaps(ElemType t, size_t n, size_t k) const;

  /// Predicted cost in ms for the workload; negative when infeasible or the
  /// operator has no cost model.
  double CostMs(const simt::DeviceSpec& spec, const cost::Workload& w) const {
    return caps_.cost_ms != nullptr ? caps_.cost_ms(spec, w) : -1.0;
  }

  /// Top-k over device-resident data (caps-checked).
  template <typename E>
  StatusOr<gpu::TopKResult<E>> TopKDevice(const simt::ExecCtx& dev,
                                          simt::DeviceBuffer<E>& data,
                                          size_t n, size_t k) const {
    MPTOPK_RETURN_NOT_OK(CheckCaps(ElemTypeOf<E>::value, n, k));
    return RunDevice(dev, data, n, k);
  }

  /// Top-k over host-resident data (caps-checked). GPU operators stage the
  /// input; CPU operators run in place; streaming operators chunk it.
  template <typename E>
  StatusOr<gpu::TopKResult<E>> TopKHost(const simt::ExecCtx& dev,
                                        const E* data, size_t n,
                                        size_t k) const {
    MPTOPK_RETURN_NOT_OK(CheckCaps(ElemTypeOf<E>::value, n, k));
    return RunHost(dev, data, n, k);
  }

  /// Bottom-k (the k smallest, ascending order semantics of the caller):
  /// top-k over order-negated keys, one extra counted negate pass.
  template <typename E>
  StatusOr<gpu::TopKResult<E>> BottomKDevice(const simt::ExecCtx& dev,
                                             simt::DeviceBuffer<E>& data,
                                             size_t n, size_t k) const;

  template <typename E>
  StatusOr<gpu::TopKResult<E>> BottomKHost(const simt::ExecCtx& dev,
                                           const E* data, size_t n,
                                           size_t k) const;

 protected:
  /// Stages host data to the device and dispatches the device hook — the
  /// default host path for GPU operators (alloc + H2D copy, both counted).
  template <typename E>
  StatusOr<gpu::TopKResult<E>> StageAndRunDevice(const simt::ExecCtx& dev,
                                                 const E* data, size_t n,
                                                 size_t k) const {
    MPTOPK_ASSIGN_OR_RETURN(auto buf, dev.Alloc<E>(n));
    MPTOPK_RETURN_NOT_OK(dev.CopyToDevice(buf, data, n));
    return RunDevice(dev, buf, n, k);
  }

  // Per-element-type hooks. Defaults: RunDevice reports kUnimplemented
  // (CPU / streaming operators have no device-resident entry); RunHost
  // stages and runs the device hook (GPU operators) or reports
  // kUnimplemented (Backend::kCpu without an override).
#define MPTOPK_X(T, EN, NAME)                                         \
  virtual StatusOr<gpu::TopKResult<T>> RunDevice(                     \
      const simt::ExecCtx& dev, simt::DeviceBuffer<T>& data, size_t n, \
      size_t k) const;                                                \
  virtual StatusOr<gpu::TopKResult<T>> RunHost(                       \
      const simt::ExecCtx& dev, const T* data, size_t n, size_t k) const;
  MPTOPK_TOPK_ELEMENT_TYPES(MPTOPK_X)
#undef MPTOPK_X

 private:
  std::string name_;
  std::string display_name_;
  OperatorCaps caps_;
};

/// The process-wide operator registry. Built-in operators are registered
/// from registry.cc's static initializers; additional operators (e.g.
/// test-only dummies) register via a static OperatorRegistrar in their own
/// translation unit — no registry edits required.
class Registry {
 public:
  static Registry& Instance();

  /// Registers an operator with a display `order` (All() sorts by it; the
  /// built-ins use 10..100 in the paper's presentation order) and optional
  /// lookup aliases (the bench flag spellings, e.g. "radix_select").
  /// Duplicate canonical names abort: they are always a build bug.
  const TopKOperator* Register(std::unique_ptr<TopKOperator> op, int order,
                               std::vector<std::string> aliases = {});

  /// Case-insensitive lookup by canonical name or alias. Unknown names
  /// report the full registered-operator list in the error.
  StatusOr<const TopKOperator*> Find(const std::string& name) const;
  const TopKOperator* FindOrNull(const std::string& name) const;

  /// Every registered operator, ordered by (order, name).
  std::vector<const TopKOperator*> All() const;

  /// "Sort, PerThreadTopK, ..." — for error messages and --help text.
  std::string KnownOperatorList() const;

 private:
  Registry() = default;
  struct Entry {
    std::unique_ptr<TopKOperator> op;
    int order = 0;
    std::vector<std::string> aliases;
  };
  std::vector<Entry> entries_;
};

/// Registers an operator at static-initialization time:
///   static topk::OperatorRegistrar reg(std::make_unique<MyOp>(), 55, {"my"});
struct OperatorRegistrar {
  OperatorRegistrar(std::unique_ptr<TopKOperator> op, int order,
                    std::initializer_list<const char*> aliases = {}) {
    std::vector<std::string> a(aliases.begin(), aliases.end());
    registered = Registry::Instance().Register(std::move(op), order,
                                               std::move(a));
  }
  const TopKOperator* registered = nullptr;
};

/// Shorthand for Registry::Instance().Find(name).
inline StatusOr<const TopKOperator*> FindOperator(const std::string& name) {
  return Registry::Instance().Find(name);
}

/// The GPU-simulated operators the paper-figure benches and differential
/// sweeps enumerate: device-resident GPU backends, extensions excluded
/// unless asked for. A newly registered GPU operator joins every sweep
/// automatically.
std::vector<const TopKOperator*> GpuSweepOperators(
    bool include_extensions = false);

/// Backend::kCpu operators in fallback order (caps().fallback_rank): the
/// resilient executor's CPU chain.
std::vector<const TopKOperator*> CpuFallbackChain();

/// The first registered streaming operator (caps().streams_host_input) —
/// the resilient executor's chunked-degrade stage — or nullptr.
const TopKOperator* StreamingFallback();

// ---- template definitions ---------------------------------------------------

namespace detail {

/// The bottom-k negate pass: one grid-stride copy of the order-negated keys.
template <typename E>
Status NegateKeys(const simt::ExecCtx& dev, simt::DeviceBuffer<E>& in_buf,
                  simt::DeviceBuffer<E>& out_buf, size_t n) {
  simt::GlobalSpan<E> in(in_buf), out(out_buf);
  return gpu::LaunchGridStride(dev, "negate_keys", n, 256, 1024,
                               [&](simt::Thread& t, size_t i) {
                                 out.Write(t, i, ElementTraits<E>::Negated(
                                                     in.Read(t, i)));
                               });
}

}  // namespace detail

template <typename E>
StatusOr<gpu::TopKResult<E>> TopKOperator::BottomKDevice(
    const simt::ExecCtx& dev, simt::DeviceBuffer<E>& data, size_t n,
    size_t k) const {
  if (k == 0 || k > n) {
    return Status::InvalidArgument("require 1 <= k <= n");
  }
  MPTOPK_RETURN_NOT_OK(CheckCaps(ElemTypeOf<E>::value, n, k));
  MPTOPK_ASSIGN_OR_RETURN(auto negated, dev.Alloc<E>(n));
  MPTOPK_RETURN_NOT_OK(detail::NegateKeys(dev, data, negated, n));
  MPTOPK_ASSIGN_OR_RETURN(auto r, RunDevice(dev, negated, n, k));
  for (E& e : r.items) e = ElementTraits<E>::Negated(e);
  return r;
}

template <typename E>
StatusOr<gpu::TopKResult<E>> TopKOperator::BottomKHost(
    const simt::ExecCtx& dev, const E* data, size_t n, size_t k) const {
  if (!caps_.supports_bottom_k) {
    return Status::Unimplemented(name_ + " does not support bottom-k");
  }
  MPTOPK_RETURN_NOT_OK(CheckCaps(ElemTypeOf<E>::value, n, k));
  if (caps_.backend == Backend::kGpuSim) {
    // Stage first, then run the device bottom-k.
    MPTOPK_ASSIGN_OR_RETURN(auto buf, dev.Alloc<E>(n));
    MPTOPK_RETURN_NOT_OK(dev.CopyToDevice(buf, data, n));
    return BottomKDevice(dev, buf, n, k);
  }
  std::vector<E> negated(data, data + n);
  for (E& e : negated) e = ElementTraits<E>::Negated(e);
  MPTOPK_ASSIGN_OR_RETURN(auto r, RunHost(dev, negated.data(), n, k));
  for (E& e : r.items) e = ElementTraits<E>::Negated(e);
  return r;
}

}  // namespace mptopk::topk

#endif  // MPTOPK_TOPK_REGISTRY_H_
