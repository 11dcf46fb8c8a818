// Result type shared by all GPU top-k algorithms.
#ifndef MPTOPK_GPUTOPK_TOPK_RESULT_H_
#define MPTOPK_GPUTOPK_TOPK_RESULT_H_

#include <algorithm>
#include <vector>

#include "common/tuple_types.h"

namespace mptopk::gpu {

/// Output of a top-k computation: the k greatest elements in descending
/// order of primary key (ties broken arbitrarily, like SQL ORDER BY ...
/// LIMIT K). Time is not carried here: a caller reads it off the device
/// around the call (simt/device.h).
template <typename E>
struct TopKResult {
  std::vector<E> items;
};

/// Sorts a small result vector descending by the element ordering (used to
/// canonicalize the k returned items; k is tiny so this is host-side).
template <typename E>
void SortDescending(std::vector<E>* items) {
  std::sort(items->begin(), items->end(),
            [](const E& a, const E& b) { return ElementTraits<E>::Less(b, a); });
}

}  // namespace mptopk::gpu

#endif  // MPTOPK_GPUTOPK_TOPK_RESULT_H_
