#include "simt/trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace mptopk::simt {
namespace {

bool IsPow2(int v) {
  return v > 0 && std::has_single_bit(static_cast<unsigned>(v));
}

// Columns grow by copying only the used rows into fresh uninitialized
// storage: a region can hold ~10^5 rows, and zero-filling (or
// value-initializing) the doubled capacity would commit pages never written.
template <typename T>
void GrowColumn(std::unique_ptr<T[]>* col, size_t used, size_t cap) {
  auto fresh = std::make_unique_for_overwrite<T[]>(cap);
  if (used > 0) std::memcpy(fresh.get(), col->get(), used * sizeof(T));
  *col = std::move(fresh);
}

}  // namespace

Status BlockTracer::CheckGeometry(const DeviceSpec& spec) {
  if (spec.warp_size == kWarpSize && IsPow2(spec.sector_bytes) &&
      spec.sector_bytes >= static_cast<int>(kMaxAccessBytes) &&
      IsPow2(spec.bank_width_bytes) && IsPow2(spec.shared_mem_banks) &&
      spec.shared_mem_banks <= kMaxBanks) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "tracer models warp_size 32, power-of-two sector_bytes >= 16, "
      "bank_width_bytes and shared_mem_banks <= 32; got warp_size=" +
      std::to_string(spec.warp_size) +
      " sector_bytes=" + std::to_string(spec.sector_bytes) +
      " bank_width_bytes=" + std::to_string(spec.bank_width_bytes) +
      " shared_mem_banks=" + std::to_string(spec.shared_mem_banks));
}

BlockTracer::BlockTracer(const DeviceSpec& spec, int block_dim,
                         bool retain_accesses)
    : spec_(spec),
      retain_(retain_accesses),
      sector_shift_(
          std::countr_zero(static_cast<unsigned>(spec.sector_bytes))),
      word_shift_(
          std::countr_zero(static_cast<unsigned>(spec.bank_width_bytes))),
      bank_mask_(static_cast<uint64_t>(spec.shared_mem_banks) - 1) {
  assert(CheckGeometry(spec).ok());
  Reset(block_dim);
}

void BlockTracer::Reset(int block_dim) {
  const size_t warps = (block_dim + kWarpSize - 1) / kWarpSize;
  global_.resize(warps);
  shared_.resize(warps);
  for (SlotTable& t : global_) t.base = t.used = 0;
  for (SlotTable& t : shared_) t.base = t.used = 0;
  pending_ = KernelMetrics{};
  global_log_.clear();
  shared_log_.clear();
  epoch_ = 0;
  local_bytes_ = 0;
  dependent_cycles_ = 0;
}

void BlockTracer::SlotTable::Grow(uint32_t rows) {
  const uint32_t fresh = std::max({rows, 2 * cap, 64u});
  GrowColumn(&mask, used, fresh);
  GrowColumn(&any_atomic, used, fresh);
  GrowColumn(&addr, size_t{used} * kWarpSize, size_t{fresh} * kWarpSize);
  GrowColumn(&size, size_t{used} * kWarpSize, size_t{fresh} * kWarpSize);
  cap = fresh;
}

void BlockTracer::AnalyzeGlobal(const SlotTable& t, KernelMetrics* m) const {
  const uint64_t sector_bytes = spec_.sector_bytes;
  for (uint32_t row = 0; row < t.used; ++row) {
    const uint32_t mask = t.mask[row];
    if (mask == 0) continue;
    const uint64_t* addr = &t.addr[size_t{row} * kWarpSize];
    const uint8_t* size = &t.size[size_t{row} * kWarpSize];
    // Accesses are at most sector_bytes wide, so a lane touches at most two
    // sectors and the list is exact.
    uint64_t sectors[2 * kWarpSize];
    int num_sectors = 0;
    uint64_t useful = 0;
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      const int lane = std::countr_zero(bits);
      useful += size[lane];
      const uint64_t first = addr[lane] >> sector_shift_;
      const uint64_t last = (addr[lane] + size[lane] - 1) >> sector_shift_;
      for (uint64_t s = first; s <= last; ++s) {
        if (num_sectors > 0 && sectors[num_sectors - 1] == s) continue;
        if (std::find(sectors, sectors + num_sectors, s) ==
            sectors + num_sectors) {
          sectors[num_sectors++] = s;
        }
      }
    }
    m->warp_instructions += 1;
    m->divergent_lane_slots += kWarpSize - std::popcount(mask);
    m->global_transactions += num_sectors;
    m->global_bytes += static_cast<uint64_t>(num_sectors) * sector_bytes;
    m->global_useful_bytes += useful;
  }
}

void BlockTracer::AnalyzeShared(const SlotTable& t, KernelMetrics* m) const {
  if (t.used == 0) return;
  // Distinct words of one instruction, chained per bank (head/next index
  // into word[]). A lane's access spans at most kMaxAccessBytes + 1 words.
  constexpr int kMaxWords = kWarpSize * (kMaxAccessBytes + 1);
  uint64_t word[kMaxWords];
  int16_t next[kMaxWords];
  int16_t head[kMaxBanks];
  uint16_t count[kMaxBanks];
  std::fill(std::begin(head), std::end(head), int16_t{-1});
  std::fill(std::begin(count), std::end(count), uint16_t{0});
  const uint64_t row_bytes =
      static_cast<uint64_t>(spec_.shared_mem_banks) * spec_.bank_width_bytes;

  for (uint32_t row = 0; row < t.used; ++row) {
    const uint32_t mask = t.mask[row];
    if (mask == 0) continue;
    const uint64_t* addr = &t.addr[size_t{row} * kWarpSize];
    const uint8_t* size = &t.size[size_t{row} * kWarpSize];
    // Fast path: every lane touches one word, each on its own bank (the
    // conflict-free layouts), so no bank holds more than one word.
    uint64_t useful = 0;
    bool one_word_each = true;
    uint32_t banks_hit = 0;
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      const int lane = std::countr_zero(bits);
      useful += size[lane];
      const uint64_t first = addr[lane] >> word_shift_;
      one_word_each &= first == (addr[lane] + size[lane] - 1) >> word_shift_;
      banks_hit |= 1u << (first & bank_mask_);
    }
    int max_words = 1;  // most distinct words on one bank
    if (!one_word_each || std::popcount(banks_hit) != std::popcount(mask)) {
      max_words = 0;
      int num_words = 0;
      uint32_t touched = 0;
      for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
        const int lane = std::countr_zero(bits);
        const uint64_t first = addr[lane] >> word_shift_;
        const uint64_t last = (addr[lane] + size[lane] - 1) >> word_shift_;
        for (uint64_t w = first; w <= last; ++w) {
          const int bank = static_cast<int>(w & bank_mask_);
          int i = head[bank];
          while (i >= 0 && word[i] != w) i = next[i];
          if (i >= 0) continue;
          word[num_words] = w;
          next[num_words] = head[bank];
          head[bank] = static_cast<int16_t>(num_words++);
          touched |= 1u << bank;
          max_words = std::max(max_words, static_cast<int>(++count[bank]));
        }
      }
      for (uint32_t bits = touched; bits != 0; bits &= bits - 1) {
        const int bank = std::countr_zero(bits);
        head[bank] = -1;
        count[bank] = 0;
      }
    }

    m->warp_instructions += 1;
    m->divergent_lane_slots += kWarpSize - std::popcount(mask);
    m->shared_useful_bytes += useful;
    if (t.any_atomic[row]) {
      // Same-word atomics within one warp instruction are warp-aggregated
      // (one hardware update delivering per-lane return values, as modern
      // shared-atomic units do); distinct words on a bank still replay, and
      // the read-modify-write costs one extra cycle.
      m->shared_atomic_cycles += max_words + 1;
    } else {
      // Plain accesses: distinct words on the same bank replay; all lanes
      // reading one word broadcast in a single cycle.
      m->shared_cycles += max_words;
      m->bank_conflict_cycles += max_words - 1;
      m->shared_bytes += static_cast<uint64_t>(max_words) * row_bytes;
    }
  }
}

void BlockTracer::EndRegion() {
  for (SlotTable& t : global_) {
    AnalyzeGlobal(t, &pending_);
    t.base += t.used;
    t.used = 0;
  }
  for (SlotTable& t : shared_) {
    AnalyzeShared(t, &pending_);
    t.base += t.used;
    t.used = 0;
  }
}

void BlockTracer::Analyze(KernelMetrics* m) const {
  *m += pending_;
  for (const SlotTable& t : global_) AnalyzeGlobal(t, m);
  for (const SlotTable& t : shared_) AnalyzeShared(t, m);
  m->local_bytes += local_bytes_;
  m->dependent_stall_cycles += dependent_cycles_;
  m->blocks_traced += 1;
}

}  // namespace mptopk::simt
