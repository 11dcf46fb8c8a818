#include "simt/trace.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

namespace mptopk::simt {
namespace {

constexpr uint32_t kAllLanes = ~uint32_t{0};

// Calls f(lane) for each lane set in `mask`, as a plain counted loop when
// all are set so that the compiler can vectorize it.
template <typename F>
void ForEachLane(uint32_t mask, F f) {
  if (mask == kAllLanes) {
    for (int lane = 0; lane < BlockTracer::kWarpSize; ++lane) f(lane);
  } else {
    for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
      f(std::countr_zero(bits));
    }
  }
}

// True when lane l of the 32 (all active) accesses addr[0] + l * *stride
// with one size. Branch-free so that the compiler vectorizes both checks.
bool IsAffine(const uint64_t* addr, const uint8_t* size, uint64_t* stride) {
  const uint64_t s = addr[1] - addr[0];
  uint64_t addr_diff = 0;
  uint8_t size_diff = 0;
  for (int lane = 1; lane < BlockTracer::kWarpSize; ++lane) {
    addr_diff |= (addr[lane] - addr[lane - 1]) ^ s;
    size_diff |= size[lane] ^ size[0];
  }
  *stride = s;
  return (addr_diff | size_diff) == 0;
}

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

template <typename Exact>
int BlockTracer::RowCost(ShapeTable* table, uint64_t granule, uint32_t mask,
                         const uint64_t* addr, const uint8_t* size,
                         uint64_t* useful, Exact exact) {
  uint64_t stride;
  if (mask != kAllLanes || !IsAffine(addr, size, &stride)) {
    *useful = 0;
    ForEachLane(mask, [&](int lane) { *useful += size[lane]; });
    return exact();
  }
  *useful = uint64_t{kWarpSize} * size[0];
  const uint32_t offset = static_cast<uint32_t>(addr[0] & (granule - 1));
  const uint64_t key =
      stride ^ (uint64_t{offset} << 40) ^ (uint64_t{size[0]} << 58);
  constexpr int kIndexBits = std::countr_zero(unsigned{kShapeTableEntries});
  ShapeEntry& e = (*table)[(key * 0x9E3779B97F4A7C15ull) >> (64 - kIndexBits)];
  if (e.size != size[0] || e.stride != stride || e.offset != offset) {
    e = ShapeEntry{stride, offset, size[0], exact()};
  }
  return e.cost;
}

int BlockTracer::CountSectors(uint32_t mask, const uint64_t* addr,
                              const uint8_t* size) const {
  uint64_t lowest = ~uint64_t{0};
  uint64_t highest = 0;
  ForEachLane(mask, [&](int lane) {
    lowest = std::min(lowest, addr[lane]);
    highest = std::max(highest, addr[lane] + size[lane] - 1);
  });
  const uint64_t base = lowest >> sector_shift_;
  if ((highest >> sector_shift_) - base >= 64) {
    return MaxKeysPerBank(mask, addr, size, sector_shift_, 0);
  }
  // All sectors lie within 64 of the lowest: mark them in a bitmap. A lane
  // touches at most two sectors (accesses are at most sector_bytes wide),
  // its first and its last.
  uint64_t touched = 0;
  ForEachLane(mask, [&](int lane) {
    touched |= uint64_t{1} << ((addr[lane] >> sector_shift_) - base);
    touched |= uint64_t{1}
               << (((addr[lane] + size[lane] - 1) >> sector_shift_) - base);
  });
  return std::popcount(touched);
}

int BlockTracer::MaxWordsPerBank(uint32_t mask, const uint64_t* addr,
                                 const uint8_t* size) const {
  // Fast path: every lane touches one word, each on its own bank (the
  // conflict-free layouts), so no bank holds more than one word.
  bool one_word_each = true;
  uint32_t banks_hit = 0;
  uint32_t banks_hit_twice = 0;
  ForEachLane(mask, [&](int lane) {
    const uint64_t first = addr[lane] >> word_shift_;
    one_word_each &= first == (addr[lane] + size[lane] - 1) >> word_shift_;
    const uint32_t bank = 1u << (first & bank_mask_);
    banks_hit_twice |= banks_hit & bank;
    banks_hit |= bank;
  });
  if (one_word_each && banks_hit_twice == 0) return 1;
  return MaxKeysPerBank(mask, addr, size, word_shift_, bank_mask_);
}

int BlockTracer::MaxKeysPerBank(uint32_t mask, const uint64_t* addr,
                                const uint8_t* size, int key_shift,
                                uint64_t key_bank_mask) const {
  // Each key is inserted into the set once; the first insertion counts it
  // on its bank. The probe usually stops at its first slot, and the
  // fresh/duplicate outcome is added rather than branched on.
  if (++keys_.generation == 0) {
    keys_.tag.fill(0);
    keys_.generation = 1;
  }
  const uint32_t gen = keys_.generation;
  constexpr int kSlotBits = std::countr_zero(unsigned{kKeySlots});
  uint16_t count[kMaxBanks] = {};
  int max_keys = 0;
  ForEachLane(mask, [&](int lane) {
    const uint64_t first = addr[lane] >> key_shift;
    const uint64_t last = (addr[lane] + size[lane] - 1) >> key_shift;
    for (uint64_t k = first; k <= last; ++k) {
      size_t i = (k * 0x9E3779B97F4A7C15ull) >> (64 - kSlotBits);
      while (keys_.tag[i] == gen && keys_.key[i] != k) {
        i = (i + 1) & (kKeySlots - 1);
      }
      const bool fresh = keys_.tag[i] != gen;
      keys_.tag[i] = gen;
      keys_.key[i] = k;
      const int bank = static_cast<int>(k & key_bank_mask);
      count[bank] += fresh;
      max_keys = std::max(max_keys, static_cast<int>(count[bank]));
    }
  });
  return max_keys;
}

void BlockTracer::AnalyzeGlobal(const SlotTable& t, KernelMetrics* m) const {
  const uint64_t sector_bytes = spec_.sector_bytes;
  for (uint32_t row = 0; row < t.used; ++row) {
    const uint32_t mask = t.mask[row];
    if (mask == 0) continue;
    const uint64_t* addr = &t.addr[size_t{row} * kWarpSize];
    const uint8_t* size = &t.size[size_t{row} * kWarpSize];
    uint64_t useful;
    const int num_sectors =
        RowCost(&global_shapes_, sector_bytes, mask, addr, size, &useful,
                [&] { return CountSectors(mask, addr, size); });
    m->warp_instructions += 1;
    m->divergent_lane_slots += kWarpSize - std::popcount(mask);
    m->global_transactions += num_sectors;
    m->global_bytes += static_cast<uint64_t>(num_sectors) * sector_bytes;
    m->global_useful_bytes += useful;
  }
}

void BlockTracer::AnalyzeShared(const SlotTable& t, KernelMetrics* m) const {
  const uint64_t word_bytes = spec_.bank_width_bytes;
  const uint64_t row_bytes =
      static_cast<uint64_t>(spec_.shared_mem_banks) * word_bytes;
  for (uint32_t row = 0; row < t.used; ++row) {
    const uint32_t mask = t.mask[row];
    if (mask == 0) continue;
    const uint64_t* addr = &t.addr[size_t{row} * kWarpSize];
    const uint8_t* size = &t.size[size_t{row} * kWarpSize];
    uint64_t useful;
    // Most distinct words on one bank.
    const int max_words =
        RowCost(&shared_shapes_, word_bytes, mask, addr, size, &useful,
                [&] { return MaxWordsPerBank(mask, addr, size); });
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
