// Memory access tracing and warp-level analysis.
//
// Kernels execute block-synchronously (lane loops between barriers). Every
// global / shared access made through the traced spans is recorded with a
// per-thread sequence number. Because the kernels in this library are
// data-parallel, the i-th access of each lane in a warp corresponds to the
// same (SIMT) memory instruction; the analyzer therefore groups accesses by
// (warp, seq) into "warp instructions" and derives:
//
//  * global memory: the set of 32-byte sectors touched -> transactions and
//    bus bytes (coalescing model),
//  * shared memory: the maximum number of distinct 4-byte words mapping to
//    one bank -> replay cycles (bank-conflict model; same-word access by
//    multiple lanes broadcasts conflict-free),
//  * atomics: same-bank accesses serialize per access (not per distinct
//    word),
//  * divergence: lanes missing from a warp instruction are idle slots.
//
// Sequence numbers are re-aligned across a warp at every barrier and region
// boundary so that divergent regions (e.g. data-dependent heap updates) cost
// extra warp instructions exactly as SIMT hardware serializes them.
//
// Storage is instruction-major: per warp and address space, slot
// `seq - base` holds one warp instruction (a lane mask plus per-lane address
// and size columns). Block calls EndRegion() after each re-alignment; no
// later access can reuse a (warp, seq) of the region, so its slots are
// analyzed in place into the block's pending metrics and rewound
// (base += used). Analyze() adds the pending metrics plus whatever slots the
// last region left open.
//
// Most rows are affine: every lane active, one access size, lane l at
// a0 + l * stride. Their cost depends only on (stride, size, a0 mod
// granule) — shifting every address by one bank word rotates the banks,
// shifting it by one sector renumbers the sectors — so each analyzer keeps
// a small direct-mapped table of affine shapes per tracer and computes a
// shape's cost once. Other rows are counted exactly: sectors in a 64-sector
// bitmap, bank words in a generation-tagged open-addressing key set.
//
// Every access also carries the block's barrier epoch — the number of
// Block::Sync() barriers executed before it. Epochs do not affect the
// timing analysis; they exist for simt::RaceChecker, which flags
// conflicting same-epoch accesses by different threads (racecheck.h). The
// tracer keeps a flat list of (tid, seq, addr, epoch, ...) records for it
// only when constructed with `retain_accesses` (the race checker is armed).
#ifndef MPTOPK_SIMT_TRACE_H_
#define MPTOPK_SIMT_TRACE_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "simt/device_spec.h"
#include "simt/metrics.h"

namespace mptopk::simt {

class BlockTracer {
 public:
  /// Lanes per warp the slot tables are laid out for.
  static constexpr int kWarpSize = 32;
  /// Widest single access (16-byte tuples, float4); with sector_bytes >=
  /// this, one lane touches at most two sectors.
  static constexpr uint32_t kMaxAccessBytes = 16;
  /// Most shared-memory banks the analyzer's per-bank tables hold.
  static constexpr int kMaxBanks = 32;
  /// Entries in each analyzer's table of affine shape costs.
  static constexpr int kShapeTableEntries = 128;

  /// One retained access, the unit simt::RaceChecker sorts. `epoch` counts
  /// Block::Sync() barriers executed before the access; `atomic` marks
  /// read-modify-write operations.
  struct Access {
    uint64_t addr;
    uint32_t seq;
    uint32_t epoch;
    int32_t tid;
    uint16_t size;
    bool write;
    bool atomic;
  };

  /// OK when `spec` has a geometry the analyzer models exactly: 32-wide
  /// warps, power-of-two sector_bytes (>= kMaxAccessBytes) and
  /// bank_width_bytes, and a power-of-two shared_mem_banks <= kMaxBanks.
  /// kInvalidArgument otherwise.
  static Status CheckGeometry(const DeviceSpec& spec);

  /// `retain_accesses` keeps every access in the flat lists returned by
  /// retained_global()/retained_shared() (for the race checker).
  BlockTracer(const DeviceSpec& spec, int block_dim,
              bool retain_accesses = false);

  /// Clears all recorded accesses and pending metrics (block reuse) and
  /// resets the barrier epoch. Slot capacity is kept, so steady-state
  /// tracing never reallocates.
  void Reset(int block_dim);

  void RecordGlobal(int tid, uint32_t seq, uint64_t addr, uint32_t size,
                    bool write, bool atomic = false) {
    Record(&global_[tid / kWarpSize], tid, seq, addr, size, atomic);
    if (retain_) {
      global_log_.push_back(MakeAccess(tid, seq, addr, size, write, atomic));
    }
  }
  void RecordShared(int tid, uint32_t seq, uint64_t addr, uint32_t size,
                    bool write, bool atomic) {
    Record(&shared_[tid / kWarpSize], tid, seq, addr, size, atomic);
    if (retain_) {
      shared_log_.push_back(MakeAccess(tid, seq, addr, size, write, atomic));
    }
  }
  /// Register-spill traffic to thread-local memory (no warp analysis; billed
  /// as global-bandwidth bytes).
  void RecordLocal(uint64_t bytes) { local_bytes_ += bytes; }

  /// Latency-bound dependent access chains (each link's address depends on
  /// the previous load, e.g. heap sift levels); priced by the timing model
  /// as exposed latency divided by resident warps.
  void RecordDependentCycles(uint64_t cycles) { dependent_cycles_ += cycles; }

  /// Advances the barrier epoch (called by Block::Sync on traced blocks).
  void AdvanceEpoch() { ++epoch_; }
  uint32_t epoch() const { return epoch_; }

  /// Region boundary (called by Block after re-aligning warp sequences):
  /// analyzes every open slot into the pending metrics and rewinds the
  /// slot tables.
  void EndRegion();

  /// Accumulates this block's metrics into *m: the pending metrics of
  /// closed regions plus the slots still open. Fills the shape tables, so
  /// one tracer must not be analyzed from two threads at once.
  void Analyze(KernelMetrics* m) const;

  /// Every access in record order (empty unless retain_accesses).
  const std::vector<Access>& retained_global() const { return global_log_; }
  const std::vector<Access>& retained_shared() const { return shared_log_; }

 private:
  // One warp's instructions in one address space. Columns hold
  // `cap` rows of kWarpSize lanes; rows [0, used) are this region's, and
  // only lanes set in mask[row] are valid.
  struct SlotTable {
    uint32_t base = 0;  // seq of row 0
    uint32_t used = 0;
    uint32_t cap = 0;
    std::unique_ptr<uint32_t[]> mask;
    std::unique_ptr<uint8_t[]> any_atomic;
    std::unique_ptr<uint64_t[]> addr;
    std::unique_ptr<uint8_t[]> size;

    void Grow(uint32_t rows);
  };

  static void Record(SlotTable* t, int tid, uint32_t seq, uint64_t addr,
                     uint32_t size, bool atomic) {
    assert(size >= 1 && size <= kMaxAccessBytes);
    assert(seq >= t->base);
    const uint32_t row = seq - t->base;
    if (row >= t->used) {
      if (row >= t->cap) t->Grow(row + 1);
      for (uint32_t r = t->used; r <= row; ++r) {
        t->mask[r] = 0;
        t->any_atomic[r] = 0;
      }
      t->used = row + 1;
    }
    const int lane = tid % kWarpSize;
    t->mask[row] |= 1u << lane;
    t->any_atomic[row] |= atomic;
    t->addr[row * kWarpSize + lane] = addr;
    t->size[row * kWarpSize + lane] = static_cast<uint8_t>(size);
  }

  Access MakeAccess(int tid, uint32_t seq, uint64_t addr, uint32_t size,
                    bool write, bool atomic) const {
    return Access{addr, seq, epoch_, tid, static_cast<uint16_t>(size), write,
                  atomic};
  }

  // Cost of one affine shape; size 0 marks an empty entry.
  struct ShapeEntry {
    uint64_t stride = 0;
    uint32_t offset = 0;
    uint8_t size = 0;
    int32_t cost = 0;
  };
  using ShapeTable = std::array<ShapeEntry, kShapeTableEntries>;

  // Distinct keys (sectors or bank words) of one instruction: open
  // addressing over kKeySlots slots, where a slot is occupied only if its
  // tag equals the current generation, so a new instruction clears nothing.
  static constexpr int kKeySlots = 1024;
  static_assert(kKeySlots > kWarpSize * (kMaxAccessBytes + 1),
                "one instruction's words must fit the key set");
  struct KeySet {
    uint32_t generation = 0;
    std::array<uint32_t, kKeySlots> tag{};
    std::array<uint64_t, kKeySlots> key;
  };

  // The cost of one row and, in *useful, its bytes accessed. An affine row
  // looks its shape (stride, size, addr[0] mod granule) up in `table`,
  // which calls `exact()` and stores the result on a miss; any other row
  // calls `exact()`.
  template <typename Exact>
  static int RowCost(ShapeTable* table, uint64_t granule, uint32_t mask,
                     const uint64_t* addr, const uint8_t* size,
                     uint64_t* useful, Exact exact);

  // Distinct sectors touched by the lanes in `mask`.
  int CountSectors(uint32_t mask, const uint64_t* addr,
                   const uint8_t* size) const;
  // Most distinct words mapped to one bank by the lanes in `mask`.
  int MaxWordsPerBank(uint32_t mask, const uint64_t* addr,
                      const uint8_t* size) const;
  // Most distinct keys on one key bank among the lanes in `mask`: a lane's
  // access covers keys addr >> key_shift through
  // (addr + size - 1) >> key_shift, and key k is on bank k & key_bank_mask
  // (< kMaxBanks). With key_bank_mask 0 this is the number of distinct keys.
  int MaxKeysPerBank(uint32_t mask, const uint64_t* addr, const uint8_t* size,
                     int key_shift, uint64_t key_bank_mask) const;

  void AnalyzeGlobal(const SlotTable& t, KernelMetrics* m) const;
  void AnalyzeShared(const SlotTable& t, KernelMetrics* m) const;

  const DeviceSpec& spec_;
  bool retain_;
  // Shifts and masks of the (power-of-two) geometry.
  int sector_shift_;
  int word_shift_;
  uint64_t bank_mask_;
  // Analysis state, filled by the const analyzers: costs are a pure
  // function of the shape and the geometry fixed at construction.
  mutable ShapeTable global_shapes_;
  mutable ShapeTable shared_shapes_;
  mutable KeySet keys_;
  // Indexed by warp.
  std::vector<SlotTable> global_;
  std::vector<SlotTable> shared_;
  KernelMetrics pending_;
  std::vector<Access> global_log_;
  std::vector<Access> shared_log_;
  uint32_t epoch_ = 0;
  uint64_t local_bytes_ = 0;
  uint64_t dependent_cycles_ = 0;
};

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_TRACE_H_
