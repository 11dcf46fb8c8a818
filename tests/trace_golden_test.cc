// Golden-metrics regression tests for BlockTracer::Analyze: hand-built
// access patterns with counts derivable from the hardware model by hand —
// coalescing sector math, bank-conflict replays, the broadcast exemption,
// atomic serialization, and divergence slots. These lock the timing-model
// inputs against tracer refactors (the numbers feed every simulated
// millisecond in the paper reproduction).
#include <gtest/gtest.h>

#include "simt/device_spec.h"
#include "simt/metrics.h"
#include "simt/trace.h"

namespace mptopk::simt {
namespace {

KernelMetrics Analyzed(const BlockTracer& tracer) {
  KernelMetrics m;
  tracer.Analyze(&m);
  return m;
}

// 32 lanes loading 4 consecutive bytes each from a sector-aligned base:
// one warp instruction, 128 contiguous bytes = 4 perfectly-used sectors.
TEST(TraceGolden, CoalescedGlobalLoad) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordGlobal(lane, /*seq=*/0, /*addr=*/4096 + 4 * lane, 4,
                        /*write=*/false);
  }
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.warp_instructions, 1u);
  EXPECT_EQ(m.global_transactions, 4u);
  EXPECT_EQ(m.global_bytes, 128u);
  EXPECT_EQ(m.global_useful_bytes, 128u);
  EXPECT_EQ(m.divergent_lane_slots, 0u);
  EXPECT_EQ(m.blocks_traced, 1u);
}

// Stride-32B access: every lane lands in its own sector — the 8x coalescing
// inefficiency the paper's Figure 6 markers are priced from.
TEST(TraceGolden, StridedGlobalLoadOneSectorPerLane) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordGlobal(lane, 0, 4096 + 32 * lane, 4, false);
  }
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.warp_instructions, 1u);
  EXPECT_EQ(m.global_transactions, 32u);
  EXPECT_EQ(m.global_bytes, 1024u);
  EXPECT_EQ(m.global_useful_bytes, 128u);
}

// A misaligned contiguous load crosses one extra sector: [16, 144) touches
// sectors 0..4 of the 32-byte grid.
TEST(TraceGolden, MisalignedGlobalLoadExtraSector) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordGlobal(lane, 0, 4096 + 16 + 4 * lane, 4, false);
  }
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.global_transactions, 5u);
  EXPECT_EQ(m.global_bytes, 160u);
  EXPECT_EQ(m.global_useful_bytes, 128u);
}

// Only 8 of 32 lanes participate: 24 idle lane-slots in one instruction.
// Different seq values do NOT merge: each becomes its own instruction with
// 31 idle slots.
TEST(TraceGolden, DivergenceSlots) {
  DeviceSpec spec;
  {
    BlockTracer tracer(spec, 32);
    for (int lane = 0; lane < 8; ++lane) {
      tracer.RecordGlobal(lane, 0, 4 * lane, 4, false);
    }
    KernelMetrics m = Analyzed(tracer);
    EXPECT_EQ(m.warp_instructions, 1u);
    EXPECT_EQ(m.divergent_lane_slots, 24u);
  }
  {
    BlockTracer tracer(spec, 32);
    tracer.RecordGlobal(0, /*seq=*/0, 0, 4, false);
    tracer.RecordGlobal(1, /*seq=*/1, 4, 4, false);
    KernelMetrics m = Analyzed(tracer);
    EXPECT_EQ(m.warp_instructions, 2u);
    EXPECT_EQ(m.divergent_lane_slots, 62u);
  }
}

// Warps analyze independently: the same (seq, addr) on tids 0 and 32 is two
// warp instructions, not one.
TEST(TraceGolden, WarpsAreIndependent) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 64);
  tracer.RecordGlobal(0, 0, 0, 4, false);
  tracer.RecordGlobal(32, 0, 0, 4, false);
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.warp_instructions, 2u);
  EXPECT_EQ(m.global_transactions, 2u);
}

// Lane i -> word i: all 32 banks hit once — one conflict-free cycle moving
// a full 128-byte bandwidth slot.
TEST(TraceGolden, SharedConflictFree) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordShared(lane, 0, 4 * lane, 4, false, false);
  }
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.shared_cycles, 1u);
  EXPECT_EQ(m.bank_conflict_cycles, 0u);
  EXPECT_EQ(m.shared_bytes, 128u);
  EXPECT_EQ(m.shared_useful_bytes, 128u);
}

// Lane i -> word 2i: banks 0,2,..,30 each see two distinct words — the
// classic 2-way conflict, one replay cycle.
TEST(TraceGolden, SharedTwoWayBankConflict) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordShared(lane, 0, 4 * (2 * lane), 4, false, false);
  }
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.shared_cycles, 2u);
  EXPECT_EQ(m.bank_conflict_cycles, 1u);
  EXPECT_EQ(m.shared_bytes, 256u);
}

// All lanes reading one word broadcast conflict-free (the exemption that
// makes the paper's padded layouts worthwhile only for writes/distinct
// words).
TEST(TraceGolden, SharedBroadcastExemption) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordShared(lane, 0, /*addr=*/0, 4, false, false);
  }
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.shared_cycles, 1u);
  EXPECT_EQ(m.bank_conflict_cycles, 0u);
  EXPECT_EQ(m.shared_useful_bytes, 128u);
}

// 8-byte accesses occupy two words each: every bank holds two distinct
// words -> two cycles (the hardware's two-phase 64-bit access).
TEST(TraceGolden, SharedEightByteTwoPhase) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordShared(lane, 0, 8 * lane, 8, false, false);
  }
  KernelMetrics m = Analyzed(tracer);
  EXPECT_EQ(m.shared_cycles, 2u);
  EXPECT_EQ(m.bank_conflict_cycles, 1u);
  EXPECT_EQ(m.shared_useful_bytes, 256u);
}

// Warp-aggregated same-word atomics: one update cycle plus the RMW cycle.
// Distinct words on one bank serialize per word instead.
TEST(TraceGolden, SharedAtomics) {
  DeviceSpec spec;
  {
    BlockTracer tracer(spec, 32);
    for (int lane = 0; lane < 32; ++lane) {
      tracer.RecordShared(lane, 0, 0, 4, true, /*atomic=*/true);
    }
    KernelMetrics m = Analyzed(tracer);
    EXPECT_EQ(m.shared_atomic_cycles, 2u);
    EXPECT_EQ(m.shared_cycles, 0u);  // atomics billed separately
    EXPECT_EQ(m.shared_useful_bytes, 128u);
  }
  {
    BlockTracer tracer(spec, 32);
    for (int lane = 0; lane < 32; ++lane) {
      // Word 32*lane: all in bank 0, all distinct -> 32 + 1 cycles.
      tracer.RecordShared(lane, 0, 4 * 32 * lane, 4, true, /*atomic=*/true);
    }
    KernelMetrics m = Analyzed(tracer);
    EXPECT_EQ(m.shared_atomic_cycles, 33u);
  }
}

// The barrier epoch is stamped on accesses but must never change the
// metrics: the same pattern split across epochs analyzes identically.
TEST(TraceGolden, EpochsDoNotAffectMetrics) {
  DeviceSpec spec;
  BlockTracer flat(spec, 32, /*retain_accesses=*/true);
  BlockTracer epoched(spec, 32, /*retain_accesses=*/true);
  for (int lane = 0; lane < 32; ++lane) {
    flat.RecordShared(lane, 0, 4 * lane, 4, true, false);
    flat.RecordShared(lane, 1, 4 * lane, 4, false, false);
  }
  for (int lane = 0; lane < 32; ++lane) {
    epoched.RecordShared(lane, 0, 4 * lane, 4, true, false);
  }
  epoched.AdvanceEpoch();
  for (int lane = 0; lane < 32; ++lane) {
    epoched.RecordShared(lane, 1, 4 * lane, 4, false, false);
  }
  KernelMetrics a = Analyzed(flat);
  KernelMetrics b = Analyzed(epoched);
  EXPECT_EQ(a.shared_cycles, b.shared_cycles);
  EXPECT_EQ(a.shared_bytes, b.shared_bytes);
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.bank_conflict_cycles, b.bank_conflict_cycles);

  // ... while the recorded epochs differ as stamped.
  // (Retained records are in record order: lane 0's seq 1 is entry 32.)
  EXPECT_EQ(epoched.retained_shared()[0].epoch, 0u);
  EXPECT_EQ(epoched.retained_shared()[32].epoch, 1u);
  EXPECT_EQ(flat.retained_shared()[1].epoch, 0u);
}

// Reset clears accesses and rewinds the epoch counter for block reuse.
TEST(TraceGolden, ResetClearsEpoch) {
  DeviceSpec spec;
  BlockTracer tracer(spec, 32, /*retain_accesses=*/true);
  tracer.RecordShared(0, 0, 0, 4, true, false);
  tracer.AdvanceEpoch();
  EXPECT_EQ(tracer.epoch(), 1u);
  tracer.Reset(32);
  EXPECT_EQ(tracer.epoch(), 0u);
  EXPECT_TRUE(tracer.retained_shared().empty());
  tracer.RecordShared(0, 0, 0, 4, true, false);
  EXPECT_EQ(tracer.retained_shared()[0].epoch, 0u);
}

}  // namespace
}  // namespace mptopk::simt
