// Equivalence of BlockTracer's per-warp slot analyzer with the analyzer it
// replaced: a k-way merge over per-thread access streams, kept below as the
// reference. Seeded random access patterns (ragged divergent lanes, seq
// gaps, partial last warps, ForEachThreadBelow regions, 1-16 byte
// accesses at misaligned addresses, atomics mixed with plain accesses in
// one instruction, several barrier epochs) must produce equal
// KernelMetrics in every field, both when one tracer analyzes the whole
// block at once and when a Block flushes it at every region boundary. The
// race checker's retained access list must match the streams exactly.
// Patterns that keep every lane active exercise the cached costs of affine
// rows, including more shapes than the shape table holds and two
// geometries analyzed side by side.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <random>
#include <tuple>
#include <vector>

#include "simt/block.h"
#include "simt/device_spec.h"
#include "simt/metrics.h"
#include "simt/trace.h"

namespace mptopk::simt {
namespace {

// --- Reference analyzer (per-thread streams, k-way merge) -------------------
// The bodies are the former BlockTracer members, unchanged (`spec_` was the
// member they read).

struct RefAccess {
  uint64_t addr;
  uint32_t seq;
  uint32_t epoch;
  uint16_t size;
  bool write;
  bool atomic;
};
// Indexed by tid; accesses are in strictly increasing seq order per thread.
using Streams = std::vector<std::vector<RefAccess>>;

void RefGlobalWarp(const DeviceSpec& spec_,
                   const std::vector<RefAccess>* lanes, int num_lanes,
                   KernelMetrics* m) {
  std::array<size_t, 32> pos{};
  const uint64_t sector = spec_.sector_bytes;
  while (true) {
    // Find the minimum outstanding seq across lanes.
    uint32_t min_seq = std::numeric_limits<uint32_t>::max();
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] < lanes[l].size()) {
        min_seq = std::min(min_seq, lanes[l][pos[l]].seq);
      }
    }
    if (min_seq == std::numeric_limits<uint32_t>::max()) break;

    // Gather the participating lanes of this warp instruction.
    std::array<uint64_t, 64> sectors;
    int num_sectors = 0;
    int participants = 0;
    uint64_t useful = 0;
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] >= lanes[l].size() || lanes[l][pos[l]].seq != min_seq) {
        continue;
      }
      const RefAccess& a = lanes[l][pos[l]];
      ++pos[l];
      ++participants;
      useful += a.size;
      uint64_t first = a.addr / sector;
      uint64_t last = (a.addr + a.size - 1) / sector;
      for (uint64_t s = first; s <= last; ++s) {
        bool seen = false;
        for (int j = 0; j < num_sectors; ++j) {
          if (sectors[j] == s) {
            seen = true;
            break;
          }
        }
        if (!seen && num_sectors < 64) sectors[num_sectors++] = s;
      }
    }
    m->warp_instructions += 1;
    m->divergent_lane_slots += spec_.warp_size - participants;
    m->global_transactions += num_sectors;
    m->global_bytes += static_cast<uint64_t>(num_sectors) * sector;
    m->global_useful_bytes += useful;
  }
}

void RefSharedWarp(const DeviceSpec& spec_,
                   const std::vector<RefAccess>* lanes, int num_lanes,
                   KernelMetrics* m) {
  const int kBanks = spec_.shared_mem_banks;
  const uint64_t word = spec_.bank_width_bytes;
  // Per-bank distinct-word lists for the current warp instruction. Lane
  // counts are tiny (<= 32 lanes * 4 words), linear scans are fine.
  std::vector<std::vector<uint64_t>> bank_words(kBanks);
  std::vector<int> bank_accesses(kBanks);

  std::array<size_t, 32> pos{};
  while (true) {
    uint32_t min_seq = std::numeric_limits<uint32_t>::max();
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] < lanes[l].size()) {
        min_seq = std::min(min_seq, lanes[l][pos[l]].seq);
      }
    }
    if (min_seq == std::numeric_limits<uint32_t>::max()) break;

    for (auto& bw : bank_words) bw.clear();
    std::fill(bank_accesses.begin(), bank_accesses.end(), 0);
    int participants = 0;
    uint64_t useful = 0;
    bool any_atomic = false;
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] >= lanes[l].size() || lanes[l][pos[l]].seq != min_seq) {
        continue;
      }
      const RefAccess& a = lanes[l][pos[l]];
      ++pos[l];
      ++participants;
      useful += a.size;
      any_atomic |= a.atomic;
      uint64_t first = a.addr / word;
      uint64_t last = (a.addr + a.size - 1) / word;
      for (uint64_t w = first; w <= last; ++w) {
        int bank = static_cast<int>(w % kBanks);
        ++bank_accesses[bank];
        auto& words = bank_words[bank];
        if (std::find(words.begin(), words.end(), w) == words.end()) {
          words.push_back(w);
        }
      }
    }

    m->warp_instructions += 1;
    m->divergent_lane_slots += spec_.warp_size - participants;
    if (any_atomic) {
      // Same-word atomics within one warp instruction are warp-aggregated
      // (one hardware update delivering per-lane return values, as modern
      // shared-atomic units do); distinct words on a bank still replay, and
      // the read-modify-write costs one extra cycle.
      int cycles = 1;
      for (int b = 0; b < kBanks; ++b) {
        cycles = std::max(cycles, static_cast<int>(bank_words[b].size()) + 1);
      }
      m->shared_atomic_cycles += cycles;
      m->shared_useful_bytes += useful;
    } else {
      // Plain accesses: distinct words on the same bank replay; all lanes
      // reading one word broadcast in a single cycle.
      int replays = 1;
      for (int b = 0; b < kBanks; ++b) {
        replays = std::max(replays, static_cast<int>(bank_words[b].size()));
      }
      m->shared_cycles += replays;
      m->bank_conflict_cycles += replays - 1;
      m->shared_bytes +=
          static_cast<uint64_t>(replays) * kBanks * spec_.bank_width_bytes;
      m->shared_useful_bytes += useful;
    }
  }
}

KernelMetrics RefAnalyze(const DeviceSpec& spec, int block_dim,
                         const Streams& global, const Streams& shared) {
  KernelMetrics m;
  const int ws = spec.warp_size;
  for (int w = 0; w * ws < block_dim; ++w) {
    int lanes = std::min(ws, block_dim - w * ws);
    RefGlobalWarp(spec, &global[w * ws], lanes, &m);
    RefSharedWarp(spec, &shared[w * ws], lanes, &m);
  }
  m.blocks_traced += 1;
  return m;
}

// --- Random patterns ----------------------------------------------------------

struct Op {
  bool shared;
  uint64_t addr;
  uint16_t size;
  bool write;
  bool atomic;
  uint32_t skip;  // seq numbers the lane skips first (a divergent gap)
};

struct Region {
  int threads;  // ForEachThreadBelow(threads, ...) when < block_dim
  bool sync_after;
  std::vector<std::vector<Op>> ops;  // per tid
};

constexpr uint16_t kSizes[] = {1, 2, 4, 8, 16};

// Strides of the affine instructions. Negative ones and ones wider than 64
// bank rows or many sectors appear only in all-lanes patterns, whose bases
// leave room for them.
constexpr int64_t kStrides[] = {0,  1,  2,  4,   8,  12,  32,  132,
                                36, 16, -4, -8, -12, -36, 8196, -8196};
constexpr int kRaggedStrides = 8;
constexpr uint64_t kNegativeRoom = uint64_t{1} << 20;

// `all_lanes` keeps every lane of every instruction (no ragged lanes, seq
// gaps or ForEachThreadBelow regions), so most rows are affine.
std::vector<Region> MakePattern(std::mt19937_64& rng, int block_dim,
                                bool all_lanes = false) {
  auto pick = [&](uint64_t n) { return rng() % n; };
  std::vector<Region> regions(1 + pick(5));
  for (Region& r : regions) {
    r.threads = pick(3) == 0 ? 1 + static_cast<int>(pick(block_dim))
                             : block_dim;
    if (all_lanes) r.threads = block_dim;
    r.sync_after = pick(2) == 0;
    r.ops.resize(block_dim);
    // Instruction templates shared by all lanes: op j of every lane is one
    // SIMT instruction unless a lane runs short or skips.
    const int num_ops = static_cast<int>(pick(pick(4) == 0 ? 150 : 8));
    for (int j = 0; j < num_ops; ++j) {
      const bool shared = pick(2) == 0;
      const uint16_t size = kSizes[pick(5)];
      const bool mixed_size = pick(4) == 0;
      const uint64_t base = (shared ? 0 : 4096) + pick(256) +
                            (all_lanes ? kNegativeRoom : 0);
      const uint64_t stride = static_cast<uint64_t>(
          kStrides[pick(all_lanes ? std::size(kStrides) : kRaggedStrides)]);
      const bool write = pick(2) == 0;
      const int atomic_mode = static_cast<int>(pick(3));  // none/all/mixed
      const bool scatter = pick(5) == 0;
      for (int tid = 0; tid < r.threads; ++tid) {
        // Ragged lanes: some lanes run out of instructions early.
        if (!all_lanes && pick(10) == 0) continue;
        Op op;
        op.shared = shared;
        op.size = mixed_size ? kSizes[pick(5)] : size;
        op.addr = scatter ? (shared ? 0 : 4096) + pick(2048)
                          : base + stride * (tid % 32) + 4096 * (tid / 32);
        op.atomic = shared
                        ? (atomic_mode == 1 || (atomic_mode == 2 && pick(2)))
                        : atomic_mode == 1;
        op.write = write || op.atomic;
        op.skip = !all_lanes && pick(12) == 0
                      ? 1 + static_cast<uint32_t>(pick(3))
                      : 0;
        r.ops[tid].push_back(op);
      }
    }
  }
  return regions;
}

// --- Comparison helpers -------------------------------------------------------

void ExpectSameMetrics(const KernelMetrics& a, const KernelMetrics& b,
                       const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.global_transactions, b.global_transactions);
  EXPECT_EQ(a.global_bytes, b.global_bytes);
  EXPECT_EQ(a.global_useful_bytes, b.global_useful_bytes);
  EXPECT_EQ(a.local_bytes, b.local_bytes);
  EXPECT_EQ(a.shared_cycles, b.shared_cycles);
  EXPECT_EQ(a.shared_bytes, b.shared_bytes);
  EXPECT_EQ(a.shared_useful_bytes, b.shared_useful_bytes);
  EXPECT_EQ(a.bank_conflict_cycles, b.bank_conflict_cycles);
  EXPECT_EQ(a.shared_atomic_cycles, b.shared_atomic_cycles);
  EXPECT_EQ(a.global_atomics, b.global_atomics);
  EXPECT_EQ(a.dependent_stall_cycles, b.dependent_stall_cycles);
  EXPECT_EQ(a.warp_instructions, b.warp_instructions);
  EXPECT_EQ(a.divergent_lane_slots, b.divergent_lane_slots);
  EXPECT_EQ(a.blocks_traced, b.blocks_traced);
  EXPECT_EQ(a.blocks_launched, b.blocks_launched);
}

using Key = std::tuple<int, uint32_t, uint64_t, uint32_t, uint16_t, bool, bool>;

std::vector<Key> Keys(const std::vector<BlockTracer::Access>& log) {
  std::vector<Key> k;
  for (const auto& a : log) {
    k.emplace_back(a.tid, a.seq, a.addr, a.epoch, a.size, a.write, a.atomic);
  }
  std::sort(k.begin(), k.end());
  return k;
}

std::vector<Key> Keys(const Streams& streams) {
  std::vector<Key> k;
  for (size_t tid = 0; tid < streams.size(); ++tid) {
    for (const auto& a : streams[tid]) {
      k.emplace_back(static_cast<int>(tid), a.seq, a.addr, a.epoch, a.size,
                     a.write, a.atomic);
    }
  }
  std::sort(k.begin(), k.end());
  return k;
}

// Runs `regions` through a Block (flushing at region boundaries) while
// capturing the per-thread streams, then checks the flushed analysis, a
// single whole-block analysis and the retained list against the reference.
void CheckRegions(const DeviceSpec& spec, int block_dim,
                  const std::vector<Region>& regions) {
  Streams global(block_dim), shared(block_dim);
  BlockTracer split(spec, block_dim, /*retain_accesses=*/true);
  Block block(spec, /*grid_dim=*/1, block_dim);
  block.ResetFor(0, &split);
  for (const Region& r : regions) {
    auto body = [&](Thread& t) {
      for (const Op& op : r.ops[t.tid]) {
        uint32_t& seq = op.shared ? t.shared_seq : t.global_seq;
        seq += op.skip;
        (op.shared ? shared : global)[t.tid].push_back(RefAccess{
            op.addr, seq, split.epoch(), op.size, op.write, op.atomic});
        if (op.shared) {
          t.tracer->RecordShared(t.tid, seq++, op.addr, op.size, op.write,
                                 op.atomic);
        } else {
          t.tracer->RecordGlobal(t.tid, seq++, op.addr, op.size, op.write,
                                 op.atomic);
        }
      }
    };
    if (r.threads < block_dim) {
      block.ForEachThreadBelow(r.threads, body);
    } else {
      block.ForEachThread(body);
    }
    if (r.sync_after) block.Sync();
  }

  BlockTracer whole(spec, block_dim);
  for (int tid = 0; tid < block_dim; ++tid) {
    for (const RefAccess& a : global[tid]) {
      whole.RecordGlobal(tid, a.seq, a.addr, a.size, a.write, a.atomic);
    }
    for (const RefAccess& a : shared[tid]) {
      whole.RecordShared(tid, a.seq, a.addr, a.size, a.write, a.atomic);
    }
  }

  const KernelMetrics ref = RefAnalyze(spec, block_dim, global, shared);
  KernelMetrics split_m, whole_m;
  split.Analyze(&split_m);
  whole.Analyze(&whole_m);
  ExpectSameMetrics(split_m, ref, "split at region boundaries");
  ExpectSameMetrics(whole_m, ref, "whole block");
  EXPECT_EQ(Keys(split.retained_global()), Keys(global));
  EXPECT_EQ(Keys(split.retained_shared()), Keys(shared));
  EXPECT_TRUE(whole.retained_global().empty());
}

void CheckPattern(const DeviceSpec& spec, int block_dim, uint64_t seed,
                  bool all_lanes = false) {
  SCOPED_TRACE(::testing::Message() << "block_dim=" << block_dim
                                    << " seed=" << seed
                                    << " all_lanes=" << all_lanes);
  std::mt19937_64 rng(seed);
  CheckRegions(spec, block_dim, MakePattern(rng, block_dim, all_lanes));
}

DeviceSpec OtherGeometry() {
  DeviceSpec spec = DeviceSpec::TeslaP100();
  spec.sector_bytes = 64;
  spec.bank_width_bytes = 8;
  spec.shared_mem_banks = 16;
  return spec;
}

TEST(TraceEquivalence, FullWarps) {
  const DeviceSpec spec = DeviceSpec::TitanXMaxwell();
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    CheckPattern(spec, seed % 2 == 0 ? 64 : 32, seed);
  }
}

// block_dim 48: the second warp has 16 lanes, so every one of its
// instructions has at least 16 idle slots.
TEST(TraceEquivalence, PartialLastWarp) {
  const DeviceSpec spec = DeviceSpec::TitanXMaxwell();
  for (uint64_t seed = 1001; seed <= 1120; ++seed) {
    CheckPattern(spec, 48, seed);
  }
}

// Another supported geometry: wider sectors, 8-byte banks, 16 banks.
TEST(TraceEquivalence, OtherGeometry) {
  const DeviceSpec spec = OtherGeometry();
  ASSERT_TRUE(BlockTracer::CheckGeometry(spec).ok());
  for (uint64_t seed = 2001; seed <= 2060; ++seed) {
    CheckPattern(spec, 96, seed);
  }
}

// Every lane active: affine rows take the cached shape costs, and scatters
// or mixed sizes with full masks take the distinct-word count.
TEST(TraceEquivalence, AllLanesActive) {
  const DeviceSpec titan = DeviceSpec::TitanXMaxwell();
  const DeviceSpec other = OtherGeometry();
  for (uint64_t seed = 3001; seed <= 3120; ++seed) {
    CheckPattern(seed % 2 == 0 ? titan : other, seed % 3 == 0 ? 32 : 64, seed,
                 /*all_lanes=*/true);
  }
}

// Unaligned 16-byte accesses at every offset within a sector, at strides
// that keep lanes adjacent, overlapping and spread over many bank rows.
TEST(TraceEquivalence, UnalignedSixteenByteRows) {
  for (const DeviceSpec& spec :
       {DeviceSpec::TitanXMaxwell(), OtherGeometry()}) {
    Region r{32, false, std::vector<std::vector<Op>>(32)};
    for (uint64_t offset = 0; offset < 64; ++offset) {
      for (int64_t stride : {16, 12, 36, -16, 8196}) {
        for (bool shared : {false, true}) {
          for (int tid = 0; tid < 32; ++tid) {
            r.ops[tid].push_back(Op{shared,
                                    kNegativeRoom + offset +
                                        static_cast<uint64_t>(stride * tid),
                                    16, false, false, 0});
          }
        }
      }
    }
    CheckRegions(spec, 32, {r});
  }
}

// More distinct (stride, size, offset) classes than the shape table holds,
// each class met several times in shuffled order, so entries are evicted
// and recomputed.
TEST(TraceEquivalence, ShapeTableEviction) {
  std::mt19937_64 rng(4001);
  struct Shape {
    int64_t stride;
    uint16_t size;
    uint64_t offset;
  };
  std::vector<Shape> shapes;
  while (shapes.size() < 3 * BlockTracer::kShapeTableEntries) {
    const int64_t stride = static_cast<int64_t>(rng() % 600) - 300;
    shapes.push_back(Shape{stride, kSizes[rng() % 5], rng() % 64});
  }
  std::vector<Shape> order;
  for (int pass = 0; pass < 3; ++pass) {
    std::shuffle(shapes.begin(), shapes.end(), rng);
    order.insert(order.end(), shapes.begin(), shapes.end());
  }
  for (const DeviceSpec& spec :
       {DeviceSpec::TitanXMaxwell(), OtherGeometry()}) {
    Region r{64, false, std::vector<std::vector<Op>>(64)};
    for (const Shape& sh : order) {
      for (bool shared : {false, true}) {
        for (int tid = 0; tid < 64; ++tid) {
          r.ops[tid].push_back(
              Op{shared,
                 kNegativeRoom + sh.offset + 65536 * (tid / 32) +
                     static_cast<uint64_t>(sh.stride * (tid % 32)),
                 sh.size, false, shared && sh.size == 4 && sh.offset % 4 == 0,
                 0});
        }
      }
    }
    CheckRegions(spec, 64, {r});
  }
}

// Two tracers of different geometry on one thread, fed identical affine
// rows in alternation: each must match its own reference, so cached costs
// never cross geometries.
TEST(TraceEquivalence, ShapeCostsStayWithTheirGeometry) {
  const DeviceSpec titan = DeviceSpec::TitanXMaxwell();
  const DeviceSpec other = OtherGeometry();
  BlockTracer a(titan, 32), b(other, 32);
  Streams global(32), shared(32);
  uint32_t seq = 0;
  for (int64_t stride : {132, 32, 4, 8, 12, 36, 64, -8}) {
    for (uint16_t size : {4, 8}) {
      for (uint64_t offset : {0, 4}) {
        for (int tid = 0; tid < 32; ++tid) {
          const uint64_t addr =
              kNegativeRoom + offset + static_cast<uint64_t>(stride * tid);
          global[tid].push_back(RefAccess{addr, seq, 0, size, false, false});
          shared[tid].push_back(RefAccess{addr, seq, 0, size, false, false});
          for (BlockTracer* t : {&a, &b}) {
            t->RecordGlobal(tid, seq, addr, size, false);
            t->RecordShared(tid, seq, addr, size, false, false);
          }
        }
        ++seq;
        a.EndRegion();
        b.EndRegion();
      }
    }
  }
  const KernelMetrics ref_a = RefAnalyze(titan, 32, global, shared);
  const KernelMetrics ref_b = RefAnalyze(other, 32, global, shared);
  // The rows cost differently on the two geometries.
  ASSERT_NE(ref_a.global_transactions, ref_b.global_transactions);
  ASSERT_NE(ref_a.shared_cycles, ref_b.shared_cycles);
  KernelMetrics got_a, got_b;
  a.Analyze(&got_a);
  b.Analyze(&got_b);
  ExpectSameMetrics(got_a, ref_a, "TitanXMaxwell");
  ExpectSameMetrics(got_b, ref_b, "OtherGeometry");
}

// Reuse after Reset starts from empty slots and a zero epoch.
TEST(TraceEquivalence, ResetReusesSlots) {
  const DeviceSpec spec = DeviceSpec::TitanXMaxwell();
  BlockTracer tracer(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordShared(lane, 0, 4 * 32 * lane, 4, true, /*atomic=*/true);
  }
  tracer.EndRegion();
  tracer.Reset(32);
  for (int lane = 0; lane < 32; ++lane) {
    tracer.RecordShared(lane, 0, 4 * lane, 4, false, false);
  }
  KernelMetrics m;
  tracer.Analyze(&m);
  EXPECT_EQ(m.warp_instructions, 1u);
  EXPECT_EQ(m.shared_cycles, 1u);
  EXPECT_EQ(m.shared_atomic_cycles, 0u);
}

}  // namespace
}  // namespace mptopk::simt
