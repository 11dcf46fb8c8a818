#include "simt/racecheck.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mptopk::simt {
namespace {

using Rec = BlockTracer::Access;

bool Conflicts(const Rec& x, const Rec& y, int warp_size) {
  if (x.tid == y.tid) return false;
  if (!x.write && !y.write) return false;
  if (x.atomic && y.atomic) return false;
  // Lockstep exemption: lanes of one warp at the same sequence number are
  // one SIMT instruction; hardware executes it as a unit.
  if (x.tid / warp_size == y.tid / warp_size && x.seq == y.seq) return false;
  return true;
}

RaceHazard::Party MakeParty(const Rec& r, int warp_size) {
  RaceHazard::Party p;
  p.tid = r.tid;
  p.lane = r.tid % warp_size;
  p.warp = r.tid / warp_size;
  p.seq = r.seq;
  p.write = r.write;
  p.atomic = r.atomic;
  p.addr = r.addr;
  p.size = r.size;
  return p;
}

void MaybeHazard(const Rec& x, const Rec& y, int warp_size,
                 RaceHazard::Space space, const std::string& kernel,
                 int block_idx, RaceReport* report) {
  if (!Conflicts(x, y, warp_size)) return;
  ++report->hazard_count;
  if (report->hazards.size() >= RaceReport::kMaxRecordedHazards) return;
  RaceHazard h;
  h.kernel = kernel;
  h.space = space;
  h.block_idx = block_idx;
  h.epoch = x.epoch;
  h.a = MakeParty(x, warp_size);
  h.b = MakeParty(y, warp_size);
  h.addr = std::max(x.addr, y.addr);
  h.bytes = static_cast<uint32_t>(
      std::min(x.addr + x.size, y.addr + y.size) - h.addr);
  report->hazards.push_back(std::move(h));
}

// Checks one address space of one block. The sweep sorts all accesses by
// (epoch, addr) and walks runs of identical (epoch, addr); `active` carries
// earlier records of the epoch whose byte range still reaches the current
// run (only possible with mixed access sizes, so it is almost always empty).
// Runs without a write are skipped wholesale — that keeps the broadcast
// patterns (every thread reading one shared word) linear instead of
// quadratic. (tid, seq) is unique per space, so the sort key is total and
// the hazard order does not depend on record order.
void CheckSpace(std::vector<Rec> recs, int warp_size, RaceHazard::Space space,
                const std::string& kernel, int block_idx, RaceReport* report) {
  if (recs.size() < 2) return;
  std::sort(recs.begin(), recs.end(), [](const Rec& x, const Rec& y) {
    if (x.epoch != y.epoch) return x.epoch < y.epoch;
    if (x.addr != y.addr) return x.addr < y.addr;
    if (x.tid != y.tid) return x.tid < y.tid;
    return x.seq < y.seq;
  });

  std::vector<Rec> active;
  uint32_t cur_epoch = recs[0].epoch + 1;  // forces a clear on entry
  size_t i = 0;
  while (i < recs.size()) {
    if (recs[i].epoch != cur_epoch) {
      active.clear();
      cur_epoch = recs[i].epoch;
    }
    const uint64_t addr = recs[i].addr;
    size_t j = i;
    bool any_write = false;
    while (j < recs.size() && recs[j].epoch == cur_epoch &&
           recs[j].addr == addr) {
      any_write |= recs[j].write;
      ++j;
    }

    active.erase(std::remove_if(active.begin(), active.end(),
                                [addr](const Rec& r) {
                                  return r.addr + r.size <= addr;
                                }),
                 active.end());
    for (const Rec& a : active) {
      for (size_t k = i; k < j; ++k) {
        MaybeHazard(a, recs[k], warp_size, space, kernel, block_idx, report);
      }
    }
    if (any_write) {
      for (size_t p = i; p < j; ++p) {
        for (size_t q = p + 1; q < j; ++q) {
          if (!recs[p].write && !recs[q].write) continue;
          MaybeHazard(recs[p], recs[q], warp_size, space, kernel, block_idx,
                      report);
        }
      }
    }
    for (size_t k = i; k < j; ++k) active.push_back(recs[k]);
    i = j;
  }
}

}  // namespace

void RaceChecker::CheckBlock(const BlockTracer& tracer, const DeviceSpec& spec,
                             const std::string& kernel, int block_idx,
                             RaceReport* report) {
  CheckSpace(tracer.retained_shared(), spec.warp_size,
             RaceHazard::Space::kShared, kernel, block_idx, report);
  CheckSpace(tracer.retained_global(), spec.warp_size,
             RaceHazard::Space::kGlobal, kernel, block_idx, report);
  ++report->blocks_checked;
}

std::string RaceHazard::ToString() const {
  auto kind = [](const Party& p) {
    return p.atomic ? "atomic" : (p.write ? "write" : "read");
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s%s %s hazard in %s block=%d epoch=%u bytes=[%llu,%llu): "
                "tid %d (w%d:l%d seq %u) %s vs tid %d (w%d:l%d seq %u) %s",
                a.write ? "W" : "R", b.write ? "W" : "R",
                space == Space::kShared ? "shared" : "global", kernel.c_str(),
                block_idx, epoch, static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(addr + bytes), a.tid, a.warp,
                a.lane, a.seq, kind(a), b.tid, b.warp, b.lane, b.seq, kind(b));
  return buf;
}

void RaceReport::Merge(const RaceReport& o) {
  hazard_count += o.hazard_count;
  blocks_checked += o.blocks_checked;
  for (const RaceHazard& h : o.hazards) {
    if (hazards.size() >= kMaxRecordedHazards) break;
    hazards.push_back(h);
  }
}

std::string RaceReport::Summary() const {
  char head[96];
  if (clean()) {
    std::snprintf(head, sizeof(head), "racecheck: clean (%llu blocks)",
                  static_cast<unsigned long long>(blocks_checked));
    return head;
  }
  std::snprintf(head, sizeof(head),
                "racecheck: %llu hazards across %llu blocks",
                static_cast<unsigned long long>(hazard_count),
                static_cast<unsigned long long>(blocks_checked));
  std::string s = head;
  const size_t show = std::min<size_t>(hazards.size(), 3);
  for (size_t i = 0; i < show; ++i) {
    s += "; ";
    s += hazards[i].ToString();
  }
  return s;
}

bool RacecheckEnvEnabled() {
  const char* v = std::getenv("MPTOPK_RACECHECK");
  if (v == nullptr || v[0] == '\0') return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "false") != 0 &&
         std::strcmp(v, "off") != 0;
}

}  // namespace mptopk::simt
