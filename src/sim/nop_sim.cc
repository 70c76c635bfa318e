#include "sim/nop_sim.h"

#include <algorithm>
#include <cstdint>

namespace cnpu {

const LinkStats* hottest_link(const std::vector<LinkStats>& stats) {
  const LinkStats* hot = nullptr;
  for (const LinkStats& l : stats) {
    if (hot == nullptr || l.utilization > hot->utilization) hot = &l;
  }
  return hot;
}

void NopFabric::reset_state() {
  std::fill(occ_.begin(), occ_.end(), Occupancy{});
}

namespace {

constexpr std::size_t kMinTableSlots = 64;
// reserve_for never reserves more links than this (about 4.5 MB) up front,
// whatever a package's chiplet count or substrate depth; past it the
// registry grows as links register.
constexpr std::size_t kMaxReservedLinks = std::size_t{1} << 16;

// An FNV-1a mix of every field NopLink::operator== compares, then a
// multiplicative finish so the low bits the table masks depend on all of
// them.
std::size_t hash_of(const NopLink& l) {
  std::uint64_t h = static_cast<std::uint64_t>(l.kind);
  for (const int f : {l.npu, l.npu_to, l.from.row, l.from.col, l.to.row,
                      l.to.col, l.substrate_step}) {
    h = (h ^ static_cast<std::uint32_t>(f)) * 0x100000001b3ull;
  }
  h *= 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace

void NopFabric::reserve_for(const PackageConfig& pkg) {
  // Every grid position, live or failed, has at most four outgoing mesh
  // links; the I/O port adds one; each boundary of a chain of NPUs adds
  // inter_npu_hops substrate links per direction. A grid with empty
  // positions between its chiplets can route over more mesh links than
  // this, and then the registry grows as they register.
  std::size_t boundaries = 0;  // between NPU 0 and the highest NPU
  for (const ChipletSpec& c : pkg.chiplets()) {
    if (c.npu > 0) {
      boundaries = std::max(boundaries, static_cast<std::size_t>(c.npu));
    }
  }
  const std::size_t positions =
      pkg.chiplets().size() + pkg.failed_sites().size();
  boundaries = std::min(boundaries, positions);
  const std::size_t hops =
      std::min(static_cast<std::size_t>(std::max(pkg.inter_npu_hops(), 0)),
               kMaxReservedLinks);
  const std::size_t links = std::min(
      4 * positions + 1 + 2 * boundaries * hops, kMaxReservedLinks);
  if (links_.capacity() >= links) return;
  links_.reserve(links);
  occ_.reserve(links);
  std::size_t slots = kMinTableSlots;
  while (slots < 2 * links) slots *= 2;
  if (table_.size() < slots) rehash(slots);
}

int NopFabric::index_of(const NopLink& link) {
  if (table_.empty()) rehash(kMinTableSlots);
  const std::size_t mask = table_.size() - 1;
  std::size_t slot = hash_of(link) & mask;
  for (; table_[slot] >= 0; slot = (slot + 1) & mask) {
    const int index = table_[slot];
    if (links_[static_cast<std::size_t>(index)] == link) return index;
  }
  const int index = static_cast<int>(links_.size());
  table_[slot] = index;
  links_.push_back(link);
  occ_.emplace_back();
  if (2 * links_.size() > table_.size()) rehash(2 * table_.size());
  return index;
}

void NopFabric::rehash(std::size_t slots) {
  table_.assign(slots, -1);
  const std::size_t mask = slots - 1;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    std::size_t slot = hash_of(links_[i]) & mask;
    while (table_[slot] >= 0) slot = (slot + 1) & mask;
    table_[slot] = static_cast<int>(i);
  }
}

void NopFabric::resolve(const std::vector<NopLink>& route,
                        std::vector<int>& out) {
  for (const NopLink& link : route) out.push_back(index_of(link));
}

double NopFabric::inject(std::span<const int> route, double bytes,
                         double time) {
  // Infinite bandwidth divides to exactly 0.0: zero-width occupancies never
  // conflict and the returned wait is exactly 0.0.
  const double ser = bytes > 0.0 ? bytes / params_.bandwidth_bytes_per_s : 0.0;
  double t = time;
  double waited = 0.0;
  for (const int li : route) {
    Occupancy& o = occ_[static_cast<std::size_t>(li)];
    const double start = o.free > t ? o.free : t;
    const double wait = start - t;
    waited += wait;
    if (wait > o.max_wait) o.max_wait = wait;
    o.total_wait += wait;
    o.free = start + ser;
    o.busy += ser;
    ++o.messages;
    t = start + ser;
  }
  return waited;
}

void NopFabric::stats_into(double horizon_s, const std::vector<int>& links,
                           std::vector<LinkStats>& out) const {
  out.clear();
  out.reserve(links.size());
  for (const int li : links) {
    const std::size_t i = static_cast<std::size_t>(li);
    const Occupancy& o = occ_[i];
    LinkStats s;
    s.link = links_[i];
    s.busy_s = o.busy;
    s.utilization = horizon_s > 0.0 ? o.busy / horizon_s : 0.0;
    s.max_queue_wait_s = o.max_wait;
    s.total_queue_wait_s = o.total_wait;
    s.messages = o.messages;
    out.push_back(s);
  }
}

}  // namespace cnpu
