#include "digest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <vector>

namespace perfbench {

void Digest::mix(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

Digest& Digest::add(double v) {
  mix(std::isnan(v) ? 0x7ff8000000000000ULL : std::bit_cast<std::uint64_t>(v));
  return *this;
}

Digest& Digest::add(std::int64_t v) {
  mix(static_cast<std::uint64_t>(v));
  return *this;
}

Digest& Digest::add(const std::string& s) {
  add(static_cast<std::int64_t>(s.size()));
  for (const char c : s) mix(static_cast<unsigned char>(c));
  return *this;
}

namespace {

void add_vec(Digest& d, const std::vector<double>& v) {
  d.add(static_cast<std::int64_t>(v.size()));
  for (const double x : v) d.add(x);
}

void add_link(Digest& d, const cnpu::LinkStats& s) {
  const cnpu::NopLink& l = s.link;
  d.add(static_cast<int>(l.kind)).add(l.npu).add(l.npu_to);
  d.add(l.from.row).add(l.from.col).add(l.to.row).add(l.to.col);
  d.add(l.substrate_step);
  d.add(s.busy_s).add(s.utilization).add(s.max_queue_wait_s);
  d.add(s.total_queue_wait_s).add(s.messages);
}

void add_tenant(Digest& d, const cnpu::TenantResult& t) {
  d.add(t.name).add(t.frames).add(t.frames_completed).add(t.dropped_frames);
  d.add(t.shed_frames).add(t.deadline_miss_frames);
  d.add(t.p50_latency_s).add(t.p95_latency_s).add(t.p99_latency_s);
  d.add(t.mean_latency_s).add(t.peak_latency_s).add(t.steady_interval_s);
  d.add(t.mean_queue_delay_s).add(t.peak_queue_delay_s).add(t.nop_wait_s);
  add_vec(d, t.frame_completion_s);
  add_vec(d, t.frame_latency_s);
}

}  // namespace

void add_sim_result(Digest& d, const cnpu::SimResult& r, Links links) {
  d.add(r.first_frame_latency_s).add(r.steady_interval_s).add(r.makespan_s);
  add_vec(d, r.frame_completion_s);
  add_vec(d, r.frame_latency_s);
  d.add(r.p50_latency_s).add(r.p95_latency_s).add(r.p99_latency_s);
  add_vec(d, r.chiplet_busy_s);
  if (links != Links::kIgnored) {
    std::vector<const cnpu::LinkStats*> order;
    order.reserve(r.link_stats.size());
    for (const cnpu::LinkStats& s : r.link_stats) order.push_back(&s);
    if (links == Links::kCanonical) {
      std::sort(order.begin(), order.end(),
                [](const cnpu::LinkStats* a, const cnpu::LinkStats* b) {
                  return a->link < b->link;
                });
    }
    d.add(static_cast<std::int64_t>(order.size()));
    for (const cnpu::LinkStats* s : order) add_link(d, *s);
  }
  d.add(r.tasks_executed).add(r.frames_completed).add(r.dropped_frames);
  d.add(r.shed_frames).add(r.deadline_miss_frames).add(r.peak_latency_s);
  d.add(r.recovery_time_s).add(r.remapped_items);
  d.add(r.reload_bytes).add(r.reload_time_s);
  d.add(static_cast<std::int64_t>(r.tenants.size()));
  for (const cnpu::TenantResult& t : r.tenants) add_tenant(d, t);
}

std::uint64_t digest_of(const cnpu::SimResult& r, Links links) {
  Digest d;
  add_sim_result(d, r, links);
  return d.value();
}

std::uint64_t digest_of(const cnpu::LoadSearchResult& r) {
  Digest d;
  d.add(r.max_fps).add(r.min_infeasible_fps).add(r.rounds);
  d.add(static_cast<std::int64_t>(r.probes.size()));
  for (const cnpu::LoadProbe& p : r.probes) {
    d.add(p.fps).add(p.worst_p99_s).add(p.deadline_misses).add(p.shed_frames);
    d.add(p.feasible ? 1 : 0);
  }
  return d.value();
}

bool bitwise_equal(const cnpu::SimResult& a, const cnpu::SimResult& b) {
  return digest_of(a, Links::kAsEmitted) == digest_of(b, Links::kAsEmitted);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
