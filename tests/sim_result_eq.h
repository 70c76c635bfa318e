// Bitwise SimResult comparison, the link_stats order check and a bitwise
// SimResult digest for pinning results, shared by the engine-identity unit
// tests (tests/test_sim_engine.cc) and the reused-engine fuzz property
// (tests/test_fuzz_properties.cc).
//
// EXPECT_EQ on raw doubles cannot express the contract: dropped frames
// legitimately carry NaN, and NaN != NaN. Comparing every double by its
// bit pattern handles NaN slots and is also the strongest possible
// statement of what SimEngine promises — the reused engine replays the
// exact float operations of the one-shot simulator, not merely close ones.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_sim.h"

namespace cnpu {
namespace testutil {

inline std::uint64_t dbits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

inline void expect_bits_eq(double a, double b, const std::string& what) {
  EXPECT_EQ(dbits(a), dbits(b)) << what << ": " << a << " vs " << b;
}

inline void expect_vec_bits_eq(const std::vector<double>& a,
                               const std::vector<double>& b,
                               const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(dbits(a[i]), dbits(b[i]))
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

inline void expect_tenants_bits_eq(const TenantResult& a,
                                   const TenantResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.frames_completed, b.frames_completed);
  EXPECT_EQ(a.dropped_frames, b.dropped_frames);
  EXPECT_EQ(a.shed_frames, b.shed_frames);
  EXPECT_EQ(a.deadline_miss_frames, b.deadline_miss_frames);
  expect_bits_eq(a.mean_queue_delay_s, b.mean_queue_delay_s,
                 "tenant mean_queue_delay_s");
  expect_bits_eq(a.peak_queue_delay_s, b.peak_queue_delay_s,
                 "tenant peak_queue_delay_s");
  expect_bits_eq(a.p50_latency_s, b.p50_latency_s, "tenant p50_latency_s");
  expect_bits_eq(a.p95_latency_s, b.p95_latency_s, "tenant p95_latency_s");
  expect_bits_eq(a.p99_latency_s, b.p99_latency_s, "tenant p99_latency_s");
  expect_bits_eq(a.mean_latency_s, b.mean_latency_s, "tenant mean_latency_s");
  expect_bits_eq(a.peak_latency_s, b.peak_latency_s, "tenant peak_latency_s");
  expect_bits_eq(a.steady_interval_s, b.steady_interval_s,
                 "tenant steady_interval_s");
  expect_bits_eq(a.nop_wait_s, b.nop_wait_s, "tenant nop_wait_s");
  expect_vec_bits_eq(a.frame_completion_s, b.frame_completion_s,
                     "tenant frame_completion_s");
  expect_vec_bits_eq(a.frame_latency_s, b.frame_latency_s,
                     "tenant frame_latency_s");
}

// The documented link_stats order: strictly increasing by NopLink (sorted,
// no link listed twice).
inline void expect_links_strictly_increasing(const SimResult& r) {
  for (std::size_t i = 1; i < r.link_stats.size(); ++i) {
    const NopLink& prev = r.link_stats[i - 1].link;
    const NopLink& next = r.link_stats[i].link;
    EXPECT_TRUE(prev < next) << "link_stats[" << i - 1 << "] "
                             << prev.describe() << " is not below link_stats["
                             << i << "] " << next.describe();
  }
}

// Every field, every frame, every link — bit for bit.
inline void expect_sim_results_bits_eq(const SimResult& a, const SimResult& b) {
  expect_bits_eq(a.first_frame_latency_s, b.first_frame_latency_s,
                 "first_frame_latency_s");
  expect_bits_eq(a.steady_interval_s, b.steady_interval_s,
                 "steady_interval_s");
  expect_bits_eq(a.makespan_s, b.makespan_s, "makespan_s");
  expect_vec_bits_eq(a.frame_completion_s, b.frame_completion_s,
                     "frame_completion_s");
  expect_vec_bits_eq(a.frame_latency_s, b.frame_latency_s, "frame_latency_s");
  expect_bits_eq(a.p50_latency_s, b.p50_latency_s, "p50_latency_s");
  expect_bits_eq(a.p95_latency_s, b.p95_latency_s, "p95_latency_s");
  expect_bits_eq(a.p99_latency_s, b.p99_latency_s, "p99_latency_s");
  expect_vec_bits_eq(a.chiplet_busy_s, b.chiplet_busy_s, "chiplet_busy_s");
  EXPECT_EQ(a.tasks_executed, b.tasks_executed);
  EXPECT_EQ(a.frames_completed, b.frames_completed);
  EXPECT_EQ(a.dropped_frames, b.dropped_frames);
  EXPECT_EQ(a.shed_frames, b.shed_frames);
  EXPECT_EQ(a.deadline_miss_frames, b.deadline_miss_frames);
  expect_bits_eq(a.peak_latency_s, b.peak_latency_s, "peak_latency_s");
  expect_bits_eq(a.recovery_time_s, b.recovery_time_s, "recovery_time_s");
  EXPECT_EQ(a.remapped_items, b.remapped_items);
  expect_bits_eq(a.reload_bytes, b.reload_bytes, "reload_bytes");
  expect_bits_eq(a.reload_time_s, b.reload_time_s, "reload_time_s");

  ASSERT_EQ(a.link_stats.size(), b.link_stats.size());
  for (std::size_t i = 0; i < a.link_stats.size(); ++i) {
    const LinkStats& la = a.link_stats[i];
    const LinkStats& lb = b.link_stats[i];
    const std::string tag = "link_stats[" + std::to_string(i) + "]";
    EXPECT_TRUE(la.link == lb.link) << tag << ": " << la.link.describe()
                                    << " vs " << lb.link.describe();
    expect_bits_eq(la.busy_s, lb.busy_s, tag + ".busy_s");
    expect_bits_eq(la.utilization, lb.utilization, tag + ".utilization");
    expect_bits_eq(la.max_queue_wait_s, lb.max_queue_wait_s,
                   tag + ".max_queue_wait_s");
    expect_bits_eq(la.total_queue_wait_s, lb.total_queue_wait_s,
                   tag + ".total_queue_wait_s");
    EXPECT_EQ(la.messages, lb.messages) << tag;
  }

  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    expect_tenants_bits_eq(a.tenants[t], b.tenants[t]);
  }
}

// 64-bit FNV-1a over a value stream: doubles by bit pattern, integers
// sign-extended to 64 bits, strings and vectors length-prefixed.
class Fnv64 {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(int v) { add(static_cast<std::uint64_t>(std::int64_t{v})); }
  void add(double v) { add(dbits(v)); }
  void add(const std::string& s) {
    add(std::uint64_t{s.size()});
    for (const char c : s) add(static_cast<int>(c));
  }
  void add(const std::vector<double>& v) {
    add(std::uint64_t{v.size()});
    for (const double x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Every field of a SimResult, bit for bit, in declaration order (tenant
// slices and link_stats included): pinning this one number pins the whole
// result, NaN slots and all.
inline std::uint64_t sim_result_digest(const SimResult& r) {
  Fnv64 h;
  h.add(r.first_frame_latency_s);
  h.add(r.steady_interval_s);
  h.add(r.makespan_s);
  h.add(r.frame_completion_s);
  h.add(r.frame_latency_s);
  h.add(r.p50_latency_s);
  h.add(r.p95_latency_s);
  h.add(r.p99_latency_s);
  h.add(r.chiplet_busy_s);
  h.add(std::uint64_t{r.link_stats.size()});
  for (const LinkStats& l : r.link_stats) {
    h.add(static_cast<int>(l.link.kind));
    h.add(l.link.npu);
    h.add(l.link.npu_to);
    h.add(l.link.from.row);
    h.add(l.link.from.col);
    h.add(l.link.to.row);
    h.add(l.link.to.col);
    h.add(l.link.substrate_step);
    h.add(l.busy_s);
    h.add(l.utilization);
    h.add(l.max_queue_wait_s);
    h.add(l.total_queue_wait_s);
    h.add(l.messages);
  }
  h.add(r.tasks_executed);
  h.add(r.frames_completed);
  h.add(r.dropped_frames);
  h.add(r.shed_frames);
  h.add(r.deadline_miss_frames);
  h.add(r.peak_latency_s);
  h.add(r.recovery_time_s);
  h.add(r.remapped_items);
  h.add(r.reload_bytes);
  h.add(r.reload_time_s);
  h.add(std::uint64_t{r.tenants.size()});
  for (const TenantResult& t : r.tenants) {
    h.add(t.name);
    h.add(t.frames);
    h.add(t.frames_completed);
    h.add(t.dropped_frames);
    h.add(t.shed_frames);
    h.add(t.deadline_miss_frames);
    h.add(t.p50_latency_s);
    h.add(t.p95_latency_s);
    h.add(t.p99_latency_s);
    h.add(t.mean_latency_s);
    h.add(t.peak_latency_s);
    h.add(t.steady_interval_s);
    h.add(t.mean_queue_delay_s);
    h.add(t.peak_queue_delay_s);
    h.add(t.nop_wait_s);
    h.add(t.frame_completion_s);
    h.add(t.frame_latency_s);
  }
  return h.value();
}

}  // namespace testutil
}  // namespace cnpu
