// Tests of the benchmark's own helpers: percentiles over samples and over
// repeated units, self time under overlapping children, the output digest,
// and the trace JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "digest.h"
#include "stats.h"
#include "trace.h"
#include "util/json.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(SamplesBeyond, CountsSamplesRankedAboveThePercentile) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(540, 99.0), 5u);
  EXPECT_EQ(samples_beyond(72, 99.0), 0u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(PerSlotPercentile, TakesEachSlotAcrossRounds) {
  // Three slots over four rounds; slot 1 has one disturbed sample, and a
  // trailing partial round is ignored.
  const std::vector<double> samples = {1.0, 10.0, 100.0,  //
                                       2.0, 90.0, 100.0,  //
                                       1.0, 11.0, 101.0,  //
                                       3.0, 12.0, 102.0,  //
                                       50.0};
  const std::vector<double> med = per_slot_percentile(samples, 3, 50.0);
  ASSERT_EQ(med.size(), 3u);
  EXPECT_EQ(med[0], 1.0);
  EXPECT_EQ(med[1], 11.0);
  EXPECT_EQ(med[2], 100.0);
  EXPECT_TRUE(per_slot_percentile({1.0, 2.0}, 3, 50.0).empty());
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
}

SpanRecord span_at(const char* name, SpanId id, SpanId parent, int tid,
                   double start, double end) {
  SpanRecord s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.tid = tid;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(SelfTime, OverlappingChildrenFromParallelWorkersCountOnce) {
  // A sweep span on the coordinating thread; its points ran on two
  // workers, so they overlap in time. One point sticks out past the end
  // of the sweep span and one has a child of its own.
  const std::vector<SpanRecord> spans = {
      span_at("exp.sweep_run", 1, kNoSpan, 1, 0.0, 100.0),
      span_at("exp.point", 2, 1, 2, 10.0, 50.0),
      span_at("exp.point", 3, 1, 3, 30.0, 70.0),
      span_at("exp.point", 4, 1, 2, 80.0, 90.0),
      span_at("exp.point", 5, 1, 3, 95.0, 120.0),
      span_at("sim.run_warm", 6, 2, 2, 20.0, 30.0),
  };
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - (60.0 + 10.0 + 5.0));
  EXPECT_DOUBLE_EQ(self[1], 40.0 - 10.0);  // its child only, not its sibling
  EXPECT_DOUBLE_EQ(self[2], 40.0);
  EXPECT_DOUBLE_EQ(self[5], 10.0);
}

TEST(SelfTime, NestedChildrenOnOneThread) {
  const std::vector<SpanRecord> spans = {
      span_at("exp.point", 1, kNoSpan, 1, 0.0, 10.0),
      span_at("core.throughput_matching", 2, 1, 1, 1.0, 4.0),
      span_at("sim.run_cold", 3, 1, 1, 4.0, 9.0),
  };
  const std::vector<double> self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 2.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[2], 5.0);
}

cnpu::LinkStats link(int from_col, int to_col, double busy) {
  cnpu::LinkStats s;
  s.link.from = {0, from_col};
  s.link.to = {0, to_col};
  s.busy_s = busy;
  s.messages = 3;
  return s;
}

cnpu::SimResult sample_result() {
  cnpu::SimResult r;
  r.first_frame_latency_s = 1.5e-3;
  r.frame_completion_s = {1.5e-3, 2.25e-3, std::nan("")};
  r.frame_latency_s = {1.5e-3, 1.75e-3, std::nan("")};
  r.link_stats = {link(0, 1, 1e-4), link(1, 2, 2e-4), link(-1, 0, 3e-4)};
  r.tasks_executed = 42;
  cnpu::TenantResult t;
  t.name = "t0";
  t.frames = 3;
  t.frame_completion_s = r.frame_completion_s;
  r.tenants.push_back(t);
  return r;
}

TEST(Digest, LinkOrderDoesNotCountButEveryUlpDoes) {
  const cnpu::SimResult base = sample_result();
  cnpu::SimResult reordered = base;
  std::swap(reordered.link_stats[0], reordered.link_stats[2]);
  EXPECT_EQ(digest_of(base), digest_of(reordered));
  EXPECT_NE(digest_of(base, Links::kAsEmitted), digest_of(reordered, Links::kAsEmitted));
  EXPECT_FALSE(bitwise_equal(base, reordered));
  EXPECT_TRUE(bitwise_equal(base, sample_result()));

  for (std::size_t f = 0; f < 2; ++f) {
    cnpu::SimResult shifted = base;
    shifted.frame_completion_s[f] = std::nextafter(shifted.frame_completion_s[f], 1.0);
    EXPECT_NE(digest_of(base), digest_of(shifted)) << "frame " << f;
    cnpu::SimResult tenant_shifted = base;
    double& c = tenant_shifted.tenants[0].frame_completion_s[f];
    c = std::nextafter(c, 0.0);
    EXPECT_NE(digest_of(base), digest_of(tenant_shifted)) << "tenant frame " << f;
  }
  cnpu::SimResult busier = base;
  busier.link_stats[1].busy_s = std::nextafter(busier.link_stats[1].busy_s, 1.0);
  EXPECT_NE(digest_of(base), digest_of(busier));
  EXPECT_EQ(digest_of(base, Links::kIgnored), digest_of(busier, Links::kIgnored));
}

TEST(Digest, SearchResultsDifferOnAnyProbe) {
  cnpu::LoadSearchResult a;
  a.max_fps = 1000.0;
  a.rounds = 2;
  a.probes = {{500.0, 1e-4, 0, 0, true}, {1500.0, 2e-3, 3, 1, false}};
  cnpu::LoadSearchResult b = a;
  EXPECT_EQ(digest_of(a), digest_of(b));
  b.probes[1].feasible = true;
  EXPECT_NE(digest_of(a), digest_of(b));
}

TEST(TraceJson, RoundTripsThroughParseJson) {
  SpanRecord point = span_at("exp.point", (SpanId{2} << 32) | 5, (SpanId{1} << 32), 2,
                             1234567.125, 1234987.0625);
  point.unit = 17;
  point.phase = Phase::kLoop;
  const std::vector<SpanRecord> spans = {
      span_at("exp.sweep_run", SpanId{1} << 32, kNoSpan, 1, 1000.5, 2000000.25), point};
  const std::string text =
      chrome_trace_json(spans, {{"git_sha", "abc123"}, {"workers", "2"}});
  const cnpu::JsonValue doc = cnpu::parse_json(text);
  const cnpu::JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 2u);
  const cnpu::JsonValue& e = events.at(1);
  EXPECT_EQ(e.at("name").as_string(), "exp.point");
  EXPECT_EQ(e.at("cat").as_string(), "exp");
  EXPECT_EQ(e.at("ph").as_string(), "X");
  EXPECT_EQ(e.at("ts").as_double(), point.start_us);
  EXPECT_EQ(e.at("dur").as_double(), point.duration_us());
  EXPECT_EQ(e.at("tid").as_int(), 2);
  EXPECT_EQ(e.at("args").at("id").as_int(), point.id);
  EXPECT_EQ(e.at("args").at("parent").as_int(), point.parent);
  EXPECT_EQ(e.at("args").at("unit").as_int(), 17);
  EXPECT_EQ(e.at("args").at("phase").as_string(), "loop");
  EXPECT_EQ(events.at(0).at("args").at("parent").as_int(), kNoSpan);
  EXPECT_EQ(doc.at("otherData").at("git_sha").as_string(), "abc123");
}

TEST(TracerTest, RecordsNestingAndUnitsOnlyWhileEnabled) {
  Tracer& t = Tracer::global();
  const std::size_t before = t.collect().size();
  { const Span off("exp.point"); }
  EXPECT_EQ(t.collect().size(), before);
  t.set_enabled(true);
  t.set_phase(Phase::kLoop);
  {
    const Span unit("exp.point", kNoSpan, 9);
    const Span child("sim.run_warm");
  }
  t.set_enabled(false);
  const std::vector<SpanRecord> spans = t.collect();
  ASSERT_EQ(spans.size(), before + 2);
  const SpanRecord& unit = spans[before];
  const SpanRecord& child = spans[before + 1];
  EXPECT_EQ(child.parent, unit.id);
  EXPECT_EQ(child.unit, 9);
  EXPECT_EQ(child.phase, Phase::kLoop);
  EXPECT_LE(unit.start_us, child.start_us);
  EXPECT_GE(unit.end_us, child.end_us);
}

TEST(RngTest, SameSeedSameInputs) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  for (int i = 0; i < 16; ++i) {
    const double x = a.uniform(2.0, 3.0);
    EXPECT_EQ(x, b.uniform(2.0, 3.0));
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
  EXPECT_NE(Rng(7).next(), c.next());
}

}  // namespace
}  // namespace perfbench
