// Unit tests for the static performance-bound analyzer
// (src/analysis/bounds.h): pinned hand-computed bounds on 2-chiplet
// fixtures, mean-arrival-rate resolution, demand accounting, P-rule
// diagnostics, the serving-fleet overload, and bitwise pins of whole
// reports on the dse reference designs and a probe fleet.
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bounds.h"
#include "arch/package.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/partition.h"
#include "core/scaling.h"
#include "core/schedule_io.h"
#include "core/throughput_matching.h"
#include "dataflow/cost_model.h"
#include "dataflow/layer.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "sim_result_eq.h"
#include "workloads/autopilot.h"
#include "workloads/model.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

using analysis::BoundsReport;
using analysis::Diagnostics;
using analysis::compute_bounds;
using analysis::mean_arrival_rate_fps;

PerceptionPipeline two_conv_pipeline() {
  PerceptionPipeline pipe;
  pipe.name = "bounds-fixture";
  Stage stage;
  stage.name = "stage0";
  StageModel sm;
  sm.model.name = "net";
  sm.model.layers.push_back(conv2d("conv0", 3, 16, 32, 32, 3));
  sm.model.layers.push_back(conv2d("conv1", 16, 16, 32, 32, 3));
  stage.models.push_back(std::move(sm));
  pipe.stages.push_back(std::move(stage));
  return pipe;
}

// The per-item compute latencies and transfer delays the bound must chain,
// computed from the same primitives the simulator prices tasks with.
struct HandCosts {
  double lat0 = 0.0;      // analyze_layer of conv0 on its chiplet
  double lat1 = 0.0;      // analyze_layer of conv1 on its chiplet
  double ingress = 0.0;   // camera ingress onto item 0's chiplet
  double transfer = 0.0;  // conv0 -> conv1 NoP gather delay
};

HandCosts hand_costs(const Schedule& s) {
  const PackageConfig& pkg = s.package();
  HandCosts h;
  h.lat0 = analyze_layer(*s.item(0).desc,
                         pkg.chiplet(s.placement(0).primary_chiplet()).array)
               .latency_s;
  h.lat1 = analyze_layer(*s.item(1).desc,
                         pkg.chiplet(s.placement(1).primary_chiplet()).array)
               .latency_s;
  h.ingress = nop_ingress_cost(pkg, s.placement(0).primary_chiplet())
                  .latency_s;
  h.transfer = nop_gather_cost(pkg, s.placement(0), s.placement(1),
                               s.item(0).desc->output_bytes())
                   .latency_s;
  return h;
}

// ------------------------------------------------- pinned latency bounds

TEST(BoundsLatencyTest, TwoChipletChainPinsExactBound) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  const HandCosts h = hand_costs(s);
  ASSERT_GT(h.transfer, 0.0);  // distinct chiplets: a real NoP hop
  const BoundsReport rep = compute_bounds(s);
  ASSERT_EQ(rep.streams.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.streams[0].latency_bound_s,
                   h.ingress + h.lat0 + h.transfer + h.lat1);
  EXPECT_FALSE(rep.streams[0].rate_known);  // t=0 burst: no steady rate
  EXPECT_FALSE(rep.streams[0].deadline_infeasible);
}

TEST(BoundsLatencyTest, SameChipletChainDropsTheTransferTerm) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[0].id);

  const HandCosts h = hand_costs(s);
  EXPECT_DOUBLE_EQ(h.transfer, 0.0);  // no mesh hop on the same chiplet
  const BoundsReport rep = compute_bounds(s);
  ASSERT_EQ(rep.streams.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.streams[0].latency_bound_s,
                   h.ingress + h.lat0 + h.lat1);
}

TEST(BoundsLatencyTest, NopOffLeavesPureComputeBound) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  SimOptions opt;
  opt.nop_mode = NopMode::kOff;
  const HandCosts h = hand_costs(s);
  const BoundsReport rep = compute_bounds(s, opt);
  ASSERT_EQ(rep.streams.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.streams[0].latency_bound_s, h.lat0 + h.lat1);
  EXPECT_DOUBLE_EQ(rep.streams[0].bytes_per_frame, 0.0);
  EXPECT_TRUE(rep.links.empty());
  EXPECT_EQ(rep.nop_mode, NopMode::kOff);
}

TEST(BoundsLatencyTest, BoundEqualsUncontendedFirstFrame) {
  // The analytical simulator runs frame 0 through exactly the DAG the
  // bound prices, with no queueing ahead of it — the bound is tight there.
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  SimOptions opt;
  opt.frames = 1;
  const BoundsReport rep = compute_bounds(s, opt);
  const SimResult sim = simulate_schedule(s, opt);
  EXPECT_DOUBLE_EQ(rep.streams[0].latency_bound_s,
                   sim.first_frame_latency_s);
}

TEST(BoundsLatencyTest, NegativeEdgeDelaysStillReturn) {
  // A negative hop latency (rejected at run time as R003, but lintable)
  // makes edge delays and completion times negative; the longest-path
  // search must still finish.
  const PerceptionPipeline pipe = build_fault_probe_pipeline(2);
  PackageConfig pkg = make_simba_package(2, 2);
  NopParams nop = pkg.nop();
  nop.hop_latency_s = -1e-3;
  pkg.set_nop(nop);
  const Schedule s = build_chainwise_schedule(pipe, pkg);

  const BoundsReport rep = compute_bounds(s);
  ASSERT_EQ(rep.streams.size(), 1u);
  EXPECT_TRUE(std::isfinite(rep.streams[0].latency_bound_s));
}

TEST(BoundsLatencyTest, StructurallyBrokenStreamIsSkipped) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);  // item 1 left unassigned (S002)

  const BoundsReport rep = compute_bounds(s);
  EXPECT_TRUE(rep.streams.empty());
  EXPECT_TRUE(rep.links.empty());
  EXPECT_DOUBLE_EQ(rep.uniform_rate_bound_fps, 0.0);
}

TEST(BoundsDegraded, UnroutableStreamIsSkippedWhole) {
  // A 1x3 row without its middle chiplet: tenant "cut" sends conv0's output
  // from chiplet 0 to chiplet 2 across the dead router, so it is skipped
  // with none of its links counted; tenant "local" keeps the I/O port link.
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(1, 3).without_chiplet(1);
  Schedule cut(pipe, pkg);
  cut.assign(0, 0);
  cut.assign(1, 2);
  Schedule local(pipe, pkg);
  local.assign(0, 0);
  local.assign(1, 0);
  SimOptions opt;
  opt.nop_mode = NopMode::kContended;
  opt.tenants.resize(2);
  opt.tenants[0].name = "cut";
  opt.tenants[0].schedule = &cut;
  opt.tenants[1].name = "local";
  opt.tenants[1].schedule = &local;

  const BoundsReport rep = compute_bounds(cut, opt);
  ASSERT_EQ(rep.streams.size(), 1u);
  EXPECT_EQ(rep.streams[0].name, "local");
  ASSERT_EQ(rep.links.size(), 1u);
  EXPECT_TRUE(rep.links[0].link.is_io_port());
}

// --------------------------------------------------- arrival-rate helper

TEST(MeanArrivalRateTest, ClosedLoopUsesTheFrameInterval) {
  ArrivalSpec spec;
  double rate = -1.0;
  EXPECT_TRUE(mean_arrival_rate_fps(spec, 1.0 / 30.0, rate));
  EXPECT_DOUBLE_EQ(rate, 30.0);
  EXPECT_FALSE(mean_arrival_rate_fps(spec, 0.0, rate));  // t=0 burst
  EXPECT_DOUBLE_EQ(rate, 0.0);
}

TEST(MeanArrivalRateTest, OpenLoopKindsResolveTheirMeanRate) {
  ArrivalSpec poisson;
  poisson.kind = ArrivalKind::kPoisson;
  poisson.rate_fps = 100.0;
  double rate = 0.0;
  EXPECT_TRUE(mean_arrival_rate_fps(poisson, 0.0, rate));
  EXPECT_DOUBLE_EQ(rate, 100.0);

  // Profile scaling: 1 s at 2x, 1 s at 0x -> mean scale 1.0.
  poisson.profile = {{1.0, 2.0}, {1.0, 0.0}};
  EXPECT_TRUE(mean_arrival_rate_fps(poisson, 0.0, rate));
  EXPECT_DOUBLE_EQ(rate, 100.0);

  // Bursty duty scaling: equal ON/OFF sojourns, OFF silent -> half rate.
  ArrivalSpec bursty;
  bursty.kind = ArrivalKind::kBursty;
  bursty.rate_fps = 100.0;
  bursty.on_mean_s = 1.0;
  bursty.off_mean_s = 1.0;
  bursty.on_scale = 1.0;
  bursty.off_scale = 0.0;
  EXPECT_TRUE(mean_arrival_rate_fps(bursty, 0.0, rate));
  EXPECT_DOUBLE_EQ(rate, 50.0);
}

TEST(MeanArrivalRateTest, TraceAndDegenerateSpecsHaveNoRate) {
  double rate = 1.0;
  ArrivalSpec trace;
  trace.kind = ArrivalKind::kTrace;
  trace.trace_s = {0.0, 1.0};
  EXPECT_FALSE(mean_arrival_rate_fps(trace, 1.0 / 30.0, rate));

  ArrivalSpec zero;
  zero.kind = ArrivalKind::kPeriodic;
  zero.rate_fps = 0.0;
  EXPECT_FALSE(mean_arrival_rate_fps(zero, 0.0, rate));
}

// ------------------------------------------------- demand vs capacity

TEST(BoundsDemandTest, LinkBytesAndDemandFollowTheAdmittedRate) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  SimOptions opt;
  opt.nop_mode = NopMode::kContended;
  opt.frame_interval_s = 1.0 / 100.0;  // 100 fps admitted
  const BoundsReport rep = compute_bounds(s, opt);
  ASSERT_EQ(rep.streams.size(), 1u);
  EXPECT_TRUE(rep.streams[0].rate_known);
  EXPECT_DOUBLE_EQ(rep.streams[0].rate_fps, 100.0);
  ASSERT_FALSE(rep.links.empty());

  // Some link carries exactly conv0's activation payload; every link's
  // demand is rate x bytes against the package NoP bandwidth.
  const double conv0_bytes = s.item(0).desc->output_bytes();
  bool found_transfer_link = false;
  for (const analysis::LinkBound& l : rep.links) {
    EXPECT_DOUBLE_EQ(l.demand_bytes_per_s, 100.0 * l.bytes_per_frame);
    EXPECT_DOUBLE_EQ(l.capacity_bytes_per_s,
                     pkg.nop().bandwidth_bytes_per_s);
    EXPECT_DOUBLE_EQ(l.utilization,
                     l.demand_bytes_per_s / l.capacity_bytes_per_s);
    EXPECT_FALSE(l.oversubscribed);  // 100 fps is far below saturation
    if (l.bytes_per_frame == conv0_bytes) found_transfer_link = true;
  }
  EXPECT_TRUE(found_transfer_link);
}

TEST(BoundsDemandTest, ChipletDemandAndUniformRateBound) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  SimOptions opt;
  opt.frame_interval_s = 1.0 / 100.0;
  const HandCosts h = hand_costs(s);
  const BoundsReport rep = compute_bounds(s, opt);
  ASSERT_EQ(rep.chiplets.size(), pkg.chiplets().size());
  EXPECT_DOUBLE_EQ(rep.chiplets[0].busy_s_per_frame, h.lat0);
  EXPECT_DOUBLE_EQ(rep.chiplets[1].busy_s_per_frame, h.lat1);
  EXPECT_DOUBLE_EQ(rep.chiplets[0].demand, 100.0 * h.lat0);
  EXPECT_DOUBLE_EQ(rep.chiplets[2].busy_s_per_frame, 0.0);  // idle

  // Analytical mode: links never bind, so the uniform-rate cap is the
  // busiest chiplet's reciprocal busy time.
  EXPECT_DOUBLE_EQ(rep.uniform_rate_bound_fps,
                   1.0 / std::max(h.lat0, h.lat1));
}

TEST(BoundsDemandTest, OversubscriptionFiresP002AndP003) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  SimOptions opt;
  opt.nop_mode = NopMode::kContended;
  opt.frame_interval_s = 1e-9;  // a 1 GHz frame rate swamps everything
  const BoundsReport rep = compute_bounds(s, opt);
  const Diagnostics diags = analysis::bound_diagnostics(rep);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleBoundLinkOversubscribed));
  EXPECT_TRUE(diags.has_rule(analysis::kRuleBoundComputeOversubscribed));
  EXPECT_FALSE(diags.has_errors());            // advisory only
  EXPECT_NO_THROW(diags.throw_if_enforced());  // P rules never throw
}

TEST(BoundsDemandTest, AnalyticalLinksNeverOversubscribe) {
  // The analytical fabric is infinitely parallel: even an absurd rate must
  // not fire P002 when nop_mode is kAnalytical.
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  SimOptions opt;
  opt.frame_interval_s = 1e-9;
  const BoundsReport rep = compute_bounds(s, opt);
  for (const analysis::LinkBound& l : rep.links) {
    EXPECT_FALSE(l.oversubscribed);
  }
  EXPECT_FALSE(analysis::bound_diagnostics(rep).has_rule(
      analysis::kRuleBoundLinkOversubscribed));
}

// --------------------------------------------------- deadline + residency

TEST(BoundsVerdictTest, TinyDeadlineIsStaticallyDead) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[1].id);

  SimOptions opt;
  opt.deadline_s = 1e-12;
  const BoundsReport rep = compute_bounds(s, opt);
  ASSERT_EQ(rep.streams.size(), 1u);
  EXPECT_TRUE(rep.streams[0].deadline_infeasible);
  const Diagnostics diags = analysis::bound_diagnostics(rep);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleBoundDeadline));
  EXPECT_EQ(diags.count(analysis::Severity::kWarning), 1);
  EXPECT_FALSE(diags.has_errors());
  // The renderings carry the verdict.
  EXPECT_NE(rep.table().find("statically dead"), std::string::npos);
  EXPECT_NE(rep.to_json().find("\"deadline_infeasible\":true"),
            std::string::npos);
}

TEST(BoundsVerdictTest, ResidencyOverflowFiresP004AsNote) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  PackageConfig pkg = make_simba_package(2, 4);
  MemorySpec mem;
  mem.weight_capacity_bytes = 16.0;
  pkg.set_memory(mem);
  Schedule s(pipe, pkg);
  s.assign(0, pkg.chiplets()[0].id);
  s.assign(1, pkg.chiplets()[0].id);

  const BoundsReport rep = compute_bounds(s);
  EXPECT_TRUE(rep.residency_checked);
  EXPECT_TRUE(rep.residency.overflow);
  const Diagnostics diags = analysis::bound_diagnostics(rep);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleBoundResidency));
  EXPECT_EQ(diags.count(analysis::Severity::kNote), 1);
  EXPECT_FALSE(diags.has_errors());
}

// ------------------------------------------------------ serving overload

TEST(BoundsServingTest, FleetOverloadBoundsEveryTenant) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  TenantWorkload a;
  a.name = "cam-a";
  a.pipeline = &pipe;
  a.frame_interval_s = 1.0 / 60.0;
  a.deadline_s = 0.1;
  TenantWorkload b = a;
  b.name = "cam-b";
  b.frame_interval_s = 1.0 / 30.0;

  const BoundsReport rep = compute_bounds(pkg, {a, b}, ServingOptions{});
  ASSERT_EQ(rep.streams.size(), 2u);
  EXPECT_EQ(rep.streams[0].name, "cam-a");
  EXPECT_EQ(rep.streams[1].name, "cam-b");
  EXPECT_DOUBLE_EQ(rep.streams[0].rate_fps, 60.0);
  EXPECT_DOUBLE_EQ(rep.streams[1].rate_fps, 30.0);
  EXPECT_GT(rep.uniform_rate_bound_fps, 0.0);
  for (const analysis::StreamBound& sb : rep.streams) {
    EXPECT_GT(sb.latency_bound_s, 0.0);
    EXPECT_FALSE(sb.deadline_infeasible);
  }
  // Chiplet demand sums both tenants' rate-weighted busy time.
  double total_demand = 0.0;
  for (const analysis::ChipletBound& cb : rep.chiplets) {
    total_demand += cb.demand;
  }
  EXPECT_GT(total_demand, 0.0);
}

TEST(BoundsServingTest, CapacityInfeasibleFleetThrowsLikePlacement) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  PackageConfig pkg = make_simba_package(2, 4);
  MemorySpec mem;
  mem.weight_capacity_bytes = 16.0;
  pkg.set_memory(mem);
  TenantWorkload a;
  a.pipeline = &pipe;
  EXPECT_THROW(compute_bounds(pkg, {a}, ServingOptions{}),
               std::invalid_argument);
}

TEST(BoundsServingTest, StaticBoundTightensTheLoadSearchBracket) {
  // Opt-in bracket clamp: the bounded search must agree with the unbounded
  // one on feasibility (it only removes provably diverging probes) and
  // never report a max above the static cap.
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  TenantWorkload a;
  a.pipeline = &pipe;
  a.deadline_s = 0.05;
  const std::vector<TenantWorkload> tenants{a};
  const ServingOptions options;

  const BoundsReport rep = compute_bounds(pkg, tenants, options);
  ASSERT_GT(rep.uniform_rate_bound_fps, 0.0);

  LoadSearchOptions search;
  search.fps_lo = 1.0;
  search.fps_hi = 1e6;  // absurd ceiling the static bound should clamp
  search.use_static_bound = true;
  search.threads = 1;
  const LoadSearchResult bounded =
      max_sustainable_load(pkg, tenants, options, search);
  EXPECT_GT(bounded.max_fps, 0.0);
  EXPECT_LE(bounded.max_fps, rep.uniform_rate_bound_fps * (1.0 + 1e-9));
  for (const LoadProbe& p : bounded.probes) {
    EXPECT_LE(p.fps, rep.uniform_rate_bound_fps * (1.0 + 1e-9));
  }
}

// ------------------------------------------------------------ bitwise pins
//
// Whole reports, bit for bit: each stream's latency bound and bytes per
// frame and the uniform-rate bound as hexfloats, plus a digest of every
// link and chiplet bound. Every pin was captured from the std::map
// implementation that came before the dense one, so they pin that the
// dense arrays kept every sum in its order.

struct BoundsPin {
  std::vector<double> latency_bound_s;  // per stream
  std::vector<double> bytes_per_frame;  // per stream
  double uniform_rate_bound_fps = 0.0;
  std::uint64_t links_and_chiplets = 0;  // links_and_chiplets_digest
};

// Every field of every LinkBound and ChipletBound, in report order.
std::uint64_t links_and_chiplets_digest(const BoundsReport& r) {
  testutil::Fnv64 h;
  h.add(std::uint64_t{r.links.size()});
  for (const analysis::LinkBound& l : r.links) {
    h.add(static_cast<int>(l.link.kind));
    h.add(l.link.npu);
    h.add(l.link.npu_to);
    h.add(l.link.from.row);
    h.add(l.link.from.col);
    h.add(l.link.to.row);
    h.add(l.link.to.col);
    h.add(l.link.substrate_step);
    h.add(l.bytes_per_frame);
    h.add(l.demand_bytes_per_s);
    h.add(l.capacity_bytes_per_s);
    h.add(l.utilization);
    h.add(static_cast<int>(l.oversubscribed));
  }
  h.add(std::uint64_t{r.chiplets.size()});
  for (const analysis::ChipletBound& c : r.chiplets) {
    h.add(c.chiplet_id);
    h.add(c.busy_s_per_frame);
    h.add(c.demand);
    h.add(static_cast<int>(c.oversubscribed));
  }
  return h.value();
}

BoundsPin pin_of(const BoundsReport& r) {
  BoundsPin pin;
  for (const analysis::StreamBound& s : r.streams) {
    pin.latency_bound_s.push_back(s.latency_bound_s);
    pin.bytes_per_frame.push_back(s.bytes_per_frame);
  }
  pin.uniform_rate_bound_fps = r.uniform_rate_bound_fps;
  pin.links_and_chiplets = links_and_chiplets_digest(r);
  return pin;
}

// A pin as the initializer that recreates it: hexfloats print every bit,
// so two pins print alike exactly when they are bitwise equal.
std::string pin_source(const BoundsPin& pin) {
  std::ostringstream out;
  out << std::hexfloat;
  const auto list = [&](const std::vector<double>& v) {
    out << "{";
    for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
    out << "}";
  };
  out << "{";
  list(pin.latency_bound_s);
  out << ", ";
  list(pin.bytes_per_frame);
  out << ", " << pin.uniform_rate_bound_fps << ", 0x" << std::hex
      << pin.links_and_chiplets << "ull}";
  return out.str();
}

void expect_pinned(const BoundsReport& r, const BoundsPin& want) {
  EXPECT_EQ(pin_source(pin_of(r)), pin_source(want));
}

// The three NoP modes each design is pinned under: analytical, contended
// at 500 admitted frames per second, and off; 6 frames and a deadline that
// the 6x6 design's analytical bound misses and its NoP-off bound meets.
// The packages keep their finite link bandwidth, so link bounds bind.
std::vector<SimOptions> pin_modes() {
  SimOptions analytical;
  analytical.frames = 6;
  analytical.deadline_s = 0.54;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;
  contended.frame_interval_s = 2e-3;
  SimOptions off = analytical;
  off.nop_mode = NopMode::kOff;
  return {analytical, contended, off};
}

const char* mode_name(NopMode mode) {
  return mode == NopMode::kContended    ? "contended"
         : mode == NopMode::kAnalytical ? "analytical"
                                        : "off";
}

// perfbench dse_design's reference point: 8 cameras, a 12-frame fusion
// queue, Algorithm 1 at tolerance 0.10.
PerceptionPipeline reference_pipeline(bool two_npu) {
  AutopilotConfig cfg;
  cfg.num_cameras = 8;
  cfg.fusion.num_cameras = 8;
  cfg.fusion.queue_frames = 12;
  return two_npu ? build_two_npu_pipeline(cfg) : build_autopilot_pipeline(cfg);
}

// The 2-NPU match runs on dse_design's pools: NPU0's quadrants for the
// stages, nine NPU1 chiplets added to the frozen trunk pool.
MatchResult reference_match(const PerceptionPipeline& pipe,
                            const PackageConfig& pkg, bool two_npu) {
  MatchOptions mo;
  mo.tolerance = 0.10;
  if (!two_npu) return throughput_matching(pipe, pkg, mo);
  std::vector<std::vector<int>> pools = partition_quadrants(pkg);
  std::vector<int>& npu1 = pools.back();
  pools[3].insert(pools[3].end(), npu1.begin(), npu1.begin() + 9);
  npu1.erase(npu1.begin(), npu1.begin() + 9);
  mo.allow_base_split = true;
  mo.frozen_stages.push_back(3);
  return throughput_matching_with_pools(pipe, pkg, pools, mo);
}

void expect_design_pinned(const PerceptionPipeline& pipe,
                          const PackageConfig& pkg, bool two_npu,
                          const std::vector<BoundsPin>& pins) {
  const MatchResult match = reference_match(pipe, pkg, two_npu);
  const std::vector<SimOptions> modes = pin_modes();
  ASSERT_EQ(pins.size(), modes.size());
  for (std::size_t m = 0; m < modes.size(); ++m) {
    SCOPED_TRACE(mode_name(modes[m].nop_mode));
    expect_pinned(compute_bounds(match.schedule, modes[m]), pins[m]);
  }
}

TEST(BoundsPins, SixBySixReferenceDesign) {
  const PerceptionPipeline pipe = reference_pipeline(false);
  const PackageConfig pkg = make_simba_package();
  expect_design_pinned(pipe, pkg, false, {
      {{0x1.196ad75a4fe32p-1}, {0x1.9e6e455555554p+30}, 0x1.8430a3ff2a401p+3,
       0xaac0fd0d8628a2b6ull},
      {{0x1.196ad75a4fe32p-1}, {0x1.9e6e455555554p+30}, 0x1.8430a3ff2a401p+3,
       0xd6a2006cc0be461dull},
      {{0x1.113e9a589a5fp-1}, {0x0p+0}, 0x1.8430a3ff2a401p+3,
       0x63598c58bfa213d3ull},
  });
}

TEST(BoundsPins, TwoNpuReferenceDesign) {
  const PerceptionPipeline pipe = reference_pipeline(true);
  const PackageConfig pkg = make_multi_npu_package(2);
  expect_design_pinned(pipe, pkg, true, {
      {{0x1.4a8cb2f849ef4p-2}, {0x1.7fa1f32492492p+31}, 0x1.92e563782899p+3,
       0xbfe8df02bf89633bull},
      {{0x1.4a8cb2f849ef4p-2}, {0x1.7fa1f32492492p+31}, 0x1.92e563782899p+3,
       0x119be0167406664bull},
      {{0x1.2c0f5be63eae1p-2}, {0x0p+0}, 0x1.92e563782899p+3,
       0x510866f607303f9dull},
  });
}

// Matched on the 6x6 without chiplet 14, so routes detour around the dead
// router.
TEST(BoundsPins, SixBySixWithoutChiplet14) {
  const PerceptionPipeline pipe = reference_pipeline(false);
  const PackageConfig pkg = make_simba_package().without_chiplet(14);
  expect_design_pinned(pipe, pkg, false, {
      {{0x1.1f7b6d33fe5b3p-1}, {0x1.8dfa4aaaaaaa9p+30}, 0x1.8430a3ff2a401p+3,
       0xab452bfd17714faaull},
      {{0x1.1f7b6d33fe5b3p-1}, {0x1.8dfa4aaaaaaa9p+30}, 0x1.8430a3ff2a401p+3,
       0xd4ec54ff5727915cull},
      {{0x1.17a9a3e004558p-1}, {0x0p+0}, 0x1.8430a3ff2a401p+3,
       0x89f0d77706ccc13eull},
  });
}

// Four tenants of the 3-camera probe pipeline on a 4x4 package, Poisson
// arrivals at four rates, contended NoP, under each placement policy.
TEST(BoundsPins, ProbeFleetUnderEveryPolicy) {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  const PackageConfig pkg = make_simba_package(4, 4);
  std::vector<TenantWorkload> fleet;
  for (int t = 0; t < 4; ++t) {
    TenantWorkload w;
    w.name = "vehicle" + std::to_string(t);
    w.pipeline = &pipe;
    w.frames = 16;
    w.deadline_s = 2e-3;
    w.priority = t == 0 ? 1 : 0;
    w.arrivals.kind = ArrivalKind::kPoisson;
    w.arrivals.rate_fps = 1000.0 + 250.0 * t;
    w.arrivals.seed = 7 + static_cast<std::uint64_t>(t);
    fleet.push_back(w);
  }
  const std::vector<std::pair<PlacementPolicy, BoundsPin>> pins = {
      {PlacementPolicy::kShared,
       {{0x1.6ca2b8faa475cp-12, 0x1.920511c0ff5a8p-12, 0x1.8f3bfc964d38bp-12,
         0x1.8c72e76b9b16ep-12},
        {0x1.93bp+24, 0x1.0f2p+25, 0x1.bdep+24, 0x1.658p+24},
        0x1.c933066772c42p+10, 0x91c064ee8183148bull}},
      {PlacementPolicy::kPartitioned,
       {{0x1.4f9b9fb45ff66p-12, 0x1.89a9d240e8f51p-12, 0x1.4f9b9fb45ff66p-12,
         0x1.89a9d240e8f51p-12},
        {0x1.0d2p+24, 0x1.052p+25, 0x1.618p+24, 0x1.2f5p+25},
        0x1.78c29e06522c4p+11, 0x3676d9e5423dc7d1ull}},
      {PlacementPolicy::kPriority,
       {{0x1.6ca2b8faa475cp-12, 0x1.920511c0ff5a8p-12, 0x1.8f3bfc964d38bp-12,
         0x1.8c72e76b9b16ep-12},
        {0x1.93bp+24, 0x1.0f2p+25, 0x1.bdep+24, 0x1.658p+24},
        0x1.c933066772c42p+10, 0x91c064ee8183148bull}},
  };
  for (const auto& [policy, pin] : pins) {
    SCOPED_TRACE(placement_policy_name(policy));
    ServingOptions opt;
    opt.policy = policy;
    opt.nop_mode = NopMode::kContended;
    expect_pinned(compute_bounds(pkg, fleet, opt), pin);
  }
}

// A bundle whose one item is restored with fractions summing to 0.5: its
// shards are priced verbatim at load, not renormalized, and the bound reads
// them as the loader stored them (0.0354 ms; captured before shard costs
// were stored in the schedule).
TEST(BoundsPins, ShardFractionBundleIsPricedVerbatim) {
  const ScheduleBundle b =
      load_schedule_bundle(std::string(CNPU_BUNDLE_DIR) +
                           "/sched_shard_fraction.json");
  const analysis::BoundsReport r =
      analysis::compute_bounds(*b.schedule, SimOptions{});
  ASSERT_EQ(r.streams.size(), 1u);
  EXPECT_EQ(r.streams[0].latency_bound_s, 0x1.28e01cad8435fp-15);
  EXPECT_EQ(r.streams[0].bytes_per_frame, 0x1.52p+21);
  ASSERT_GE(r.chiplets.size(), 2u);
  EXPECT_EQ(r.chiplets[0].busy_s_per_frame, 0x1.00f2487b51ac8p-17);
  EXPECT_EQ(r.chiplets[1].busy_s_per_frame, 0x1.e1094d643f784p-22);
}

}  // namespace
}  // namespace cnpu
