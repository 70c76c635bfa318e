// Per-chiplet memory residency (core/residency.h): closed-form footprints,
// capacity-aware placement/remap behavior, reload charging in the event
// simulator, and the describe() surface the memory columns ride on.
#include "core/residency.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/partition.h"
#include "core/remap.h"
#include "core/throughput_matching.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

// Two-layer chain with hand-computable int8 footprints:
//   A: 128 tokens x 64 -> 32   weights 64*32 = 2048 B,
//                              activations 128*64 + 128*32 = 12288 B
//   B: 128 tokens x 32 -> 16   weights 32*16 = 512 B,
//                              activations 128*32 + 128*16 = 6144 B
PerceptionPipeline two_layer_chain() {
  PerceptionPipeline p;
  Model m;
  m.name = "M";
  m.layers = {gemm("A", 128, 64, 32), gemm("B", 128, 32, 16)};
  p.stages.push_back(Stage{"S", {{m, false}}});
  return p;
}

TEST(Residency, LayerBytesClosedForm) {
  const LayerDesc a = gemm("A", 128, 64, 32);
  EXPECT_DOUBLE_EQ(layer_weight_bytes(a), 64.0 * 32.0);
  EXPECT_DOUBLE_EQ(shard_activation_bytes(a, 1.0), 128.0 * (64.0 + 32.0));
  // Half the rows: shard_fraction rounds 128 * 0.5 to exactly 64 tokens.
  EXPECT_DOUBLE_EQ(shard_activation_bytes(a, 0.5), 64.0 * (64.0 + 32.0));

  // Streaming-weight matmuls and weightless ops hold nothing resident.
  const LayerDesc att = attention_matmul("att", 64, 32, 32, 4);
  EXPECT_TRUE(att.streaming_weights);
  EXPECT_DOUBLE_EQ(layer_weight_bytes(att), 0.0);
  EXPECT_DOUBLE_EQ(layer_weight_bytes(elementwise("e", 8, 16, 16)), 0.0);
}

TEST(Residency, SingleScheduleClosedForm) {
  const PerceptionPipeline pipe = two_layer_chain();
  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule sched(pipe, pkg);
  sched.assign(0, 0);
  sched.assign(1, 1);

  const ResidencyReport r = compute_residency(sched);
  ASSERT_EQ(r.per_chiplet.size(), 2u);
  const ChipletResidency* c0 = r.find(0);
  const ChipletResidency* c1 = r.find(1);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  EXPECT_DOUBLE_EQ(c0->weight_bytes, 2048.0);
  EXPECT_DOUBLE_EQ(c0->activation_bytes, 12288.0);
  EXPECT_DOUBLE_EQ(c1->weight_bytes, 512.0);
  EXPECT_DOUBLE_EQ(c1->activation_bytes, 6144.0);
  EXPECT_DOUBLE_EQ(r.total_weight_bytes, 2560.0);
  EXPECT_FALSE(r.overflow);  // unbounded default never overflows
  EXPECT_EQ(r.find(99), nullptr);
  EXPECT_TRUE(r.describe_overflow().empty());
}

TEST(Residency, SharedChipletPeaksActivationsAndSumsWeights) {
  const PerceptionPipeline pipe = two_layer_chain();
  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule sched(pipe, pkg);
  sched.assign(0, 0);
  sched.assign(1, 0);

  const ResidencyReport r = compute_residency(sched);
  // Weights accumulate; the transient working set is the PEAK, not the sum.
  EXPECT_DOUBLE_EQ(r.find(0)->weight_bytes, 2048.0 + 512.0);
  EXPECT_DOUBLE_EQ(r.find(0)->activation_bytes, 12288.0);
  EXPECT_DOUBLE_EQ(r.find(1)->weight_bytes, 0.0);
}

TEST(Residency, ShardingReplicatesWeightsPerChiplet) {
  const PerceptionPipeline pipe = two_layer_chain();
  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule sched(pipe, pkg);
  sched.assign_sharded(0, {0, 1});  // A split evenly across both chiplets
  sched.assign(1, 0);

  const ResidencyReport r = compute_residency(sched);
  // Each shard holds A's FULL weight tensor (output rows split, kernel not).
  EXPECT_DOUBLE_EQ(r.find(0)->weight_bytes, 2048.0 + 512.0);
  EXPECT_DOUBLE_EQ(r.find(1)->weight_bytes, 2048.0);
  EXPECT_DOUBLE_EQ(r.total_weight_bytes, 2.0 * 2048.0 + 512.0);
  // Each shard buffers only its half of A's working set.
  EXPECT_DOUBLE_EQ(r.find(1)->activation_bytes, 64.0 * (64.0 + 32.0));
}

TEST(Residency, CombinedTenantsStackWeightsAndActivations) {
  const PerceptionPipeline pipe = two_layer_chain();
  const PackageConfig pkg = make_simba_package(1, 2);
  Schedule a(pipe, pkg);
  a.assign(0, 0);
  a.assign(1, 0);
  Schedule b(pipe, pkg);
  b.assign(0, 0);
  b.assign(1, 1);

  const ResidencyReport r = compute_residency({&a, &b}, pkg);
  // Tenants are distinct model instances: identical pipelines still double
  // the weights, and both tenants' working sets must coexist.
  EXPECT_DOUBLE_EQ(r.find(0)->weight_bytes, (2048.0 + 512.0) + 2048.0);
  EXPECT_DOUBLE_EQ(r.find(0)->activation_bytes, 12288.0 + 12288.0);
  EXPECT_DOUBLE_EQ(r.find(1)->weight_bytes, 512.0);
}

TEST(Residency, OverflowFlagsAndDiagnostic) {
  const PerceptionPipeline pipe = two_layer_chain();
  PackageConfig pkg = make_simba_package(1, 2);
  MemorySpec tight;
  tight.weight_capacity_bytes = 1000.0;  // < A's 2048 B
  pkg.set_chiplet_memory(0, tight);
  Schedule sched(pipe, pkg);
  sched.assign(0, 0);
  sched.assign(1, 1);

  const ResidencyReport r = compute_residency(sched);
  EXPECT_TRUE(r.overflow);
  EXPECT_TRUE(r.find(0)->weight_overflow);
  EXPECT_FALSE(r.find(0)->activation_overflow);
  EXPECT_FALSE(r.find(1)->overflow());
  const std::string diag = r.describe_overflow();
  EXPECT_NE(diag.find("chiplet 0"), std::string::npos) << diag;
  EXPECT_NE(diag.find("weights"), std::string::npos) << diag;
}

// --- describe() ----------------------------------------------------------

TEST(Residency, DescribeShowsMemoryOnlyWhenActive) {
  const PackageConfig pkg = make_simba_package(1, 2);
  // Inactive default: the legacy describe string is untouched.
  EXPECT_EQ(pkg.chiplet(0).describe().find("mem["), std::string::npos);
  EXPECT_FALSE(pkg.memory_model_active());
  EXPECT_EQ(MemorySpec{}.describe(), "mem[unbounded]");

  PackageConfig bounded = pkg;
  bounded.set_memory(make_calibrated_memory());
  EXPECT_TRUE(bounded.memory_model_active());
  const std::string s = bounded.chiplet(0).describe();
  EXPECT_NE(s.find("mem[w="), std::string::npos) << s;
  EXPECT_NE(s.find("reload="), std::string::npos) << s;
  EXPECT_NE(s.find("B/s"), std::string::npos) << s;

  MemorySpec reload_only;
  reload_only.reload_bandwidth_bytes_per_s = 1e9;
  EXPECT_TRUE(reload_only.active());
  EXPECT_FALSE(reload_only.bounded());
  EXPECT_NE(reload_only.describe().find("w=inf"), std::string::npos);
}

// --- capacity-aware placement ---------------------------------------------

// Two single-layer chains over a two-chiplet pool: with chiplet 0's weight
// capacity below one chain, both chains spill to chiplet 1; with both
// chiplets too small the placement must refuse loudly.
TEST(Residency, PoolScheduleSpillsThenThrows) {
  PerceptionPipeline pipe;
  for (int i = 0; i < 2; ++i) {
    Model m;
    m.name = "chain" + std::to_string(i);
    m.layers = {gemm("g" + std::to_string(i), 128, 64, 32)};  // 2048 B weights
    if (pipe.stages.empty()) pipe.stages.push_back(Stage{"S", {}});
    pipe.stages[0].models.push_back({m, false});
  }

  PackageConfig pkg = make_simba_package(1, 2);
  MemorySpec tight;
  tight.weight_capacity_bytes = 1000.0;
  pkg.set_chiplet_memory(0, tight);
  const Schedule sched = build_pool_schedule(pipe, pkg, {0, 1});
  for (int i = 0; i < sched.num_items(); ++i) {
    EXPECT_EQ(sched.placement(i).primary_chiplet(), 1) << i;
  }
  EXPECT_FALSE(compute_residency(sched).overflow);

  pkg.set_chiplet_memory(1, tight);
  try {
    build_pool_schedule(pipe, pkg, {0, 1});
    FAIL() << "over-capacity pool placement must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chain"), std::string::npos)
        << e.what();
  }
}

// Algorithm 1 gates its steps on weight room only, so its final placement
// is checked whole: the calibrated 6x6 autopilot placement overflows
// activation memory and is refused, while a weight-only cap still matches.
TEST(Residency, MatchingRefusesOverflowingPlacement) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  PackageConfig calibrated = make_simba_package();
  calibrated.set_memory(make_calibrated_memory());
  try {
    (void)throughput_matching(pipe, calibrated);
    FAIL() << "an overflowing placement must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("activation"), std::string::npos)
        << e.what();
  }

  PackageConfig weight_capped = make_simba_package();
  MemorySpec mem;
  mem.weight_capacity_bytes = 16e6;
  weight_capped.set_memory(mem);
  const MatchResult r = throughput_matching(pipe, weight_capped);
  EXPECT_FALSE(compute_residency(r.schedule).overflow);
}

// Capacity-respecting survivor choice in remap_schedule: deterministic,
// avoids full survivors when an alternative has room, falls back (degraded
// beats refused) when nothing fits, and prices the moved weights.
TEST(Residency, RemapRespectsCapacityAndChargesMovedWeights) {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(7);
  const PackageConfig pkg = make_simba_package(2, 4);
  const Schedule sched = build_chainwise_schedule(pipe, pkg);
  const int victim = 5;
  const PackageConfig degraded = pkg.without_chiplet(victim);

  RemapStats base_stats;
  const Schedule base = remap_schedule(sched, degraded, victim, &base_stats);
  ASSERT_GT(base_stats.moved_shards, 0);
  EXPECT_GT(base_stats.weights_moved_bytes, 0.0);
  double reload_sum = 0.0;
  for (const ReloadTransfer& t : base_stats.reloads) {
    EXPECT_GE(t.bytes, 0.0);
    EXPECT_NE(t.chiplet_id, victim);
    reload_sum += t.bytes;
  }
  EXPECT_DOUBLE_EQ(reload_sum, base_stats.weights_moved_bytes);

  // Deterministic: a second run reproduces placements and stats exactly.
  RemapStats again_stats;
  const Schedule again = remap_schedule(sched, degraded, victim, &again_stats);
  EXPECT_EQ(base.describe(), again.describe());
  EXPECT_EQ(base_stats.moved_shards, again_stats.moved_shards);
  EXPECT_DOUBLE_EQ(base_stats.weights_moved_bytes,
                   again_stats.weights_moved_bytes);

  // The chosen survivors, stuffed to capacity, must be avoided when other
  // survivors have room...
  ASSERT_FALSE(base_stats.reloads.empty());
  PackageConfig fenced = pkg.without_chiplet(victim);
  const ResidencyReport pre = compute_residency({&sched}, fenced);
  for (const ReloadTransfer& t : base_stats.reloads) {
    MemorySpec full;  // holds what it has, no room for a moved chain
    full.weight_capacity_bytes = pre.find(t.chiplet_id)->weight_bytes + 1.0;
    fenced.set_chiplet_memory(t.chiplet_id, full);
  }
  RemapStats fenced_stats;
  const Schedule rerouted =
      remap_schedule(sched, fenced, victim, &fenced_stats);
  for (const ReloadTransfer& t : fenced_stats.reloads) {
    for (const ReloadTransfer& b : base_stats.reloads) {
      EXPECT_NE(t.chiplet_id, b.chiplet_id);
    }
  }
  EXPECT_FALSE(compute_residency(rerouted).overflow);

  // ...and when EVERY survivor is full the filter drops: the remap still
  // succeeds (legacy least-loaded choice) instead of stranding the chain.
  PackageConfig all_full = pkg.without_chiplet(victim);
  for (const ChipletSpec& c : all_full.chiplets()) {
    MemorySpec m;
    m.weight_capacity_bytes = 1.0;
    all_full.set_chiplet_memory(c.id, m);
  }
  RemapStats fallback_stats;
  const Schedule fallback =
      remap_schedule(sched, all_full, victim, &fallback_stats);
  EXPECT_EQ(fallback.describe(), base.describe());
  EXPECT_DOUBLE_EQ(fallback_stats.weights_moved_bytes,
                   base_stats.weights_moved_bytes);
}

// --- event-sim reload charging --------------------------------------------

struct ReloadScenario {
  PerceptionPipeline pipe = build_fault_probe_pipeline(7);
  PackageConfig pkg = make_simba_package(2, 4);
  SimOptions opt;

  ReloadScenario() {
    SimOptions burst;
    burst.frames = 8;
    const double healthy =
        simulate_schedule(build_chainwise_schedule(pipe, pkg), burst)
            .steady_interval_s;
    opt.frames = 48;
    opt.frame_interval_s = healthy * 1.3;
    opt.fault.chiplet_id = 5;
    opt.fault.fail_time_s = 20 * opt.frame_interval_s;
    opt.fault.recover_time_s = -1.0;  // no recovery: fault reloads only
    opt.fault.reschedule_penalty_s = 2 * opt.frame_interval_s;
  }

  SimResult run(const MemorySpec& mem) const {
    PackageConfig p = pkg;
    p.set_memory(mem);
    const Schedule sched = build_chainwise_schedule(pipe, p);
    return simulate_schedule(sched, opt);
  }
};

TEST(Residency, ReloadFieldsInertWithoutMemoryModel) {
  const ReloadScenario s;
  const SimResult r = s.run(MemorySpec{});
  EXPECT_EQ(r.reload_bytes, 0.0);
  EXPECT_EQ(r.reload_time_s, 0.0);
}

TEST(Residency, SimReloadBytesMatchRemapStats) {
  const ReloadScenario s;
  MemorySpec mem;
  mem.reload_bandwidth_bytes_per_s = 25.0e9;
  const SimResult r = s.run(mem);

  // Without recovery the only reloads are the fault remap's moved weights:
  // the sim must charge exactly what RemapStats priced.
  RemapStats stats;
  remap_schedule(build_chainwise_schedule(s.pipe, s.pkg),
                 s.pkg.without_chiplet(s.opt.fault.chiplet_id),
                 s.opt.fault.chiplet_id, &stats);
  ASSERT_GT(stats.weights_moved_bytes, 0.0);
  EXPECT_DOUBLE_EQ(r.reload_bytes, stats.weights_moved_bytes);
  EXPECT_GT(r.reload_time_s, 0.0);
}

TEST(Residency, FiniteReloadBandwidthInflatesColdStartSpike) {
  const ReloadScenario s;
  MemorySpec instant;
  instant.weight_capacity_bytes = 1e12;  // bounded -> model active,
  MemorySpec slow = instant;             // reload bw inf -> free transfer
  slow.reload_bandwidth_bytes_per_s = 1.0e8;

  const SimResult fast = s.run(instant);
  const SimResult spiked = s.run(slow);
  EXPECT_DOUBLE_EQ(fast.reload_bytes, spiked.reload_bytes);
  EXPECT_GT(spiked.reload_time_s, fast.reload_time_s);
  // The cold-start reload stall lands on the post-fault frames: a strictly
  // higher latency spike than the infinite-bandwidth memory model.
  EXPECT_GT(spiked.peak_latency_s, fast.peak_latency_s);
  EXPECT_GE(spiked.p99_latency_s, fast.p99_latency_s);
}

// --- capacity-aware tenancy -----------------------------------------------

// Two tenants whose shared (interleaved) placement stacks two chains on the
// overlap chiplets: a capacity between the partitioned and shared maxima
// must reject shared with a diagnostic while partitioned still fits.
TEST(Residency, SharedOverflowRejectedWherePartitionedFits) {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  const PackageConfig pkg = make_simba_package(4, 4);
  std::vector<TenantWorkload> fleet(2);
  for (int t = 0; t < 2; ++t) {
    fleet[static_cast<std::size_t>(t)].name = "t" + std::to_string(t);
    fleet[static_cast<std::size_t>(t)].pipeline = &pipe;
  }

  auto max_weight = [](const TenantPlacement& placed,
                       const PackageConfig& p) {
    std::vector<const Schedule*> scheds;
    for (const Schedule& s : placed.schedules) scheds.push_back(&s);
    double mx = 0.0;
    for (const ChipletResidency& c :
         compute_residency(scheds, p).per_chiplet) {
      mx = std::max(mx, c.weight_bytes);
    }
    return mx;
  };
  const double shared_max =
      max_weight(place_tenants(fleet, pkg, PlacementPolicy::kShared), pkg);
  const double part_max = max_weight(
      place_tenants(fleet, pkg, PlacementPolicy::kPartitioned), pkg);
  ASSERT_GT(shared_max, part_max);  // interleaving genuinely stacks chains

  PackageConfig capped = pkg;
  MemorySpec mem;
  mem.weight_capacity_bytes = (shared_max + part_max) / 2.0;
  capped.set_memory(mem);
  EXPECT_NO_THROW(place_tenants(fleet, capped, PlacementPolicy::kPartitioned));
  try {
    place_tenants(fleet, capped, PlacementPolicy::kShared);
    FAIL() << "over-capacity shared placement must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shared"), std::string::npos) << what;
    EXPECT_NE(what.find("chiplet"), std::string::npos) << what;
  }
}

// Reload-induced tail inflation flows through the serving layer: the same
// fleet + fault under finite reload bandwidth has a no-better p99 and a
// strictly worse peak than under infinite bandwidth.
TEST(Residency, ServingTailReflectsReloadStalls) {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  const PackageConfig pkg = make_simba_package(4, 4);
  SimOptions burst;
  burst.frames = 8;
  const double healthy =
      simulate_schedule(build_chainwise_schedule(pipe, pkg), burst)
          .steady_interval_s;

  std::vector<TenantWorkload> fleet(2);
  for (int t = 0; t < 2; ++t) {
    fleet[static_cast<std::size_t>(t)].name = "t" + std::to_string(t);
    fleet[static_cast<std::size_t>(t)].pipeline = &pipe;
    fleet[static_cast<std::size_t>(t)].frames = 32;
    fleet[static_cast<std::size_t>(t)].frame_interval_s = healthy * 2.0;
  }
  ServingOptions opt;
  opt.policy = PlacementPolicy::kShared;
  // Chiplet 2 hosts chains of BOTH tenants (shared interleave over 0..4 for
  // two 4-chain tenants) and is away from the I/O router at (1,0).
  opt.fault.chiplet_id = 2;
  opt.fault.fail_time_s = 10 * healthy;
  opt.fault.recover_time_s = -1.0;
  opt.fault.reschedule_penalty_s = healthy;

  auto run_with_bw = [&](double bw) {
    PackageConfig p = pkg;
    MemorySpec mem;
    mem.weight_capacity_bytes = 1e12;
    mem.reload_bandwidth_bytes_per_s = bw;
    p.set_memory(mem);
    return serve_tenants(p, fleet, opt);
  };
  const SimResult fast = run_with_bw(0.0);  // active model, free reloads
  const SimResult slow = run_with_bw(1.0e8);
  EXPECT_GT(slow.reload_time_s, fast.reload_time_s);
  EXPECT_GT(slow.peak_latency_s, fast.peak_latency_s);
  EXPECT_GE(slow.p99_latency_s, fast.p99_latency_s);
}

}  // namespace
}  // namespace cnpu
