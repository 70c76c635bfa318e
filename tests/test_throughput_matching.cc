#include "core/throughput_matching.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/partition.h"
#include "core/scaling.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

class MatchingTest : public ::testing::Test {
 protected:
  AutopilotConfig cfg_;
  PerceptionPipeline pipe_ = build_autopilot_pipeline(cfg_);
  PackageConfig pkg_ = make_simba_package();
};

TEST_F(MatchingTest, ConvergesOnSimba) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.schedule.fully_assigned());
}

TEST_F(MatchingTest, AllStagesMatchBaseWithinTolerance) {
  const MatchOptions opt;
  const MatchResult r = throughput_matching(pipe_, pkg_, opt);
  const double bound = r.latbase_s * (1.0 + opt.tolerance) + 1e-9;
  for (const auto& s : r.metrics.stages) {
    EXPECT_LE(s.pipe_s, bound) << s.name;
  }
}

TEST_F(MatchingTest, BaseIsFeStagePipe) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  EXPECT_NEAR(r.latbase_s, r.metrics.stages[0].pipe_s, 1e-12);
  // The paper's base: ~82.7 ms.
  EXPECT_NEAR(r.latbase_s * 1e3, 82.7, 8.0);
}

TEST_F(MatchingTest, TraceStartsWithInitialAssignment) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  ASSERT_FALSE(r.trace.empty());
  EXPECT_EQ(r.trace.front().action, "initial quadrant assignment");
}

TEST_F(MatchingTest, PipeNeverIncreasesAlongTrace) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_LE(r.trace[i].pipe_ms, r.trace[i - 1].pipe_ms + 1e-6)
        << r.trace[i].action;
  }
}

TEST_F(MatchingTest, FreeChipletsNeverNegativeAndMonotone) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i].chiplets_free, 0);
    if (i > 0) {
      EXPECT_LE(r.trace[i].chiplets_free, r.trace[i - 1].chiplets_free);
    }
  }
}

TEST_F(MatchingTest, ShardFractionsSumToOne) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  for (int i = 0; i < r.schedule.num_items(); ++i) {
    const Placement& p = r.schedule.placement(i);
    double sum = 0.0;
    std::set<int> seen;
    for (const auto& s : p.shards) {
      sum += s.fraction;
      EXPECT_TRUE(seen.insert(s.chiplet_id).second)
          << "duplicate shard chiplet for item " << i;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST_F(MatchingTest, FusionBottlenecksGotSharded) {
  const MatchResult r = throughput_matching(pipe_, pkg_);
  // T_FFN layers cannot fit the base latency on one chiplet.
  bool t_ffn_sharded = false;
  for (int i = 0; i < r.schedule.num_items(); ++i) {
    if (r.schedule.item(i).desc->name == "T_FFN1") {
      t_ffn_sharded = r.schedule.placement(i).num_shards() > 1;
    }
  }
  EXPECT_TRUE(t_ffn_sharded);
}

TEST_F(MatchingTest, TighterToleranceNeverWorsensPipe) {
  MatchOptions loose;
  loose.tolerance = 0.25;
  MatchOptions tight;
  tight.tolerance = 0.02;
  const double loose_pipe =
      throughput_matching(pipe_, pkg_, loose).metrics.pipe_s;
  const double tight_pipe =
      throughput_matching(pipe_, pkg_, tight).metrics.pipe_s;
  EXPECT_LE(tight_pipe, loose_pipe * 1.05);
}

TEST_F(MatchingTest, FrozenStageIsLeftAlone) {
  MatchOptions opt;
  opt.frozen_stages = {2};  // freeze T_FUSE
  const MatchResult r = throughput_matching(pipe_, pkg_, opt);
  for (int idx : r.schedule.items_of_stage(2)) {
    EXPECT_EQ(r.schedule.placement(idx).num_shards(), 1)
        << r.schedule.item(idx).desc->name;
  }
}

TEST(InitialAssignment, ParallelModelsRoundRobin) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  Schedule sched(pipe, pkg);
  initial_quadrant_assignment(sched, partition_quadrants(pkg));
  EXPECT_TRUE(sched.fully_assigned());
  // 8 FE models on 8 distinct quadrant-0 chiplets.
  std::set<int> fe_chiplets;
  for (int mod = 0; mod < 8; ++mod) {
    const auto& items = sched.items_of_model(0, mod);
    const int c = sched.placement(items.front()).primary_chiplet();
    fe_chiplets.insert(c);
    for (int idx : items) {
      EXPECT_EQ(sched.placement(idx).primary_chiplet(), c);
    }
  }
  EXPECT_EQ(fe_chiplets.size(), 8u);
}

TEST(InitialAssignment, ElementwiseRidesWithPredecessor) {
  const PerceptionPipeline pipe = build_autopilot_front();
  const PackageConfig pkg = make_simba_package();
  Schedule sched(pipe, pkg);
  initial_quadrant_assignment(sched, partition_quadrants(pkg));
  const auto& items = sched.items_of_model(1, 0);  // S_FUSE chain
  // S_SOFTMAX (index 2) co-located with S_ATTN_QK (index 1).
  EXPECT_EQ(sched.placement(items[2]).primary_chiplet(),
            sched.placement(items[1]).primary_chiplet());
  // Heavy layers on distinct chiplets.
  EXPECT_NE(sched.placement(items[0]).primary_chiplet(),
            sched.placement(items[1]).primary_chiplet());
}

TEST(SplitModelChain, BalancesHalves) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  Schedule sched(pipe, pkg);
  initial_quadrant_assignment(sched, partition_quadrants(pkg));

  const int before = sched.placement(sched.items_of_model(0, 0)[0]).primary_chiplet();
  const int fresh = sched.free_chiplets().front();
  const int cut = split_model_chain(sched, 0, 0, fresh);
  const auto& items = sched.items_of_model(0, 0);
  ASSERT_GT(cut, 0);
  ASSERT_LT(cut, static_cast<int>(items.size()));

  double head = 0.0;
  double tail = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    (static_cast<int>(i) < cut ? head : tail) += item_latency_s(sched, items[i]);
    EXPECT_EQ(sched.placement(items[i]).primary_chiplet(),
              static_cast<int>(i) < cut ? before : fresh);
  }
  // Balanced within 25%.
  EXPECT_NEAR(head / (head + tail), 0.5, 0.25);
}

// Bitwise pins of Algorithm 1, captured from the whole-schedule evaluation
// the match ran before it priced incrementally: the trace step by step and
// the final metrics must not move by one ulp.
struct PinnedStep {
  double pipe_ms;
  double latbase_ms;
  int chiplets_free;
};

void expect_pinned_trace(const MatchResult& r,
                         const std::vector<PinnedStep>& steps) {
  ASSERT_EQ(r.trace.size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(r.trace[i].pipe_ms, steps[i].pipe_ms) << r.trace[i].action;
    EXPECT_EQ(r.trace[i].latbase_ms, steps[i].latbase_ms) << r.trace[i].action;
    EXPECT_EQ(r.trace[i].chiplets_free, steps[i].chiplets_free)
        << r.trace[i].action;
  }
}

// The Fig. 5-8 operating point: 8 cameras on the 6x6 mesh, tolerance 0.10.
TEST(MatchingPins, SixBySixEightCamerasBitwise) {
  AutopilotConfig cfg;
  cfg.num_cameras = 8;
  const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
  const PackageConfig pkg = make_simba_package();
  MatchOptions opt;
  opt.tolerance = 0.10;
  const MatchResult r = throughput_matching(pipe, pkg, opt);
  expect_pinned_trace(
      r, {
             {0x1.f5517324baca7p+7, 0x1.49bc45960c464p+6, 12},  // initial
             {0x1.efb97f122ed6bp+7, 0x1.49bc45960c464p+6, 11},
             {0x1.0f934793cbb2ap+7, 0x1.49bc45960c464p+6, 10},
             {0x1.f55501ba14636p+6, 0x1.49bc45960c464p+6, 9},
             {0x1.f077d6d1328d2p+6, 0x1.49bc45960c464p+6, 8},
             {0x1.edfccc6ed8fbap+6, 0x1.49bc45960c464p+6, 7},
             {0x1.e7d7f3717c443p+6, 0x1.49bc45960c464p+6, 6},
             {0x1.4e35e89f912a6p+6, 0x1.49bc45960c464p+6, 5},
             {0x1.4b7453741b5adp+6, 0x1.49bc45960c464p+6, 4},  // absorb
             {0x1.49bc45960c464p+6, 0x1.49bc45960c464p+6, 3},
             {0x1.49bc45960c464p+6, 0x1.49bc45960c464p+6, 2},
             {0x1.49bc45960c464p+6, 0x1.49bc45960c464p+6, 1},
             {0x1.49bc45960c464p+6, 0x1.49bc45960c464p+6, 0},
         });
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.latbase_s, 0x1.51a62a958d97dp-4);
  EXPECT_EQ(r.metrics.e2e_s, 0x1.1985d65b99b19p-1);
  EXPECT_EQ(r.metrics.pipe_s, 0x1.51a62a958d97dp-4);
  EXPECT_EQ(r.metrics.energy_j(), 0x1.518a23443ef55p-1);
}

// The 2-NPU pool layout with base splitting and frozen trunks (Sec. V-B),
// the one the DSE benchmark's 2-NPU points match.
TEST(MatchingPins, TwoNpuBaseSplitBitwise) {
  const ScaleOutResult s = scale_out_two_npus(AutopilotConfig{});
  const MatchResult& r = s.match;
  expect_pinned_trace(
      r, {
             {0x1.f5517324baca7p+7, 0x1.49bc45960c464p+6, 42},  // initial
             {0x1.efb97f122ed6bp+7, 0x1.49bc45960c464p+6, 41},
             {0x1.0f934793cbb2ap+7, 0x1.49bc45960c464p+6, 40},
             {0x1.f55501ba14636p+6, 0x1.49bc45960c464p+6, 39},
             {0x1.f077d6d1328d2p+6, 0x1.49bc45960c464p+6, 38},
             {0x1.edfccc6ed8fbap+6, 0x1.49bc45960c464p+6, 37},
             {0x1.e7d7f3717c443p+6, 0x1.49bc45960c464p+6, 36},
             {0x1.4e35e89f912a6p+6, 0x1.49bc45960c464p+6, 35},
             {0x1.4e35e89f912a6p+6, 0x1.49bcda10822e5p+5, 27},  // base split
             {0x1.4b7453741b5adp+6, 0x1.49bcda10822e5p+5, 27},
             {0x1.3c54cce0eec2dp+6, 0x1.49bcda10822e5p+5, 27},
             {0x1.3c54cce0eec2dp+6, 0x1.49bcda10822e5p+5, 26},
             {0x1.3c54cce0eec2dp+6, 0x1.49bcda10822e5p+5, 25},
             {0x1.3706b9e6cf65cp+6, 0x1.49bcda10822e5p+5, 24},
             {0x1.0ad272283b887p+6, 0x1.49bcda10822e5p+5, 23},
             {0x1.0ad272283b887p+6, 0x1.49bcda10822e5p+5, 22},
             {0x1.ee01d91e13e75p+5, 0x1.49bcda10822e5p+5, 21},
             {0x1.e91796f57a6b1p+5, 0x1.49bcda10822e5p+5, 21},
             {0x1.d3a74736f6364p+5, 0x1.49bcda10822e5p+5, 21},
             {0x1.d3a74736f6364p+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.170bbef768c95p+6, 0x1.49bcda10822e5p+5, 20},
             {0x1.170bbef768c95p+6, 0x1.49bcda10822e5p+5, 20},
             {0x1.153d40e51433p+6, 0x1.49bcda10822e5p+5, 20},
             {0x1.05213043057fep+6, 0x1.49bcda10822e5p+5, 20},
             {0x1.f232c8aa285d2p+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.d65ccc5401091p+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.bae0bef218b6ap+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.b54ce609258a5p+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.a1d5309032597p+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.8e9a657173e09p+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.8e26b7faadb0bp+5, 0x1.49bcda10822e5p+5, 20},
             {0x1.8e26b7faadb0bp+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.ea5229987fbe4p+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.ea5229987fbe4p+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.c2ad7d34976fcp+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.94f8a3a39701cp+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.8845c5062eee2p+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.7c56b6fbaa2ffp+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.6b5c5d1bf334p+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.690fbbee10a29p+5, 0x1.49bcda10822e5p+5, 19},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 18},  // absorb
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 17},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 16},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 15},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 14},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 13},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 12},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 11},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 10},
             {0x1.6754b3b67b51ap+5, 0x1.49bcda10822e5p+5, 9},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 8},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 7},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 6},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 5},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 4},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 3},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 2},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 1},
             {0x1.4f0b6c44ccb89p+5, 0x1.49bcda10822e5p+5, 0},
         });
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.latbase_s, 0x1.51a6c2a043c4fp-5);
  EXPECT_EQ(r.metrics.e2e_s, 0x1.4cf064f7aba69p-2);
  EXPECT_EQ(r.metrics.pipe_s, 0x1.455319a32c4eep-4);
  EXPECT_EQ(r.metrics.energy_j(), 0x1.7fdea2c40089dp-1);
}

TEST(MatchingExtraStages, PipelinesBeyondFourStagesShareLastPool) {
  // Multi-tenant case: a fifth stage (e.g. a driver-monitoring CNN) must
  // schedule without disturbing convergence (pools beyond the stage count
  // collapse onto the last quadrant).
  PerceptionPipeline pipe = build_autopilot_pipeline();
  Model extra;
  extra.name = "TENANT";
  extra.layers = {conv2d("TEN_C1", 32, 64, 100, 160, 3),
                  gemm("TEN_FC", 1, 64, 16)};
  pipe.stages.push_back(Stage{"TENANT", {{extra, false}}});

  const PackageConfig pkg = make_simba_package();
  const MatchResult r = throughput_matching(pipe, pkg);
  EXPECT_TRUE(r.schedule.fully_assigned());
  ASSERT_EQ(r.metrics.stages.size(), 5u);
  // The tenant is tiny; it must not become the bottleneck.
  EXPECT_LT(r.metrics.stages[4].pipe_s, r.latbase_s);
  EXPECT_NEAR(r.latbase_s * 1e3, 82.4, 8.0);
}

TEST(PartitionQuadrants, SimbaSplitsIntoFourNines) {
  const PackageConfig pkg = make_simba_package();
  const auto pools = partition_quadrants(pkg);
  ASSERT_EQ(pools.size(), 4u);
  for (const auto& pool : pools) EXPECT_EQ(pool.size(), 9u);
}

TEST(PartitionQuadrants, MultiNpuAddsReservePool) {
  const PackageConfig pkg = make_multi_npu_package(2);
  const auto pools = partition_quadrants(pkg);
  ASSERT_EQ(pools.size(), 5u);
  EXPECT_EQ(pools[4].size(), 36u);
}

TEST(PartitionRoundRobin, CoversAllChiplets) {
  const PackageConfig pkg = make_simba_package();
  const auto pools = partition_round_robin(pkg, 5);
  std::size_t total = 0;
  for (const auto& p : pools) total += p.size();
  EXPECT_EQ(total, 36u);
}

}  // namespace
}  // namespace cnpu
