// Randomized property tests (deterministic seeds): the cost model, mapping
// analysis, and sharding must hold their invariants over arbitrary layer
// shapes, not just the perception suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/bounds.h"
#include "analysis/validate.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/partition.h"
#include "core/remap.h"
#include "core/residency.h"
#include "core/throughput_matching.h"
#include "dataflow/cost_model.h"
#include "dataflow/mapping_analysis.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "sim_result_eq.h"

namespace cnpu {
namespace {

// Small deterministic LCG so failures reproduce exactly.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

LayerDesc random_layer(Lcg& rng, int tag) {
  const int kind = static_cast<int>(rng.range(0, 5));
  const std::string name = "fuzz_" + std::to_string(tag);
  switch (kind) {
    case 0:
      return conv2d(name, rng.range(1, 512), rng.range(1, 512),
                    rng.range(1, 256), rng.range(1, 256), rng.range(1, 7),
                    rng.range(1, 2));
    case 1:
      return depthwise(name, rng.range(1, 512), rng.range(1, 128),
                       rng.range(1, 128), rng.range(1, 5), rng.range(1, 2));
    case 2: {
      const std::int64_t up = 2;
      return transposed_conv(name, rng.range(1, 256), rng.range(1, 256),
                             rng.range(1, 64) * up, rng.range(1, 64) * up,
                             rng.range(2, 5), up);
    }
    case 3:
      return gemm(name, rng.range(1, 200000), rng.range(1, 1024),
                  rng.range(1, 1024));
    case 4: {
      const int heads = 8;
      return attention_matmul(name, rng.range(1, 20000), rng.range(1, 64),
                              rng.range(1, 128), heads);
    }
    default:
      return elementwise(name, rng.range(1, 512), rng.range(1, 256),
                         rng.range(1, 256));
  }
}

class FuzzSeed : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeed, CostModelInvariantsHold) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 7919u + 17u);
  for (int i = 0; i < 40; ++i) {
    const LayerDesc l = random_layer(rng, i);
    ASSERT_TRUE(l.validate().empty()) << l.name;
    for (auto kind : {DataflowKind::kOutputStationary,
                      DataflowKind::kWeightStationary}) {
      const PeArrayConfig a = make_pe_array(kind);
      const CostReport r = analyze_layer(l, a);
      EXPECT_GT(r.latency_s, 0.0) << l.name;
      EXPECT_LE(r.rate, static_cast<double>(a.num_pes) + 1e-9) << l.name;
      EXPECT_GE(r.cycles * static_cast<double>(a.num_pes) * 1.001, r.macs)
          << l.name;
      EXPECT_GE(r.energy.total_pj(), 0.0) << l.name;
      EXPECT_LE(r.spatial_util, 1.0 + 1e-9) << l.name;
      EXPECT_GE(r.traffic.total_elems(), 0.0) << l.name;
    }
  }
}

TEST_P(FuzzSeed, ShardingConservesWork) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 3u);
  for (int i = 0; i < 25; ++i) {
    const LayerDesc l = random_layer(rng, i);
    const int n = static_cast<int>(rng.range(2, 8));
    if (l.y < n) continue;
    double macs = 0.0;
    for (int s = 0; s < n; ++s) {
      macs += shard_layer(l, n, s).macs();
    }
    EXPECT_NEAR(macs, l.macs(), l.macs() * 1e-9) << l.name;
  }
}

TEST_P(FuzzSeed, ShardLatencyMonotoneInShardCount) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 65537u + 11u);
  const PeArrayConfig os = make_pe_array(DataflowKind::kOutputStationary);
  for (int i = 0; i < 15; ++i) {
    LayerDesc l = random_layer(rng, i);
    if (l.y < 64) l.y = 64 + l.y;
    double prev = analyze_layer(l, os).latency_s;
    for (int n : {2, 4, 8}) {
      const double cur = analyze_layer(shard_layer(l, n, 0), os).latency_s;
      EXPECT_LE(cur, prev * 1.02) << l.name << " n=" << n;
      prev = cur;
    }
  }
}

TEST_P(FuzzSeed, MappingAnalysisInvariantsHold) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 5u);
  const std::vector<MappingSpec> specs{shidiannao_mapping(), nvdla_mapping(),
                                       eyeriss_mapping(), os_token_mapping()};
  for (int i = 0; i < 20; ++i) {
    const LayerDesc l = random_layer(rng, i);
    for (const auto& spec : specs) {
      const MappingAnalysis a = analyze_mapping(l, spec);
      EXPECT_GE(a.spatial_util, 0.0) << spec.name << "/" << l.name;
      EXPECT_LE(a.spatial_util, 1.0 + 1e-9) << spec.name << "/" << l.name;
      EXPECT_GE(a.temporal_steps, 1.0) << spec.name;
      // Step capacity covers the MAC iteration space (ceil slack allowed).
      EXPECT_GE(a.temporal_steps * a.step_work * 1.001, l.macs())
          << spec.name << "/" << l.name;
      EXPECT_GE(a.psum_recirc_elems, -1e-6) << spec.name;
      EXPECT_GE(a.staging_elems, 0.0) << spec.name;
    }
  }
}

// Random package geometry (occasionally multi-NPU) for the NoP properties.
PackageConfig random_package(Lcg& rng) {
  const int rows = static_cast<int>(rng.range(1, 3));
  const int cols = static_cast<int>(rng.range(1, 4));
  if (rng.range(0, 3) == 0) {
    return make_multi_npu_package(2, rows, cols);
  }
  return make_simba_package(rows, cols);
}

// Route enumeration must agree with the analytical hop counts for every
// chiplet pair and every ingress, whatever the geometry.
TEST_P(FuzzSeed, RouteLengthsMatchAnalyticalHopCounts) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 9176u + 29u);
  for (int trial = 0; trial < 6; ++trial) {
    const PackageConfig pkg = random_package(rng);
    for (const auto& a : pkg.chiplets()) {
      for (const auto& b : pkg.chiplets()) {
        EXPECT_EQ(static_cast<int>(pkg.route_between(a.id, b.id).size()),
                  pkg.hops_between(a.id, b.id))
            << a.id << "->" << b.id;
      }
      EXPECT_EQ(static_cast<int>(pkg.route_from_io(a.id).size()),
                pkg.hops_from_io(a.id))
          << "io->" << a.id;
    }
  }
}

// A random single-model chain with random (possibly sharded) placements:
//  1. with infinite link bandwidth, contended mode is bitwise-identical to
//     analytical mode (zero-width occupancies never queue);
//  2. both match the evaluator's E2E on the first frame to float round-off;
//  3. both converge to the evaluator's pipe latency in steady state.
TEST_P(FuzzSeed, ContendedSimMatchesAnalyticalAndEvaluator) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 52361u + 41u);
  for (int trial = 0; trial < 4; ++trial) {
    PackageConfig pkg = random_package(rng);
    NopParams inf = pkg.nop();
    inf.bandwidth_bytes_per_s = std::numeric_limits<double>::infinity();
    pkg.set_nop(inf);

    PerceptionPipeline pipe;
    Model m;
    m.name = "fuzz_chain";
    const int layers = static_cast<int>(rng.range(2, 5));
    for (int l = 0; l < layers; ++l) {
      m.layers.push_back(gemm("g" + std::to_string(l),
                              rng.range(256, 8192), rng.range(16, 256),
                              rng.range(16, 256)));
    }
    pipe.stages.push_back(Stage{"S", {{m, false}}});

    Schedule sched(pipe, pkg);
    for (int i = 0; i < sched.num_items(); ++i) {
      // Single placement or an even shard over distinct chiplets (shards of
      // one item sharing a chiplet would serialize in the sim but max() in
      // the evaluator — a different property than the one under test).
      const int n = static_cast<int>(
          rng.range(1, std::min<std::int64_t>(3, pkg.num_chiplets())));
      std::vector<int> chosen;
      while (static_cast<int>(chosen.size()) < n) {
        const int c = static_cast<int>(rng.range(0, pkg.num_chiplets() - 1));
        const int id = pkg.chiplets()[static_cast<std::size_t>(c)].id;
        bool dup = false;
        for (const int existing : chosen) dup = dup || existing == id;
        if (!dup) chosen.push_back(id);
      }
      sched.assign_sharded(i, chosen);
    }

    const ScheduleMetrics metrics = evaluate_schedule(sched);
    SimOptions analytical;
    analytical.frames = 24;
    SimOptions contended = analytical;
    contended.nop_mode = NopMode::kContended;
    const SimResult a = simulate_schedule(sched, analytical);
    const SimResult c = simulate_schedule(sched, contended);

    // (1) bitwise identity at infinite bandwidth.
    ASSERT_TRUE(a.frame_completion_s == c.frame_completion_s);
    ASSERT_EQ(a.first_frame_latency_s, c.first_frame_latency_s);
    ASSERT_EQ(a.steady_interval_s, c.steady_interval_s);
    ASSERT_EQ(a.p99_latency_s, c.p99_latency_s);

    // (2) single-frame fill latency == analytical E2E.
    SimOptions single = analytical;
    single.frames = 1;
    const SimResult first = simulate_schedule(sched, single);
    EXPECT_NEAR(first.first_frame_latency_s, metrics.e2e_s,
                std::max(1e-9, metrics.e2e_s * 1e-12));

    // (3) steady interval converges to pipe latency (generous band: short
    // stream + non-preemptive dispatch leave scheduling slack).
    EXPECT_GT(a.steady_interval_s, metrics.pipe_s * 0.75);
    EXPECT_LT(a.steady_interval_s, metrics.pipe_s * 1.25);
  }
}

// Degraded packages: whatever chiplet is removed, any route the package
// still returns must (a) match the analytical hop count and (b) never
// touch the failed position; when the topology is genuinely disconnected
// (or the mesh-walk exit position died), route and hop count must refuse
// CONSISTENTLY — one throwing while the other returns would let the
// contended simulator and the analytical evaluator disagree.
TEST_P(FuzzSeed, DegradedRoutesAvoidFailedSitesOrThrowConsistently) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 31013u + 7u);
  for (int trial = 0; trial < 6; ++trial) {
    const PackageConfig pkg = random_package(rng);
    if (pkg.num_chiplets() < 2) continue;
    int max_row = 0;
    for (const auto& c : pkg.chiplets()) {
      max_row = std::max(max_row, c.coord.row);
    }
    const int victim =
        pkg.chiplets()[static_cast<std::size_t>(
                           rng.range(0, pkg.num_chiplets() - 1))]
            .id;
    const ChipletSpec spec = pkg.chiplet(victim);
    const PackageConfig degraded = pkg.without_chiplet(victim);
    ASSERT_EQ(degraded.failed_sites().size(), 1u);

    const auto check_route = [&](const std::vector<NopLink>& route, int hops) {
      ASSERT_EQ(static_cast<int>(route.size()), hops);
      for (const NopLink& link : route) {
        if (link.kind != NopLink::Kind::kMesh || link.npu != spec.npu) continue;
        EXPECT_FALSE(link.to == spec.coord) << link.describe();
        EXPECT_FALSE(link.from == spec.coord) << link.describe();
      }
    };
    for (const auto& a : degraded.chiplets()) {
      for (const auto& b : degraded.chiplets()) {
        try {
          check_route(degraded.route_between(a.id, b.id),
                      degraded.hops_between(a.id, b.id));
        } catch (const std::runtime_error&) {
          EXPECT_THROW(degraded.hops_between(a.id, b.id), std::runtime_error)
              << a.id << "->" << b.id;
        }
      }
      try {
        check_route(degraded.route_from_io(a.id), degraded.hops_from_io(a.id));
      } catch (const std::runtime_error&) {
        EXPECT_THROW(degraded.hops_from_io(a.id), std::runtime_error)
            << "io->" << a.id;
      }
    }
  }
}

// Degraded routing against an independent oracle: a test-local BFS over the
// positions that still hold a chiplet, with no XY walk and no routing code.
// A same-NPU hop count and route length are the shortest-path distance, and
// both throw exactly when no path exists. An NPU-0 ingress is the port link
// plus the distance from the port's entry router, NPU 0's (max row / 2, 0)
// over the healthy package, and throws exactly when that distance does not
// exist (the entry router died or is cut off).
TEST_P(FuzzSeed, DegradedHopCountsAreShortestPaths) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 48611u + 23u);
  for (int trial = 0; trial < 12; ++trial) {
    PackageConfig pkg = random_package(rng);
    if (pkg.num_chiplets() < 2) continue;
    int max_row = 0;
    for (const auto& c : pkg.chiplets()) {
      max_row = std::max(max_row, c.coord.row);
    }
    const std::int64_t removals =
        rng.range(1, std::min(2, pkg.num_chiplets() - 1));
    for (std::int64_t r = 0; r < removals; ++r) {
      const auto victim =
          static_cast<std::size_t>(rng.range(0, pkg.num_chiplets() - 1));
      pkg = pkg.without_chiplet(pkg.chiplets()[victim].id);
    }

    // Hops from `from` to `to` over `npu`'s live positions; -1 when `from`
    // holds no chiplet or `to` is unreachable.
    const auto distance = [&pkg](int npu, const GridCoord& from,
                                 const GridCoord& to) {
      using Pos = std::pair<int, int>;
      std::set<Pos> live;
      for (const auto& c : pkg.chiplets()) {
        if (c.npu == npu) live.insert({c.coord.row, c.coord.col});
      }
      std::map<Pos, int> dist;
      std::deque<Pos> queue;
      if (live.count({from.row, from.col}) > 0) {
        dist[{from.row, from.col}] = 0;
        queue.push_back({from.row, from.col});
      }
      while (!queue.empty()) {
        const auto [row, col] = queue.front();
        queue.pop_front();
        for (const Pos& next : {Pos{row + 1, col}, Pos{row - 1, col},
                                Pos{row, col + 1}, Pos{row, col - 1}}) {
          if (live.count(next) == 0 || dist.count(next) > 0) continue;
          dist[next] = dist[{row, col}] + 1;
          queue.push_back(next);
        }
      }
      const auto it = dist.find({to.row, to.col});
      return it == dist.end() ? -1 : it->second;
    };

    for (const auto& a : pkg.chiplets()) {
      for (const auto& b : pkg.chiplets()) {
        if (a.npu != b.npu) continue;
        const int d = distance(a.npu, a.coord, b.coord);
        if (d < 0) {
          EXPECT_THROW(pkg.hops_between(a.id, b.id), std::runtime_error)
              << a.id << "->" << b.id;
          EXPECT_THROW(pkg.route_between(a.id, b.id), std::runtime_error)
              << a.id << "->" << b.id;
          continue;
        }
        EXPECT_EQ(pkg.hops_between(a.id, b.id), d) << a.id << "->" << b.id;
        EXPECT_EQ(static_cast<int>(pkg.route_between(a.id, b.id).size()), d)
            << a.id << "->" << b.id;
      }
      if (a.npu != 0) continue;
      const int d = distance(0, GridCoord{max_row / 2, 0}, a.coord);
      if (d < 0) {
        EXPECT_THROW(pkg.hops_from_io(a.id), std::runtime_error)
            << "io->" << a.id;
      } else {
        EXPECT_EQ(pkg.hops_from_io(a.id), 1 + d) << "io->" << a.id;
      }
    }
  }
}

// Random mid-stream faults on random chain pipelines: repeated runs are
// bitwise-identical, and every admitted frame either completes exactly once
// or is dropped at the flush (conservation) — the event loop itself throws
// std::logic_error if a frame ever completes twice.
TEST_P(FuzzSeed, FaultInjectionDeterministicAndConservative) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 77003u + 13u);
  for (int trial = 0; trial < 3; ++trial) {
    // >= 2x2 single-NPU meshes: removing any one chiplet keeps the mesh
    // connected, so the degraded program always builds.
    const int rows = static_cast<int>(rng.range(2, 3));
    const int cols = static_cast<int>(rng.range(2, 4));
    const PackageConfig pkg = make_simba_package(rows, cols);
    const GridCoord io_entry{(rows - 1) / 2, 0};

    PerceptionPipeline pipe;
    Model m;
    m.name = "fuzz_fault_chain";
    const int layers = static_cast<int>(rng.range(2, 5));
    for (int l = 0; l < layers; ++l) {
      m.layers.push_back(gemm("g" + std::to_string(l), rng.range(512, 8192),
                              rng.range(16, 128), rng.range(16, 128)));
    }
    pipe.stages.push_back(Stage{"S", {{m, false}}});
    Schedule sched(pipe, pkg);
    for (int i = 0; i < sched.num_items(); ++i) {
      sched.assign(i, static_cast<int>(rng.range(0, pkg.num_chiplets() - 1)));
    }

    int victim = -1;
    while (victim < 0) {
      const int cand =
          static_cast<int>(rng.range(0, pkg.num_chiplets() - 1));
      if (!(pkg.chiplet(cand).coord == io_entry)) victim = cand;
    }

    SimOptions opt;
    opt.frames = static_cast<int>(rng.range(6, 24));
    opt.frame_interval_s = rng.range(0, 1) == 0
                               ? 0.0
                               : static_cast<double>(rng.range(1, 50)) * 1e-5;
    opt.fault.chiplet_id = victim;
    opt.fault.fail_time_s = static_cast<double>(rng.range(0, 200)) * 1e-5;
    if (rng.range(0, 1) == 0) {
      opt.fault.recover_time_s =
          opt.fault.fail_time_s + static_cast<double>(rng.range(1, 100)) * 1e-5;
    }
    opt.fault.reschedule_penalty_s =
        static_cast<double>(rng.range(0, 20)) * 1e-5;
    if (rng.range(0, 1) == 0) {
      opt.deadline_s = static_cast<double>(rng.range(1, 80)) * 1e-5;
    }
    if (rng.range(0, 3) == 0) opt.nop_mode = NopMode::kContended;

    const SimResult a = simulate_schedule(sched, opt);
    const SimResult b = simulate_schedule(sched, opt);

    // Conservation.
    ASSERT_EQ(a.frames_completed + a.dropped_frames, opt.frames);
    int nan_count = 0;
    for (int f = 0; f < opt.frames; ++f) {
      const double comp = a.frame_completion_s[static_cast<std::size_t>(f)];
      if (std::isnan(comp)) {
        ++nan_count;
      } else {
        EXPECT_GE(comp, 0.0) << f;
      }
    }
    EXPECT_EQ(nan_count, a.dropped_frames);
    if (a.frames_completed > 0) {
      EXPECT_TRUE(std::isfinite(a.makespan_s));
      EXPECT_TRUE(std::isfinite(a.peak_latency_s));
    }
    // The dead chiplet does no work while down.
    if (opt.fault.recover_time_s < 0.0) {
      int dense = -1;
      for (std::size_t i = 0; i < pkg.chiplets().size(); ++i) {
        if (pkg.chiplets()[i].id == victim) dense = static_cast<int>(i);
      }
      EXPECT_LE(a.chiplet_busy_s[static_cast<std::size_t>(dense)],
                opt.fault.fail_time_s + 1e-12);
    }

    // Determinism (NaN-aware elementwise comparison).
    ASSERT_EQ(a.frame_completion_s.size(), b.frame_completion_s.size());
    for (std::size_t f = 0; f < a.frame_completion_s.size(); ++f) {
      const double x = a.frame_completion_s[f];
      const double y = b.frame_completion_s[f];
      ASSERT_EQ(std::isnan(x), std::isnan(y)) << f;
      if (!std::isnan(x)) {
        ASSERT_EQ(x, y) << f;
      }
    }
    ASSERT_EQ(a.tasks_executed, b.tasks_executed);
    ASSERT_TRUE(a.chiplet_busy_s == b.chiplet_busy_s);
  }
}

// Multi-tenant serving under fuzzed policies: whatever the policy, rates,
// NoP mode, or fault, (a) per-tenant frame conservation holds — completed
// + dropped == admitted for EVERY tenant — and (b) repeated runs are
// bitwise-identical.
TEST_P(FuzzSeed, MultiTenantServingConservesFramesUnderFuzzedPolicies) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 91009u + 23u);
  for (int trial = 0; trial < 3; ++trial) {
    const int rows = static_cast<int>(rng.range(2, 3));
    const int cols = static_cast<int>(rng.range(2, 4));
    const PackageConfig pkg = make_simba_package(rows, cols);
    const GridCoord io_entry{(rows - 1) / 2, 0};

    const int n_tenants = static_cast<int>(rng.range(2, 3));
    std::vector<PerceptionPipeline> pipes;
    for (int t = 0; t < n_tenants; ++t) {
      PerceptionPipeline pipe;
      Model m;
      m.name = "tenant_chain_" + std::to_string(t);
      const int layers = static_cast<int>(rng.range(2, 4));
      for (int l = 0; l < layers; ++l) {
        m.layers.push_back(gemm("t" + std::to_string(t) + "_g" +
                                    std::to_string(l),
                                rng.range(512, 8192), rng.range(16, 128),
                                rng.range(16, 128)));
      }
      pipe.stages.push_back(Stage{"S", {{m, false}}});
      pipes.push_back(std::move(pipe));
    }
    std::vector<TenantWorkload> fleet;
    for (int t = 0; t < n_tenants; ++t) {
      TenantWorkload w;
      w.name = "t" + std::to_string(t);
      w.pipeline = &pipes[static_cast<std::size_t>(t)];
      w.frames = static_cast<int>(rng.range(4, 12));
      w.frame_interval_s = rng.range(0, 1) == 0
                               ? 0.0
                               : static_cast<double>(rng.range(1, 50)) * 1e-5;
      if (rng.range(0, 1) == 0) {
        w.deadline_s = static_cast<double>(rng.range(1, 80)) * 1e-5;
      }
      w.priority = static_cast<int>(rng.range(0, 2));
      fleet.push_back(w);
    }

    ServingOptions opt;
    const std::int64_t pol = rng.range(0, 2);
    opt.policy = pol == 0   ? PlacementPolicy::kShared
                 : pol == 1 ? PlacementPolicy::kPartitioned
                            : PlacementPolicy::kPriority;
    if (rng.range(0, 3) == 0) opt.nop_mode = NopMode::kContended;
    if (rng.range(0, 1) == 0) {
      int victim = -1;
      while (victim < 0) {
        const int cand =
            static_cast<int>(rng.range(0, pkg.num_chiplets() - 1));
        if (!(pkg.chiplet(cand).coord == io_entry)) victim = cand;
      }
      opt.fault.chiplet_id = victim;
      opt.fault.fail_time_s = static_cast<double>(rng.range(0, 200)) * 1e-5;
      if (rng.range(0, 1) == 0) {
        opt.fault.recover_time_s =
            opt.fault.fail_time_s +
            static_cast<double>(rng.range(1, 100)) * 1e-5;
      }
      opt.fault.reschedule_penalty_s =
          static_cast<double>(rng.range(0, 20)) * 1e-5;
    }

    const SimResult a = serve_tenants(pkg, fleet, opt);
    const SimResult b = serve_tenants(pkg, fleet, opt);

    // (a) conservation, per tenant and in aggregate.
    ASSERT_EQ(a.tenants.size(), fleet.size());
    int total = 0;
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
      const TenantResult& tr = a.tenants[t];
      ASSERT_EQ(tr.frames_completed + tr.dropped_frames, tr.frames)
          << tr.name;
      int nan_count = 0;
      for (const double comp : tr.frame_completion_s) {
        if (std::isnan(comp)) ++nan_count;
      }
      ASSERT_EQ(nan_count, tr.dropped_frames) << tr.name;
      total += tr.frames;
    }
    ASSERT_EQ(a.frames_completed + a.dropped_frames, total);

    // (b) determinism (NaN-aware elementwise comparison).
    ASSERT_EQ(a.frame_completion_s.size(), b.frame_completion_s.size());
    for (std::size_t f = 0; f < a.frame_completion_s.size(); ++f) {
      const double x = a.frame_completion_s[f];
      const double y = b.frame_completion_s[f];
      ASSERT_EQ(std::isnan(x), std::isnan(y)) << f;
      if (!std::isnan(x)) {
        ASSERT_EQ(x, y) << f;
      }
    }
    ASSERT_EQ(a.tasks_executed, b.tasks_executed);
    ASSERT_TRUE(a.chiplet_busy_s == b.chiplet_busy_s);
  }
}

// Partitioned-policy isolation, fuzzed: with two tenants on disjoint
// static pools and analytical NoP pricing, tenant 0's completions are
// bitwise independent of tenant 1's load.
TEST_P(FuzzSeed, PartitionedTenantIsolationHoldsUnderFuzzedLoads) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 50021u + 19u);
  for (int trial = 0; trial < 3; ++trial) {
    const int rows = static_cast<int>(rng.range(1, 3));
    const int cols = static_cast<int>(rng.range(2, 4));
    const PackageConfig pkg = make_simba_package(rows, cols);
    // Two tenants over the quadrant pools must be a genuine partition.
    const auto pools = partition_tenant_pools(pkg, 2);
    ASSERT_EQ(pools.size(), 2u);
    for (const int id : pools[0]) {
      for (const int other : pools[1]) ASSERT_NE(id, other);
    }

    std::vector<PerceptionPipeline> pipes;
    for (int t = 0; t < 2; ++t) {
      PerceptionPipeline pipe;
      Model m;
      m.name = "iso_chain_" + std::to_string(t);
      const int layers = static_cast<int>(rng.range(2, 3));
      for (int l = 0; l < layers; ++l) {
        m.layers.push_back(gemm("i" + std::to_string(t) + "_g" +
                                    std::to_string(l),
                                rng.range(512, 4096), rng.range(16, 64),
                                rng.range(16, 64)));
      }
      pipe.stages.push_back(Stage{"S", {{m, false}}});
      pipes.push_back(std::move(pipe));
    }
    std::vector<TenantWorkload> fleet;
    for (int t = 0; t < 2; ++t) {
      TenantWorkload w;
      w.name = "t" + std::to_string(t);
      w.pipeline = &pipes[static_cast<std::size_t>(t)];
      w.frames = static_cast<int>(rng.range(4, 10));
      w.frame_interval_s = static_cast<double>(rng.range(1, 40)) * 1e-5;
      fleet.push_back(w);
    }
    ServingOptions opt;
    opt.policy = PlacementPolicy::kPartitioned;
    const SimResult base = serve_tenants(pkg, fleet, opt);

    // Perturb only tenant 1.
    fleet[1].frame_interval_s = rng.range(0, 1) == 0 ? 0.0 : 1e-6;
    fleet[1].frames = static_cast<int>(rng.range(10, 30));
    const SimResult loaded = serve_tenants(pkg, fleet, opt);

    ASSERT_TRUE(base.tenants[0].frame_completion_s ==
                loaded.tenants[0].frame_completion_s)
        << "trial " << trial;
    ASSERT_EQ(base.tenants[0].p99_latency_s, loaded.tenants[0].p99_latency_s);
  }
}

// Engine-reuse identity, fuzzed: a ServingPlan (one SimEngine fed every
// probe) must reproduce the one-shot serve_tenants BIT FOR BIT, on its
// first run and on every subsequent run of the same plan — across random
// geometry, tenant mixes, placement policies, contended fabrics, and
// mid-stream faults. This is the property that lets max_sustainable_load
// keep one warm engine per worker without perturbing a single result.
TEST_P(FuzzSeed, ReusedEngineBitwiseIdenticalToOneShot) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 77171u + 41u);
  for (int trial = 0; trial < 3; ++trial) {
    const int rows = static_cast<int>(rng.range(2, 3));
    const int cols = static_cast<int>(rng.range(2, 4));
    const PackageConfig pkg = make_simba_package(rows, cols);
    const GridCoord io_entry{(rows - 1) / 2, 0};

    const int n_tenants = static_cast<int>(rng.range(1, 3));
    std::vector<PerceptionPipeline> pipes;
    for (int t = 0; t < n_tenants; ++t) {
      PerceptionPipeline pipe;
      Model m;
      m.name = "eng_chain_" + std::to_string(t);
      const int layers = static_cast<int>(rng.range(2, 4));
      for (int l = 0; l < layers; ++l) {
        m.layers.push_back(gemm("e" + std::to_string(t) + "_g" +
                                    std::to_string(l),
                                rng.range(512, 8192), rng.range(16, 128),
                                rng.range(16, 128)));
      }
      pipe.stages.push_back(Stage{"S", {{m, false}}});
      pipes.push_back(std::move(pipe));
    }
    std::vector<TenantWorkload> fleet;
    for (int t = 0; t < n_tenants; ++t) {
      TenantWorkload w;
      w.name = "t" + std::to_string(t);
      w.pipeline = &pipes[static_cast<std::size_t>(t)];
      w.frames = static_cast<int>(rng.range(4, 12));
      w.frame_interval_s = rng.range(0, 1) == 0
                               ? 0.0
                               : static_cast<double>(rng.range(1, 50)) * 1e-5;
      if (rng.range(0, 1) == 0) {
        w.deadline_s = static_cast<double>(rng.range(1, 80)) * 1e-5;
      }
      w.priority = static_cast<int>(rng.range(0, 2));
      fleet.push_back(w);
    }

    ServingOptions opt;
    const std::int64_t pol = rng.range(0, 2);
    opt.policy = pol == 0   ? PlacementPolicy::kShared
                 : pol == 1 ? PlacementPolicy::kPartitioned
                            : PlacementPolicy::kPriority;
    if (rng.range(0, 2) == 0) opt.nop_mode = NopMode::kContended;
    if (rng.range(0, 1) == 0) {
      int victim = -1;
      while (victim < 0) {
        const int cand =
            static_cast<int>(rng.range(0, pkg.num_chiplets() - 1));
        if (!(pkg.chiplet(cand).coord == io_entry)) victim = cand;
      }
      opt.fault.chiplet_id = victim;
      opt.fault.fail_time_s = static_cast<double>(rng.range(0, 200)) * 1e-5;
      if (rng.range(0, 1) == 0) {
        opt.fault.recover_time_s =
            opt.fault.fail_time_s +
            static_cast<double>(rng.range(1, 100)) * 1e-5;
      }
      opt.fault.reschedule_penalty_s =
          static_cast<double>(rng.range(0, 20)) * 1e-5;
    }

    SCOPED_TRACE("trial " + std::to_string(trial));
    const SimResult fresh = serve_tenants(pkg, fleet, opt);
    testutil::expect_links_strictly_increasing(fresh);
    ServingPlan plan(pkg, fleet, opt);
    const SimResult warm1 = plan.run();
    SimResult warm2;
    plan.run_into(warm2);
    testutil::expect_sim_results_bits_eq(fresh, warm1);
    testutil::expect_sim_results_bits_eq(fresh, warm2);
    if (::testing::Test::HasFailure()) return;
  }
}

// Open-loop conservation, fuzzed: random fleets x arrival processes x shed
// policies. For EVERY tenant, admitted frames == completed + dropped +
// shed; exactly the non-completed frames carry NaN completions; tenants
// with an active process report NaN steady intervals; and a warm
// ServingPlan reproduces one-shot serve_tenants bit for bit even with
// arrival generation and load shedding in the loop.
TEST_P(FuzzSeed, OpenLoopConservationAndWarmEngineIdentity) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 88651u + 31u);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(trial));
    const int rows = static_cast<int>(rng.range(2, 3));
    const int cols = static_cast<int>(rng.range(2, 4));
    const PackageConfig pkg = make_simba_package(rows, cols);

    const int n_tenants = static_cast<int>(rng.range(1, 3));
    std::vector<PerceptionPipeline> pipes;
    for (int t = 0; t < n_tenants; ++t) {
      PerceptionPipeline pipe;
      Model m;
      m.name = "ol_chain_" + std::to_string(t);
      const int layers = static_cast<int>(rng.range(2, 4));
      for (int l = 0; l < layers; ++l) {
        m.layers.push_back(gemm("o" + std::to_string(t) + "_g" +
                                    std::to_string(l),
                                rng.range(512, 8192), rng.range(16, 128),
                                rng.range(16, 128)));
      }
      pipe.stages.push_back(Stage{"S", {{m, false}}});
      pipes.push_back(std::move(pipe));
    }
    std::vector<TenantWorkload> fleet;
    for (int t = 0; t < n_tenants; ++t) {
      TenantWorkload w;
      w.name = "t" + std::to_string(t);
      w.pipeline = &pipes[static_cast<std::size_t>(t)];
      w.frames = static_cast<int>(rng.range(4, 12));
      w.frame_interval_s = static_cast<double>(rng.range(1, 50)) * 1e-5;
      // Tenant 0 always runs open-loop so the property is never vacuous;
      // later tenants may stay closed-loop (the mixed regime is legal).
      const std::int64_t kind = t == 0 ? rng.range(1, 3) : rng.range(0, 3);
      if (kind == 1) {
        w.arrivals.kind = ArrivalKind::kPeriodic;
      } else if (kind == 2) {
        w.arrivals.kind = ArrivalKind::kPoisson;
      } else if (kind == 3) {
        w.arrivals.kind = ArrivalKind::kBursty;
        w.arrivals.on_mean_s = static_cast<double>(rng.range(1, 20)) * 1e-4;
        w.arrivals.off_mean_s = static_cast<double>(rng.range(1, 20)) * 1e-4;
      }
      if (kind != 0) {
        // 1e3..1e5 fps straddles the fleet's service rate: some trials
        // underload, some overload hard enough to shed.
        w.arrivals.rate_fps = static_cast<double>(rng.range(1, 100)) * 1e3;
        w.arrivals.seed = static_cast<std::uint64_t>(rng.range(1, 1000));
      }
      if (rng.range(0, 1) == 0) {
        w.deadline_s = static_cast<double>(rng.range(1, 80)) * 1e-5;
      }
      const std::int64_t shed = rng.range(0, 3);
      if (shed > 0) {
        w.admission.queue_capacity = static_cast<int>(rng.range(1, 6));
        w.admission.policy = shed == 1   ? ShedPolicy::kRejectNew
                             : shed == 2 ? ShedPolicy::kDropOldest
                                         : ShedPolicy::kDropNewest;
      }
      if (w.deadline_s > 0.0 && rng.range(0, 1) == 0) {
        w.admission.shed_expired = true;
      }
      w.priority = static_cast<int>(rng.range(0, 2));
      fleet.push_back(w);
    }

    ServingOptions opt;
    const std::int64_t pol = rng.range(0, 2);
    opt.policy = pol == 0   ? PlacementPolicy::kShared
                 : pol == 1 ? PlacementPolicy::kPartitioned
                            : PlacementPolicy::kPriority;
    if (rng.range(0, 3) == 0) opt.nop_mode = NopMode::kContended;

    const SimResult a = serve_tenants(pkg, fleet, opt);

    // (a) conservation with shedding in the ledger, per tenant.
    ASSERT_EQ(a.tenants.size(), fleet.size());
    int total_shed = 0;
    for (std::size_t t = 0; t < a.tenants.size(); ++t) {
      const TenantResult& tr = a.tenants[t];
      ASSERT_EQ(tr.frames_completed + tr.dropped_frames + tr.shed_frames,
                tr.frames)
          << tr.name;
      EXPECT_GE(tr.shed_frames, 0) << tr.name;
      int nan_count = 0;
      for (const double comp : tr.frame_completion_s) {
        if (std::isnan(comp)) ++nan_count;
      }
      ASSERT_EQ(nan_count, tr.dropped_frames + tr.shed_frames) << tr.name;
      if (fleet[t].arrivals.active()) {
        EXPECT_TRUE(std::isnan(tr.steady_interval_s)) << tr.name;
      }
      total_shed += tr.shed_frames;
    }
    ASSERT_EQ(a.shed_frames, total_shed);

    // (b) warm-engine identity with arrivals + shedding active.
    ServingPlan plan(pkg, fleet, opt);
    const SimResult warm1 = plan.run();
    SimResult warm2;
    plan.run_into(warm2);
    testutil::expect_sim_results_bits_eq(a, warm1);
    testutil::expect_sim_results_bits_eq(a, warm2);
    if (::testing::Test::HasFailure()) return;
  }
}

// Capacity-aware placement under fuzzed finite memory: whenever a pool
// placement / remap / tenant placement is ACCEPTED (does not throw), no
// chiplet's resident footprint exceeds its capacity (remap excepted — its
// documented fallback prefers a degraded placement over refusing); the
// capacity-respecting remap is deterministic and conserves moved weights;
// and a fleet served with a fault on the capped package still conserves
// every tenant's frames.
TEST_P(FuzzSeed, CapacityAwarePlacementRespectsResidency) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 60493u + 37u);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(trial));
    const int rows = static_cast<int>(rng.range(2, 3));
    const int cols = static_cast<int>(rng.range(2, 4));
    PackageConfig pkg = make_simba_package(rows, cols);
    const GridCoord io_entry{(rows - 1) / 2, 0};

    // Random chain fleet; remember the largest single-chain weight so the
    // random capacities are tight but not always infeasible.
    const int n_models = static_cast<int>(rng.range(2, 5));
    PerceptionPipeline pipe;
    pipe.stages.push_back(Stage{"S", {}});
    double max_chain_weight = 0.0;
    for (int t = 0; t < n_models; ++t) {
      Model m;
      m.name = "cap_chain_" + std::to_string(t);
      const int layers = static_cast<int>(rng.range(1, 3));
      double chain_w = 0.0;
      for (int l = 0; l < layers; ++l) {
        m.layers.push_back(gemm("c" + std::to_string(t) + "_g" +
                                    std::to_string(l),
                                rng.range(512, 4096), rng.range(16, 128),
                                rng.range(16, 128)));
        chain_w += layer_weight_bytes(m.layers.back());
      }
      max_chain_weight = std::max(max_chain_weight, chain_w);
      pipe.stages[0].models.push_back({m, false});
    }
    for (const ChipletSpec& c : pkg.chiplets()) {
      MemorySpec mem;
      // 1x..4x the heaviest chain, per chiplet: some placements spill,
      // some trials are infeasible and must throw instead of overflowing.
      mem.weight_capacity_bytes =
          max_chain_weight * static_cast<double>(rng.range(10, 40)) / 10.0;
      mem.reload_bandwidth_bytes_per_s =
          static_cast<double>(rng.range(1, 100)) * 1e8;
      pkg.set_chiplet_memory(c.id, mem);
    }

    // (a) accepted pool placements never exceed capacity.
    bool placed = false;
    Schedule sched(pipe, pkg);
    try {
      sched = build_chainwise_schedule(pipe, pkg);
      placed = true;
    } catch (const std::invalid_argument&) {
      // Infeasible capacity draw: rejecting is the correct behavior.
    }
    if (!placed) continue;
    EXPECT_FALSE(compute_residency(sched).overflow);

    // (b) capacity-respecting remap: deterministic, conserves weights.
    int victim = -1;
    while (victim < 0) {
      const int cand = static_cast<int>(rng.range(0, pkg.num_chiplets() - 1));
      if (!(pkg.chiplet(cand).coord == io_entry)) victim = cand;
    }
    const PackageConfig degraded = pkg.without_chiplet(victim);
    RemapStats s1;
    RemapStats s2;
    const Schedule r1 = remap_schedule(sched, degraded, victim, &s1);
    const Schedule r2 = remap_schedule(sched, degraded, victim, &s2);
    ASSERT_EQ(r1.describe(), r2.describe());
    ASSERT_EQ(s1.moved_shards, s2.moved_shards);
    ASSERT_EQ(testutil::dbits(s1.weights_moved_bytes), testutil::dbits(s2.weights_moved_bytes));
    double reload_sum = 0.0;
    for (const ReloadTransfer& t : s1.reloads) {
      EXPECT_NE(t.chiplet_id, victim);
      EXPECT_GT(t.bytes, 0.0);
      reload_sum += t.bytes;
    }
    EXPECT_NEAR(reload_sum, s1.weights_moved_bytes,
                s1.weights_moved_bytes * 1e-12 + 1e-9);

    // (c) serving a fleet on the capped package with a mid-stream fault
    // conserves frames, and repeated runs agree bitwise.
    std::vector<TenantWorkload> fleet(1);
    fleet[0].name = "cap_t0";
    fleet[0].pipeline = &pipe;
    fleet[0].frames = static_cast<int>(rng.range(4, 12));
    fleet[0].frame_interval_s = static_cast<double>(rng.range(1, 50)) * 1e-5;
    ServingOptions opt;
    if (rng.range(0, 2) == 0) opt.nop_mode = NopMode::kContended;
    opt.fault.chiplet_id = victim;
    opt.fault.fail_time_s = static_cast<double>(rng.range(0, 200)) * 1e-5;
    if (rng.range(0, 1) == 0) {
      opt.fault.recover_time_s =
          opt.fault.fail_time_s + static_cast<double>(rng.range(1, 100)) * 1e-5;
    }
    try {
      const SimResult a = serve_tenants(pkg, fleet, opt);
      const SimResult b = serve_tenants(pkg, fleet, opt);
      ASSERT_EQ(a.frames_completed + a.dropped_frames + a.shed_frames,
                fleet[0].frames);
      ASSERT_EQ(testutil::dbits(a.reload_bytes), testutil::dbits(b.reload_bytes));
      ASSERT_EQ(testutil::dbits(a.reload_time_s), testutil::dbits(b.reload_time_s));
      ASSERT_TRUE(a.chiplet_busy_s == b.chiplet_busy_s);
    } catch (const std::invalid_argument&) {
      // The combined-residency check may reject the capped fleet; that is
      // the documented contract, not a property violation.
    }
  }
}

// The static verifier (src/analysis/validate.h) must agree with the
// engine's own checks in BOTH directions, over arbitrary configurations
// (random NoP parameters and tenant lists included):
//  * any config validate() accepts (no enforced finding) must run through
//    SimEngine::run without throwing — the linter never green-lights a
//    config the engine rejects;
//  * any config with an enforced finding must make the engine throw the
//    exact exception type the first such finding maps to — the linter
//    never cries wolf, and its precedence order matches the engine's.
// SimEngine::run is the layer BELOW the validate_or_throw wrapper, so this
// pins validator-vs-engine agreement, not the validator against itself.
TEST_P(FuzzSeed, ValidatorAgreesWithEngineAcceptance) {
  using analysis::ThrowKind;
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 88811u + 5u);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " trial " +
                 std::to_string(trial));
    // Small random package, sometimes degraded (possibly disconnected or
    // with its I/O router gone — the validator must track all of it).
    const int rows = static_cast<int>(rng.range(1, 2));
    const int cols = static_cast<int>(rng.range(1, 4));
    PackageConfig pkg = make_simba_package(rows, cols);
    if (pkg.num_chiplets() > 1 && rng.range(0, 2) == 0) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.range(0, pkg.num_chiplets() - 1));
      pkg = pkg.without_chiplet(pkg.chiplets()[victim].id);
    }

    // 1-2 models x 1-2 layers; mostly-valid random placements with seeded
    // dangling ids and unassigned holes.
    PerceptionPipeline pipe;
    pipe.name = "fuzz";
    Stage stage;
    stage.name = "s0";
    const int models = static_cast<int>(rng.range(1, 2));
    for (int m = 0; m < models; ++m) {
      StageModel sm;
      sm.model.name = "m" + std::to_string(m);
      const int layers = static_cast<int>(rng.range(1, 2));
      for (int l = 0; l < layers; ++l) {
        sm.model.layers.push_back(conv2d("c" + std::to_string(l), 3, 8, 8, 8,
                                         3));
      }
      stage.models.push_back(std::move(sm));
    }
    pipe.stages.push_back(std::move(stage));
    Schedule sched(pipe, pkg);
    for (int i = 0; i < sched.num_items(); ++i) {
      const std::int64_t roll = rng.range(0, 9);
      if (roll == 0) continue;  // unassigned (S002)
      if (roll == 1) {
        sched.assign(i, 99);  // dangling (S003)
        continue;
      }
      const std::size_t pick =
          static_cast<std::size_t>(rng.range(0, pkg.num_chiplets() - 1));
      sched.assign(i, pkg.chiplets()[pick].id);
    }

    SimOptions opt;
    opt.frames = 2;
    if (rng.range(0, 3) == 0) opt.nop_mode = NopMode::kOff;
    if (rng.range(0, 1) == 0) {  // random fault plan, sometimes nonsense
      const std::int64_t kind = rng.range(0, 3);
      opt.fault.chiplet_id =
          kind == 0 ? 99
                    : pkg.chiplets()[static_cast<std::size_t>(rng.range(
                                         0, pkg.num_chiplets() - 1))]
                          .id;
      opt.fault.fail_time_s = kind == 1 ? -0.5 : 1e-4;
      if (kind == 2) opt.fault.recover_time_s = 1e-5;  // before the failure
    }
    if (rng.range(0, 2) == 0) {  // random arrivals, sometimes invalid
      opt.arrivals.kind =
          rng.range(0, 1) == 0 ? ArrivalKind::kPeriodic : ArrivalKind::kTrace;
      opt.arrivals.rate_fps = rng.range(0, 1) == 0 ? 0.0 : 100.0;
      if (rng.range(0, 1) == 0) opt.arrivals.trace_s = {0.0, 1e-3};
    }
    if (rng.range(0, 2) == 0) {  // random admission, sometimes capacity-less
      opt.admission.policy = ShedPolicy::kDropOldest;
      opt.admission.queue_capacity = static_cast<int>(rng.range(0, 2));
    }
    if (rng.range(0, 3) == 0) opt.deadline_s = 1e-12;  // infeasible: lint-only

    // Random NoP parameters, sometimes ones the engine cannot run (R003);
    // infinite bandwidth is valid.
    if (rng.range(0, 1) == 0) {
      NopParams nop = pkg.nop();
      const std::int64_t kind = rng.range(0, 4);
      if (kind == 0) nop.bandwidth_bytes_per_s = -1e9;
      if (kind == 1) nop.bandwidth_bytes_per_s = 0.0;
      if (kind == 2) nop.hop_latency_s = -1e-3;
      if (kind == 3) nop.hop_latency_s = std::nan("");
      if (kind == 4) {
        nop.bandwidth_bytes_per_s = std::numeric_limits<double>::infinity();
      }
      pkg.set_nop(nop);
    }
    // Random tenant lists: a tenant on a second package (T003), one with
    // an empty pipeline (S001), capacity-less shedding on one (A002).
    const PackageConfig other_pkg = make_simba_package(1, 1);
    Schedule foreign(pipe, other_pkg);
    for (int i = 0; i < foreign.num_items(); ++i) {
      foreign.assign(i, other_pkg.chiplets()[0].id);
    }
    const PerceptionPipeline no_layers;
    const Schedule empty(no_layers, pkg);
    if (rng.range(0, 2) == 0) {
      const int tenants = static_cast<int>(rng.range(1, 3));
      for (int t = 0; t < tenants; ++t) {
        TenantStream ts;
        ts.name = "t" + std::to_string(t);
        ts.frames = 2;
        const std::int64_t kind = rng.range(0, 5);
        if (kind == 0) ts.schedule = &foreign;
        if (kind == 1) ts.schedule = &empty;
        if (kind == 2) ts.admission.policy = ShedPolicy::kRejectNew;
        opt.tenants.push_back(std::move(ts));
      }
    }

    const analysis::Diagnostics diags = analysis::validate(sched, opt);
    const analysis::Diagnostic* expected = nullptr;
    for (const auto& d : diags.items()) {
      if (d.enforced) {
        expected = &d;
        break;
      }
    }

    SimEngine engine;
    ThrowKind caught = ThrowKind::kNone;
    try {
      (void)engine.run(sched, opt);
    } catch (const std::invalid_argument&) {
      caught = ThrowKind::kInvalidArgument;
    } catch (const std::out_of_range&) {
      caught = ThrowKind::kOutOfRange;
    } catch (const std::logic_error&) {
      caught = ThrowKind::kLogicError;
    } catch (const std::overflow_error&) {
      caught = ThrowKind::kOverflowError;
    } catch (const std::runtime_error&) {
      caught = ThrowKind::kRuntimeError;
    }

    if (expected == nullptr) {
      ASSERT_EQ(caught, ThrowKind::kNone)
          << "validator accepted a config the engine rejects";
    } else {
      ASSERT_EQ(static_cast<int>(caught),
                static_cast<int>(expected->rule->throws_as))
          << "engine exception disagrees with enforced rule "
          << expected->rule->id << " (" << expected->message << ")";
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Static-bound soundness, fuzzed (src/analysis/bounds.h): over random
// geometry, chains, shardings, NoP modes, and tenant fleets — fault-free,
// because a fault-remapped schedule executes a different placement that the
// bound's contract explicitly excludes:
//  (a) the critical-path latency bound never exceeds ANY simulated frame's
//      admission-to-completion latency, single-stream or multi-tenant;
//  (b) contended fault-free: each priced link's bytes_per_frame times the
//      frame count equals LinkStats::busy_s x bandwidth — the bound's
//      injection accounting mirrors the simulator's message-for-message —
//      and is therefore capped by capacity x makespan (the demand-vs-
//      capacity bound is about REAL traffic, not a model of its own).
TEST_P(FuzzSeed, BoundSoundness) {
  constexpr double kRelEps = 1e-9;
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 69763u + 43u);

  const auto min_finite = [](const std::vector<double>& v) {
    double best = std::numeric_limits<double>::infinity();
    for (const double x : v) {
      if (std::isfinite(x)) best = std::min(best, x);
    }
    return best;
  };

  // Single-stream schedules: random chains, random (possibly sharded)
  // placements, both NoP modes, NoP delays sometimes off entirely.
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE("schedule trial " + std::to_string(trial));
    const PackageConfig pkg = random_package(rng);

    PerceptionPipeline pipe;
    Model m;
    m.name = "bound_chain";
    const int layers = static_cast<int>(rng.range(2, 5));
    for (int l = 0; l < layers; ++l) {
      m.layers.push_back(gemm("b" + std::to_string(l), rng.range(256, 8192),
                              rng.range(16, 256), rng.range(16, 256)));
    }
    pipe.stages.push_back(Stage{"S", {{m, false}}});
    Schedule sched(pipe, pkg);
    for (int i = 0; i < sched.num_items(); ++i) {
      const int n = static_cast<int>(
          rng.range(1, std::min<std::int64_t>(3, pkg.num_chiplets())));
      std::vector<int> chosen;
      while (static_cast<int>(chosen.size()) < n) {
        const int c = static_cast<int>(rng.range(0, pkg.num_chiplets() - 1));
        const int id = pkg.chiplets()[static_cast<std::size_t>(c)].id;
        bool dup = false;
        for (const int existing : chosen) dup = dup || existing == id;
        if (!dup) chosen.push_back(id);
      }
      sched.assign_sharded(i, chosen);
    }

    SimOptions opt;
    opt.frames = static_cast<int>(rng.range(4, 16));
    opt.frame_interval_s = rng.range(0, 1) == 0
                               ? 0.0
                               : static_cast<double>(rng.range(1, 50)) * 1e-5;
    if (rng.range(0, 2) == 0) opt.nop_mode = NopMode::kContended;
    if (rng.range(0, 2) == 0) opt.nop_mode = NopMode::kOff;

    const analysis::BoundsReport bounds = analysis::compute_bounds(sched, opt);
    ASSERT_EQ(bounds.streams.size(), 1u);
    const SimResult sim = simulate_schedule(sched, opt);

    // (a) lower bound on every frame, so in particular on the fastest.
    const double floor = min_finite(sim.frame_latency_s);
    ASSERT_TRUE(std::isfinite(floor));
    EXPECT_LE(bounds.streams[0].latency_bound_s, floor * (1.0 + kRelEps));

    // (b) injection mirror: busy_s x bandwidth is the bytes the link
    // actually serialized over the run.
    if (opt.nop_mode == NopMode::kContended) {
      ASSERT_FALSE(bounds.links.empty());
      for (const analysis::LinkBound& lb : bounds.links) {
        const LinkStats* match = nullptr;
        for (const LinkStats& ls : sim.link_stats) {
          if (ls.link == lb.link) match = &ls;
        }
        ASSERT_NE(match, nullptr) << lb.link.describe();
        const double lifetime_bytes =
            lb.bytes_per_frame * static_cast<double>(opt.frames);
        EXPECT_NEAR(lifetime_bytes, match->busy_s * lb.capacity_bytes_per_s,
                    lifetime_bytes * 1e-9 + 1e-6)
            << lb.link.describe();
        EXPECT_LE(lifetime_bytes,
                  lb.capacity_bytes_per_s * sim.makespan_s * (1.0 + kRelEps))
            << lb.link.describe();
      }
    }
    if (::testing::Test::HasFailure()) return;
  }

  // Multi-tenant fleets: the serving-shape bound must undercut every
  // tenant's own fastest frame under shared/partitioned/priority placement
  // and cross-tenant contention.
  for (int trial = 0; trial < 2; ++trial) {
    SCOPED_TRACE("fleet trial " + std::to_string(trial));
    const int rows = static_cast<int>(rng.range(2, 3));
    const int cols = static_cast<int>(rng.range(2, 4));
    const PackageConfig pkg = make_simba_package(rows, cols);

    const int n_tenants = static_cast<int>(rng.range(2, 3));
    std::vector<PerceptionPipeline> pipes;
    for (int t = 0; t < n_tenants; ++t) {
      PerceptionPipeline pipe;
      Model m;
      m.name = "bound_tenant_" + std::to_string(t);
      const int layers = static_cast<int>(rng.range(2, 4));
      for (int l = 0; l < layers; ++l) {
        m.layers.push_back(gemm("bt" + std::to_string(t) + "_g" +
                                    std::to_string(l),
                                rng.range(512, 8192), rng.range(16, 128),
                                rng.range(16, 128)));
      }
      pipe.stages.push_back(Stage{"S", {{m, false}}});
      pipes.push_back(std::move(pipe));
    }
    std::vector<TenantWorkload> fleet;
    for (int t = 0; t < n_tenants; ++t) {
      TenantWorkload w;
      w.name = "t" + std::to_string(t);
      w.pipeline = &pipes[static_cast<std::size_t>(t)];
      w.frames = static_cast<int>(rng.range(4, 12));
      w.frame_interval_s = rng.range(0, 1) == 0
                               ? 0.0
                               : static_cast<double>(rng.range(1, 50)) * 1e-5;
      if (rng.range(0, 1) == 0) {
        w.deadline_s = static_cast<double>(rng.range(1, 80)) * 1e-5;
      }
      w.priority = static_cast<int>(rng.range(0, 2));
      fleet.push_back(w);
    }

    ServingOptions opt;
    const std::int64_t pol = rng.range(0, 2);
    opt.policy = pol == 0   ? PlacementPolicy::kShared
                 : pol == 1 ? PlacementPolicy::kPartitioned
                            : PlacementPolicy::kPriority;
    if (rng.range(0, 2) == 0) opt.nop_mode = NopMode::kContended;

    const analysis::BoundsReport bounds =
        analysis::compute_bounds(pkg, fleet, opt);
    const SimResult sim = serve_tenants(pkg, fleet, opt);
    ASSERT_EQ(bounds.streams.size(), fleet.size());
    ASSERT_EQ(sim.tenants.size(), fleet.size());
    for (std::size_t t = 0; t < fleet.size(); ++t) {
      SCOPED_TRACE(fleet[t].name);
      ASSERT_EQ(bounds.streams[t].name, fleet[t].name);
      const double floor = min_finite(sim.tenants[t].frame_latency_s);
      ASSERT_TRUE(std::isfinite(floor));
      EXPECT_LE(bounds.streams[t].latency_bound_s, floor * (1.0 + kRelEps));
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// Bitwise equality of two doubles, sign of zero and NaN payload included.
void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_metrics_bitwise(const ScheduleMetrics& got,
                            const ScheduleMetrics& want) {
  ASSERT_EQ(got.chiplets.size(), want.chiplets.size());
  for (std::size_t c = 0; c < want.chiplets.size(); ++c) {
    const ChipletUsage& g = got.chiplets[c];
    const ChipletUsage& w = want.chiplets[c];
    const std::string at = "chiplet " + std::to_string(w.chiplet_id);
    EXPECT_EQ(g.chiplet_id, w.chiplet_id) << at;
    expect_same_bits(g.busy_s, w.busy_s, at + " busy_s");
    expect_same_bits(g.macs, w.macs, at + " macs");
    expect_same_bits(g.energy_j, w.energy_j, at + " energy_j");
    ASSERT_EQ(g.stage_busy_s.size(), w.stage_busy_s.size()) << at;
    for (std::size_t st = 0; st < w.stage_busy_s.size(); ++st) {
      expect_same_bits(g.stage_busy_s[st], w.stage_busy_s[st],
                       at + " stage_busy_s[" + std::to_string(st) + "]");
    }
  }
  ASSERT_EQ(got.stages.size(), want.stages.size());
  for (std::size_t st = 0; st < want.stages.size(); ++st) {
    const StageMetrics& g = got.stages[st];
    const StageMetrics& w = want.stages[st];
    const std::string at = "stage " + w.name;
    EXPECT_EQ(g.name, w.name);
    expect_same_bits(g.e2e_s, w.e2e_s, at + " e2e_s");
    expect_same_bits(g.pipe_s, w.pipe_s, at + " pipe_s");
    expect_same_bits(g.compute_energy_j, w.compute_energy_j,
                     at + " compute_energy_j");
    expect_same_bits(g.nop.latency_s, w.nop.latency_s, at + " nop.latency_s");
    expect_same_bits(g.nop.energy_j, w.nop.energy_j, at + " nop.energy_j");
    EXPECT_EQ(g.chiplets_used, w.chiplets_used) << at;
  }
  expect_same_bits(got.e2e_s, want.e2e_s, "e2e_s");
  expect_same_bits(got.pipe_s, want.pipe_s, "pipe_s");
  expect_same_bits(got.compute_energy_j, want.compute_energy_j,
                   "compute_energy_j");
  expect_same_bits(got.nop.latency_s, want.nop.latency_s, "nop.latency_s");
  expect_same_bits(got.nop.energy_j, want.nop.energy_j, "nop.energy_j");
  expect_same_bits(got.total_macs, want.total_macs, "total_macs");
  expect_same_bits(got.utilization, want.utilization, "utilization");
}

// Oracle for Algorithm 1's incremental evaluation. A ShardCostTable that
// re-prices only the items a random re-shard or chain split touched must
// aggregate to exactly what a fresh evaluate_schedule computes, after every
// step: on healthy and degraded packages, over random-layer chains in
// parallel-model stages behind an optional stage prefix model.
TEST_P(FuzzSeed, IncrementalPricingMatchesFreshEvaluation) {
  Lcg rng(static_cast<std::uint64_t>(GetParam()) * 40503u + 19u);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    PackageConfig pkg = random_package(rng);
    const auto random_chiplet = [&] {
      const auto pos = rng.range(0, pkg.num_chiplets() - 1);
      return pkg.chiplets()[static_cast<std::size_t>(pos)].id;
    };
    if (pkg.num_chiplets() > 2 && rng.range(0, 1) == 0) {
      const int victim = random_chiplet();
      if (!pkg.io_port_attached_to(victim)) pkg = pkg.without_chiplet(victim);
    }

    int tag = 0;
    const auto random_model = [&](const std::string& name) {
      Model m;
      m.name = name;
      const int layers = static_cast<int>(rng.range(1, 4));
      for (int l = 0; l < layers; ++l) {
        m.layers.push_back(random_layer(rng, tag++));
      }
      return m;
    };
    PerceptionPipeline pipe;
    Stage front{"S0", {}};
    const int front_models = static_cast<int>(rng.range(1, 3));
    for (int k = 0; k < front_models; ++k) {
      front.models.push_back({random_model("front" + std::to_string(k)), false});
    }
    Stage fused{"S1", {}};
    if (rng.range(0, 1) == 0) {
      fused.models.push_back({random_model("prefix"), true});
    }
    const int fused_models = static_cast<int>(rng.range(1, 2));
    for (int k = 0; k < fused_models; ++k) {
      fused.models.push_back({random_model("fused" + std::to_string(k)), false});
    }
    pipe.stages = {front, fused};

    Schedule sched(pipe, pkg);
    for (int i = 0; i < sched.num_items(); ++i) {
      sched.assign(i, random_chiplet());
    }

    // A disconnected degraded package makes both evaluations throw alike.
    ScheduleMetrics fresh;
    try {
      fresh = evaluate_schedule(sched);
    } catch (const std::runtime_error&) {
      ShardCostTable costs(sched);
      EXPECT_THROW(aggregate_schedule(costs), std::runtime_error);
      continue;
    }
    ShardCostTable costs(sched);
    expect_metrics_bitwise(aggregate_schedule(costs), fresh);

    for (int step = 0; step < 12; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const int item = static_cast<int>(rng.range(0, sched.num_items() - 1));
      const Schedule::Item& it = sched.item(item);
      if (rng.range(0, 3) == 0) {
        // A pipeline split: the chain suffix moves to one chiplet.
        const std::vector<int>& chain =
            sched.items_of_model(it.stage, it.model);
        const auto cut = static_cast<std::size_t>(
            split_model_chain(sched, it.stage, it.model, random_chiplet()));
        for (std::size_t i = cut; i < chain.size(); ++i) {
          costs.reprice(chain[i]);
        }
      } else {
        // A re-shard: 1-3 weighted shards, repeats allowed.
        std::vector<ShardAssignment> shards;
        const int n = static_cast<int>(rng.range(1, 3));
        for (int k = 0; k < n; ++k) {
          shards.push_back(ShardAssignment{
              random_chiplet(), static_cast<double>(rng.range(1, 8))});
        }
        sched.assign_weighted(item, std::move(shards));
        costs.reprice(item);
      }
      try {
        fresh = evaluate_schedule(sched);
      } catch (const std::runtime_error&) {
        EXPECT_THROW(aggregate_schedule(costs), std::runtime_error);
        break;
      }
      expect_metrics_bitwise(aggregate_schedule(costs), fresh);
      EXPECT_EQ(costs.free_chiplets(), sched.free_chiplets());
      for (int i = 0; i < sched.num_items(); ++i) {
        expect_same_bits(costs.item_latency_s(i), item_latency_s(sched, i),
                         "item " + std::to_string(i) + " latency");
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed, ::testing::Range(1, 9));

}  // namespace
}  // namespace cnpu
