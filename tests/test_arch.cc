#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/chiplet.h"
#include "arch/nop.h"
#include "arch/package.h"

namespace cnpu {
namespace {

TEST(MeshHops, ManhattanDistance) {
  EXPECT_EQ(mesh_hops({0, 0}, {0, 0}), 0);
  EXPECT_EQ(mesh_hops({0, 0}, {2, 3}), 5);
  EXPECT_EQ(mesh_hops({5, 1}, {1, 5}), 8);
}

TEST(MeshHops, Symmetric) {
  const GridCoord a{1, 4};
  const GridCoord b{3, 0};
  EXPECT_EQ(mesh_hops(a, b), mesh_hops(b, a));
}

TEST(NopTransfer, PaperFormula) {
  const NopParams p;
  // 1 MB over 2 hops: 2*(1e6/100e9) + 2*35ns = 20us + 70ns.
  const NopCost c = nop_transfer(p, 1e6, 2);
  EXPECT_NEAR(c.latency_s, 2e-5 + 7e-8, 1e-12);
  // Energy: 1e6 B * 8 b/B * 2.04 pJ/b * 2 hops.
  EXPECT_NEAR(c.energy_j, 1e6 * 8 * 2.04e-12 * 2, 1e-15);
}

TEST(NopTransfer, ZeroHopsIsFree) {
  const NopCost c = nop_transfer(NopParams{}, 1e9, 0);
  EXPECT_DOUBLE_EQ(c.latency_s, 0.0);
  EXPECT_DOUBLE_EQ(c.energy_j, 0.0);
}

TEST(NopTransfer, ScalesLinearlyInHopsAndBytes) {
  const NopParams p;
  const NopCost one = nop_transfer(p, 5e5, 1);
  const NopCost two = nop_transfer(p, 5e5, 2);
  const NopCost big = nop_transfer(p, 1e6, 1);
  EXPECT_NEAR(two.latency_s, 2 * one.latency_s, 1e-15);
  EXPECT_NEAR(two.energy_j, 2 * one.energy_j, 1e-18);
  EXPECT_GT(big.latency_s, one.latency_s);
}

TEST(SimbaPackage, DefaultGeometry) {
  const PackageConfig pkg = make_simba_package();
  EXPECT_EQ(pkg.num_chiplets(), 36);
  EXPECT_EQ(pkg.total_pes(), 9216);
  for (const auto& c : pkg.chiplets()) {
    EXPECT_EQ(c.array.num_pes, 256);
    EXPECT_EQ(c.dataflow(), DataflowKind::kOutputStationary);
  }
}

TEST(SimbaPackage, CoordsAreRowMajorUnique) {
  const PackageConfig pkg = make_simba_package(2, 3);
  EXPECT_EQ(pkg.num_chiplets(), 6);
  EXPECT_EQ(pkg.chiplet(0).coord, (GridCoord{0, 0}));
  EXPECT_EQ(pkg.chiplet(5).coord, (GridCoord{1, 2}));
}

TEST(SimbaPackage, HopsBetweenChiplets) {
  const PackageConfig pkg = make_simba_package();
  // id 0 at (0,0); id 35 at (5,5).
  EXPECT_EQ(pkg.hops_between(0, 35), 10);
  EXPECT_EQ(pkg.hops_between(7, 7), 0);
}

TEST(SimbaPackage, FindChipletAt) {
  const PackageConfig pkg = make_simba_package();
  const auto id = pkg.find_chiplet_at(GridCoord{2, 3});
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 2 * 6 + 3);
  EXPECT_FALSE(pkg.find_chiplet_at(GridCoord{9, 9}).has_value());
}

TEST(SimbaPackage, IoPortOnWestEdge) {
  const PackageConfig pkg = make_simba_package();
  // Chiplet (2,0) is adjacent to the IO port at (2,-1).
  const auto west = pkg.find_chiplet_at(GridCoord{2, 0});
  ASSERT_TRUE(west.has_value());
  EXPECT_EQ(pkg.hops_from_io(*west), 1);
}

TEST(SimbaPackage, SetChipletDataflow) {
  PackageConfig pkg = make_simba_package(3, 3);
  pkg.set_chiplet_dataflow(4, DataflowKind::kWeightStationary);
  EXPECT_EQ(pkg.chiplet(4).dataflow(), DataflowKind::kWeightStationary);
  EXPECT_EQ(pkg.chiplet(3).dataflow(), DataflowKind::kOutputStationary);
  EXPECT_THROW(pkg.set_chiplet_dataflow(99, DataflowKind::kWeightStationary),
               std::out_of_range);
}

TEST(MultiNpuPackage, CrossNpuHopsPenalized) {
  const PackageConfig pkg = make_multi_npu_package(2);
  EXPECT_EQ(pkg.num_chiplets(), 72);
  // Same mesh position, different NPU.
  const int same_pos_other_npu = 36;
  EXPECT_EQ(pkg.hops_between(0, same_pos_other_npu), pkg.inter_npu_hops());
  EXPECT_EQ(pkg.hops_between(0, 1), 1);
}

// A route must be contiguous: each mesh link starts where the previous
// mesh link of the same NPU ended.
void expect_contiguous(const std::vector<NopLink>& route) {
  const NopLink* prev = nullptr;
  for (const NopLink& link : route) {
    if (link.kind != NopLink::Kind::kMesh) continue;
    if (prev != nullptr && prev->npu == link.npu) {
      EXPECT_EQ(prev->to, link.from) << prev->describe() << " -> "
                                     << link.describe();
    }
    prev = &link;
  }
}

TEST(NopRoute, LengthMatchesHopsBetween) {
  const PackageConfig pkg = make_simba_package();
  for (const int a : {0, 7, 35}) {
    for (const int b : {0, 14, 21, 35}) {
      const auto route = pkg.route_between(a, b);
      EXPECT_EQ(static_cast<int>(route.size()), pkg.hops_between(a, b))
          << a << "->" << b;
      expect_contiguous(route);
    }
  }
  EXPECT_TRUE(pkg.route_between(7, 7).empty());
}

TEST(NopRoute, XyRoutingIsColumnFirst) {
  const PackageConfig pkg = make_simba_package();
  // (0,0) -> (2,2): two eastward column links at row 0, then two south.
  const auto route = pkg.route_between(0, 14);
  ASSERT_EQ(route.size(), 4u);
  EXPECT_EQ(route[0].from, (GridCoord{0, 0}));
  EXPECT_EQ(route[0].to, (GridCoord{0, 1}));
  EXPECT_EQ(route[1].to, (GridCoord{0, 2}));
  EXPECT_EQ(route[2].to, (GridCoord{1, 2}));
  EXPECT_EQ(route[3].to, (GridCoord{2, 2}));
}

TEST(NopRoute, DirectedLinksAreDistinctResources) {
  const PackageConfig pkg = make_simba_package();
  const auto forward = pkg.route_between(0, 1);
  const auto backward = pkg.route_between(1, 0);
  ASSERT_EQ(forward.size(), 1u);
  ASSERT_EQ(backward.size(), 1u);
  EXPECT_FALSE(forward[0] == backward[0]);
  EXPECT_TRUE(forward[0] < backward[0] || backward[0] < forward[0]);
}

TEST(NopRoute, IoRouteStartsAtWestEdgePort) {
  const PackageConfig pkg = make_simba_package();
  for (const int c : {0, 12, 35}) {
    const auto route = pkg.route_from_io(c);
    EXPECT_EQ(static_cast<int>(route.size()), pkg.hops_from_io(c));
    ASSERT_FALSE(route.empty());
    EXPECT_TRUE(route.front().is_io_port()) << route.front().describe();
    expect_contiguous(route);
  }
  // Every ingress shares the single west-edge port link: the contended
  // simulator's canonical hot link.
  EXPECT_EQ(pkg.route_from_io(0).front(), pkg.route_from_io(35).front());
}

TEST(NopRoute, CrossNpuAppendsSubstrateLinks) {
  const PackageConfig pkg = make_multi_npu_package(2);
  const auto route = pkg.route_between(0, 36);  // same coord, other NPU
  ASSERT_EQ(static_cast<int>(route.size()), pkg.inter_npu_hops());
  for (const NopLink& link : route) {
    EXPECT_EQ(link.kind, NopLink::Kind::kSubstrate);
    EXPECT_EQ(link.npu, 0);
    EXPECT_EQ(link.npu_to, 1);
  }
  // Ingress into NPU 1 walks NPU 0's mesh from the one physical port, then
  // crosses the substrate — so both NPUs' camera traffic shares the same
  // west-edge port link.
  const auto ingress = pkg.route_from_io(36);
  EXPECT_EQ(static_cast<int>(ingress.size()), pkg.hops_from_io(36));
  EXPECT_TRUE(ingress.front().is_io_port());
  EXPECT_EQ(ingress.front(), pkg.route_from_io(0).front());
  EXPECT_EQ(ingress.back().kind, NopLink::Kind::kSubstrate);
}

// The substrate is a chain of adjacent-NPU channels: a 0->2 transfer and a
// 0->1 transfer share the (0->1) boundary links, and the analytical hop
// count is linear in boundaries crossed — ingress and peer traffic crossing
// the same boundary contend on the same resources.
TEST(NopRoute, SubstrateChainsAdjacentNpuBoundaries) {
  const PackageConfig pkg = make_multi_npu_package(3, 2, 2);
  const int chip_npu0 = 0;
  const int chip_npu1 = 4;  // same (0,0) coord on NPU 1
  const int chip_npu2 = 8;  // same (0,0) coord on NPU 2
  EXPECT_EQ(pkg.hops_between(chip_npu0, chip_npu2), 2 * pkg.inter_npu_hops());
  const auto far = pkg.route_between(chip_npu0, chip_npu2);
  const auto near = pkg.route_between(chip_npu0, chip_npu1);
  ASSERT_EQ(static_cast<int>(far.size()), 2 * pkg.inter_npu_hops());
  ASSERT_EQ(static_cast<int>(near.size()), pkg.inter_npu_hops());
  // The far route's first boundary crossing is exactly the near route.
  for (std::size_t i = 0; i < near.size(); ++i) {
    EXPECT_EQ(far[i], near[i]) << i;
  }
  // Reverse direction uses distinct (directed) substrate links.
  const auto back = pkg.route_between(chip_npu1, chip_npu0);
  EXPECT_FALSE(back.front() == near.front());
  // Ingress into NPU 2 crosses the same chained boundaries.
  const auto ingress = pkg.route_from_io(chip_npu2);
  EXPECT_EQ(ingress.back(), far.back());
}

TEST(NopLinkId, DescribeIsHumanReadable) {
  const PackageConfig pkg = make_simba_package();
  EXPECT_EQ(pkg.route_from_io(0).front().describe(), "npu0:io->(2,0)");
  EXPECT_EQ(pkg.route_between(0, 1).front().describe(), "npu0:(0,0)->(0,1)");
}

TEST(MonolithicPackage, SplitsPeBudget) {
  const PackageConfig one = make_monolithic_package(1);
  const PackageConfig four = make_monolithic_package(4);
  EXPECT_EQ(one.num_chiplets(), 1);
  EXPECT_EQ(one.chiplet(0).array.num_pes, 9216);
  EXPECT_EQ(four.num_chiplets(), 4);
  EXPECT_EQ(four.chiplet(0).array.num_pes, 2304);
  EXPECT_EQ(four.total_pes(), 9216);
}

TEST(PackageConfig, TransferHopsUseMeshHops) {
  const PackageConfig pkg = make_simba_package();
  EXPECT_EQ(pkg.hops_between(0, 35), 10);
  EXPECT_EQ(pkg.hops_between(35, 0), 10);
}

TEST(PackageConfig, ChipletLookupThrowsOnBadId) {
  const PackageConfig pkg = make_simba_package(2, 2);
  EXPECT_THROW(pkg.chiplet(77), std::out_of_range);
}

// The chiplet-id index answers exactly like a first-match scan: compact
// ids, repeated ids, negative ids, and ids too sparse to index densely
// (bundle ids are untrusted; the extreme span must not size the index).
TEST(PackageConfig, PositionOfMatchesFirstMatchScan) {
  const auto package_with_ids = [](const std::vector<int>& ids) {
    std::vector<ChipletSpec> chiplets;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      chiplets.push_back(make_chiplet(ids[i], 0, static_cast<int>(i)));
    }
    return PackageConfig(std::move(chiplets), NopParams{});
  };
  const auto scan = [](const PackageConfig& pkg, int id) {
    for (int i = 0; i < pkg.num_chiplets(); ++i) {
      if (pkg.chiplets()[static_cast<std::size_t>(i)].id == id) return i;
    }
    return -1;
  };
  const int lo = std::numeric_limits<int>::min();
  const int hi = std::numeric_limits<int>::max();
  // Repeated ids are refused, in the dense index and the sparse fallback.
  EXPECT_THROW(package_with_ids({5, 3, 9, 3, 4}), std::invalid_argument);
  EXPECT_THROW(package_with_ids({lo, hi, 0, hi}), std::invalid_argument);
  const std::vector<std::vector<int>> id_sets = {
      {0, 1, 2, 3}, {7, -2, 0}, {0, 1000000}, {lo, 0, hi}};
  for (const std::vector<int>& ids : id_sets) {
    const PackageConfig pkg = package_with_ids(ids);
    for (const int id : {lo, lo + 1, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                         10, 999999, 1000000, hi - 1, hi}) {
      EXPECT_EQ(pkg.position_of(id), scan(pkg, id)) << id;
    }
    for (const int id : ids) {
      EXPECT_EQ(&pkg.chiplet(id),
                &pkg.chiplets()[static_cast<std::size_t>(scan(pkg, id))]);
    }
  }
  // without_chiplet's copy is indexed too.
  const PackageConfig degraded = make_simba_package(2, 2).without_chiplet(1);
  EXPECT_EQ(degraded.position_of(1), -1);
  EXPECT_EQ(degraded.position_of(3), 2);
  EXPECT_THROW(degraded.chiplet(1), std::out_of_range);
}

TEST(PackageConfig, RepeatedChipletIdIsRefused) {
  // Were id 4 both at (0,1) and at (1,1), without_chiplet(4) would remove
  // both dies but record one failed site, leaving the other position
  // routable.
  const PackageConfig pkg = make_simba_package(3, 3);
  std::vector<ChipletSpec> chiplets = pkg.chiplets();
  ASSERT_EQ(chiplets[1].coord, (GridCoord{0, 1}));
  ASSERT_EQ(chiplets[4].coord, (GridCoord{1, 1}));
  chiplets[1].id = 4;
  try {
    const PackageConfig repeated(chiplets, pkg.nop());
    FAIL() << "a repeated chiplet id must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("id 4"), std::string::npos)
        << e.what();
  }
}

TEST(PackageConfig, WithoutChipletRemovesOne) {
  const PackageConfig pkg = make_simba_package();
  const PackageConfig degraded = pkg.without_chiplet(7);
  EXPECT_EQ(degraded.num_chiplets(), 35);
  EXPECT_EQ(degraded.total_pes(), 9216 - 256);
  EXPECT_THROW(degraded.chiplet(7), std::out_of_range);
  // Survivors keep ids and coordinates.
  EXPECT_EQ(degraded.chiplet(8).coord, pkg.chiplet(8).coord);
}

TEST(PackageConfig, WithoutChipletRejectsUnknownId) {
  const PackageConfig pkg = make_simba_package(2, 2);
  EXPECT_THROW(pkg.without_chiplet(99), std::out_of_range);
}

TEST(PackageConfig, WithoutChipletPreservesNop) {
  PackageConfig pkg = make_simba_package(2, 2);
  NopParams nop = pkg.nop();
  nop.bandwidth_bytes_per_s = 50e9;
  pkg.set_nop(nop);
  const PackageConfig degraded = pkg.without_chiplet(0);
  EXPECT_DOUBLE_EQ(degraded.nop().bandwidth_bytes_per_s, 50e9);
}

// --- fault routing (regression for the stale-fault-routing bug) ---
// without_chiplet used to preserve survivors' grid coordinates while
// route_between / route_from_io kept emitting straight XY walks through the
// removed chiplet's position — messages silently traversed a dead router.
// Routes now detour around recorded FailedSites and hop counts follow.

// No link of any degraded route may start or end at a failed position.
void expect_avoids(const std::vector<NopLink>& route, const GridCoord& coord,
                   int npu) {
  for (const NopLink& link : route) {
    if (link.kind != NopLink::Kind::kMesh || link.npu != npu) continue;
    EXPECT_FALSE(link.from == coord) << link.describe();
    EXPECT_FALSE(link.to == coord) << link.describe();
  }
}

TEST(FaultRouting, RouteDetoursAroundFailedChiplet) {
  const PackageConfig pkg = make_simba_package();
  const PackageConfig degraded = pkg.without_chiplet(1);  // (0,1)
  ASSERT_EQ(degraded.failed_sites().size(), 1u);
  EXPECT_EQ(degraded.failed_sites().front().coord, (GridCoord{0, 1}));
  // (0,0) -> (0,2) previously went straight through (0,1); the detour adds
  // two hops and hops_between reports the detoured length.
  const auto route = degraded.route_between(0, 2);
  EXPECT_EQ(static_cast<int>(route.size()), degraded.hops_between(0, 2));
  EXPECT_EQ(route.size(), 4u);
  expect_avoids(route, GridCoord{0, 1}, 0);
  expect_contiguous(route);
}

TEST(FaultRouting, UnaffectedRoutesStayManhattan) {
  const PackageConfig pkg = make_simba_package();
  const PackageConfig degraded = pkg.without_chiplet(1);
  // A pair far from the hole keeps its healthy XY route exactly.
  EXPECT_EQ(degraded.route_between(24, 28), pkg.route_between(24, 28));
  EXPECT_EQ(degraded.hops_between(24, 28), pkg.hops_between(24, 28));
}

TEST(FaultRouting, IngressDetoursAroundFailedChiplet) {
  const PackageConfig pkg = make_simba_package();
  // The I/O port enters at (2,0) = id 12; kill (2,1) = id 13 on the
  // straight ingress path to (2,2) = id 14.
  const PackageConfig degraded = pkg.without_chiplet(13);
  const auto route = degraded.route_from_io(14);
  EXPECT_EQ(static_cast<int>(route.size()), degraded.hops_from_io(14));
  EXPECT_GT(route.size(), static_cast<std::size_t>(pkg.hops_from_io(14)));
  EXPECT_TRUE(route.front().is_io_port());
  expect_avoids(route, GridCoord{2, 1}, 0);
  expect_contiguous(route);
}

TEST(FaultRouting, IoPortRouterRemovalThrows) {
  const PackageConfig pkg = make_simba_package();
  // (2,0) = id 12 hosts the west-edge I/O port link; its loss severs
  // ingress entirely (documented policy) rather than silently rerouting a
  // port that is physically bonded to that router.
  const PackageConfig degraded = pkg.without_chiplet(12);
  EXPECT_THROW(degraded.route_from_io(0), std::runtime_error);
  EXPECT_THROW(degraded.hops_from_io(0), std::runtime_error);
  // Chiplet-to-chiplet routing still works around the hole.
  EXPECT_EQ(static_cast<int>(degraded.route_between(6, 18).size()),
            degraded.hops_between(6, 18));
}

TEST(FaultRouting, DisconnectedPairThrows) {
  // A 1x3 row mesh loses its middle chiplet: (0,0) and (0,2) have no
  // surviving path.
  const PackageConfig pkg = make_simba_package(1, 3);
  const PackageConfig degraded = pkg.without_chiplet(1);
  EXPECT_THROW(degraded.route_between(0, 2), std::runtime_error);
  EXPECT_THROW(degraded.hops_between(0, 2), std::runtime_error);
}

TEST(FaultRouting, StackedRemovalsAccumulate) {
  const PackageConfig degraded =
      make_simba_package().without_chiplet(7).without_chiplet(8);
  ASSERT_EQ(degraded.failed_sites().size(), 2u);
  const auto route = degraded.route_between(6, 9);  // row 1 with a 2-hole
  EXPECT_EQ(static_cast<int>(route.size()), degraded.hops_between(6, 9));
  expect_avoids(route, GridCoord{1, 1}, 0);
  expect_avoids(route, GridCoord{1, 2}, 0);
  expect_contiguous(route);
  EXPECT_NE(degraded.describe().find("2 failed"), std::string::npos);
}

TEST(FaultRouting, CrossNpuRouteSurvivesDeadExitMirrorSymmetrically) {
  // Chiplet 7 = (1,1) on npu 0 dies. The healthy cross-NPU walk for
  // 0 -> 43 (npu 1's (1,1)) exits npu 0's mesh AT (1,1) — with that router
  // dead the route must cross the substrate first and walk npu 1's mesh
  // instead, not declare two live chiplets unroutable (and not be routable
  // in one direction only).
  const PackageConfig pkg = make_multi_npu_package(2);
  const PackageConfig degraded = pkg.without_chiplet(7);
  const int forward = degraded.hops_between(0, 43);
  const int backward = degraded.hops_between(43, 0);
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward, 2 + degraded.inter_npu_hops());
  const auto route = degraded.route_between(0, 43);
  EXPECT_EQ(static_cast<int>(route.size()), forward);
  expect_avoids(route, GridCoord{1, 1}, 0);  // npu 0's dead router
  // The fallback's mesh segment runs on the destination NPU, after the
  // substrate crossing.
  EXPECT_EQ(route.front().kind, NopLink::Kind::kSubstrate);
  EXPECT_EQ(route.back().kind, NopLink::Kind::kMesh);
  EXPECT_EQ(route.back().npu, 1);
}

TEST(FaultRouting, IngressToRemoteNpuSurvivesDeadMirrorViaSubstrateFirst) {
  // 2x 2x2 NPUs; npu 0's (1,1) = id 3 dies. Ingress to npu 1's (1,1) = id 7
  // normally walks npu 0's mesh to (1,1) first — with that router dead it
  // must cross the substrate and finish the walk on npu 1, matching
  // hops_between's fallback, instead of throwing for a live chiplet.
  const PackageConfig pkg = make_multi_npu_package(2, 2, 2);
  const PackageConfig degraded = pkg.without_chiplet(3);
  const auto route = degraded.route_from_io(7);
  EXPECT_EQ(static_cast<int>(route.size()), degraded.hops_from_io(7));
  EXPECT_TRUE(route.front().is_io_port());
  expect_avoids(route, GridCoord{1, 1}, 0);
  // Mesh links after the substrate crossing belong to npu 1.
  EXPECT_EQ(route.back().kind, NopLink::Kind::kMesh);
  EXPECT_EQ(route.back().npu, 1);
}

TEST(FaultRouting, CrossNpuFallbackRefusesDeadStartMirror) {
  // Both mirrors dead: npu 0's (1,1) = id 3 AND npu 1's (0,0) = id 4. A
  // route 0 -> 7 can neither exit npu 0 at (1,1) nor enter npu 1 at (0,0):
  // the pair must be reported unroutable by BOTH the route and the hop
  // count — never a route that silently departs a dead router.
  const PackageConfig degraded =
      make_multi_npu_package(2, 2, 2).without_chiplet(3).without_chiplet(4);
  EXPECT_THROW(degraded.route_between(0, 7), std::runtime_error);
  EXPECT_THROW(degraded.hops_between(0, 7), std::runtime_error);
  EXPECT_THROW(degraded.route_between(7, 0), std::runtime_error);
  EXPECT_THROW(degraded.hops_between(7, 0), std::runtime_error);
}

TEST(FaultRouting, DegradedTransferPaysDetourHops) {
  const PackageConfig pkg = make_simba_package();
  const PackageConfig degraded = pkg.without_chiplet(1);
  // 0 -> 2 pays 4 hops instead of 2: the analytical evaluator and the
  // contended route agree on the degraded topology.
  EXPECT_EQ(pkg.hops_between(0, 2), 2);
  EXPECT_EQ(degraded.hops_between(0, 2), 4);
}

TEST(PackageConfig, DescribeCountsStyles) {
  PackageConfig pkg = make_simba_package(3, 3);
  pkg.set_chiplet_dataflow(0, DataflowKind::kWeightStationary);
  const std::string d = pkg.describe();
  EXPECT_NE(d.find("8 OS"), std::string::npos);
  EXPECT_NE(d.find("1 WS"), std::string::npos);
}

}  // namespace
}  // namespace cnpu
