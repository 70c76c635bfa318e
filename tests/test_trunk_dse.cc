#include "core/trunk_dse.h"

#include <gtest/gtest.h>

namespace cnpu {
namespace {

TEST(TrunkDse, OsOnlyFindsFeasibleConfig) {
  TrunkDseOptions opt;
  opt.ws_chiplets = 0;
  const TrunkDseResult r = run_trunk_dse(opt);
  EXPECT_TRUE(r.feasible);
  EXPECT_GT(r.evaluated, 0);
  ASSERT_NE(r.schedule, nullptr);
  EXPECT_TRUE(r.schedule->fully_assigned());
}

TEST(TrunkDse, FeasibleConfigsHonorConstraint) {
  TrunkDseOptions opt;
  opt.ws_chiplets = 2;
  const TrunkDseResult r = run_trunk_dse(opt);
  ASSERT_TRUE(r.feasible);
  for (const auto& u : r.metrics.chiplets) {
    EXPECT_LE(u.busy_s, opt.lcstr_s + 1e-9);
  }
}

TEST(TrunkDse, HeterogeneousConfigsSaveEnergy) {
  TrunkDseOptions os_only;
  os_only.ws_chiplets = 0;
  TrunkDseOptions het2 = os_only;
  het2.ws_chiplets = 2;
  TrunkDseOptions het4 = os_only;
  het4.ws_chiplets = 4;
  const double e0 = run_trunk_dse(os_only).metrics.energy_j();
  const double e2 = run_trunk_dse(het2).metrics.energy_j();
  const double e4 = run_trunk_dse(het4).metrics.energy_j();
  // Paper Table I: Het(2) -1.1%, Het(4) -6.2% energy.
  EXPECT_LT(e2, e0);
  EXPECT_LT(e4, e2);
}

TEST(TrunkDse, PureWsMuchSlower) {
  TrunkDseOptions os_only;
  os_only.ws_chiplets = 0;
  TrunkDseOptions ws_only;
  ws_only.ws_chiplets = 9;
  const TrunkDseResult ros = run_trunk_dse(os_only);
  const TrunkDseResult rws = run_trunk_dse(ws_only);
  // Paper Table I: WS E2E 605.7 ms vs OS 91.2 ms.
  EXPECT_GT(rws.metrics.e2e_s, ros.metrics.e2e_s * 2.5);
  EXPECT_FALSE(rws.feasible);
}

TEST(TrunkDse, PackageHasRequestedWsCount) {
  TrunkDseOptions opt;
  opt.ws_chiplets = 4;
  const TrunkDseResult r = run_trunk_dse(opt);
  int ws = 0;
  for (const auto& c : r.package->chiplets()) {
    if (c.dataflow() == DataflowKind::kWeightStationary) ++ws;
  }
  EXPECT_EQ(ws, 4);
}

TEST(TrunkDse, WiderSearchWithWsChiplets) {
  TrunkDseOptions os_only;
  os_only.ws_chiplets = 0;
  TrunkDseOptions het2 = os_only;
  het2.ws_chiplets = 2;
  EXPECT_GT(run_trunk_dse(het2).evaluated, run_trunk_dse(os_only).evaluated);
}

TEST(TrunkDse, TightConstraintStillHonoredOrInfeasible) {
  TrunkDseOptions opt;
  opt.lcstr_s = 0.030;  // 30 ms: tighter than any single-chiplet trunk
  const TrunkDseResult r = run_trunk_dse(opt);
  if (r.feasible) {
    for (const auto& u : r.metrics.chiplets) {
      EXPECT_LE(u.busy_s, opt.lcstr_s + 1e-9);
    }
  } else {
    EXPECT_GT(r.metrics.e2e_s, 0.0);
  }
}

TEST(TrunkDse, E2eNearPaperForOsConfig) {
  // Paper Fig. 8: trunk stage E2E 91.27 ms, pipe 82.16 ms (we match E2E
  // within the stage budget; see EXPERIMENTS.md for the pipe discussion).
  TrunkDseOptions opt;
  const TrunkDseResult r = run_trunk_dse(opt);
  EXPECT_GT(r.metrics.e2e_s * 1e3, 60.0);
  EXPECT_LT(r.metrics.e2e_s * 1e3, 95.0);
}

TEST(BuildTrunkPipeline, OneStageSixModels) {
  const PerceptionPipeline p = build_trunk_pipeline(TrunkConfig{}, 0.6);
  ASSERT_EQ(p.num_stages(), 1);
  EXPECT_EQ(p.stages[0].num_models(), 6);
  EXPECT_EQ(p.stages[0].num_prefix_models(), 1);
}

}  // namespace
}  // namespace cnpu
