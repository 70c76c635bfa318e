// Static verification layer: registry integrity, one triggering + one clean
// fixture per rule ID, validate_or_throw raising the engine's exception
// types, the table/JSON renderings, and the schedule-bundle round trip that
// feeds tools/cnpu_lint.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bounds.h"
#include "analysis/rules.h"
#include "analysis/validate.h"
#include "arch/package.h"
#include "core/baselines.h"
#include "core/evaluator.h"
#include "core/schedule.h"
#include "core/schedule_io.h"
#include "dataflow/layer.h"
#include "exp/sweep.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "util/json.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

using analysis::Diagnostics;
using analysis::Severity;
using analysis::validate;
using analysis::validate_or_throw;

PerceptionPipeline two_conv_pipeline() {
  PerceptionPipeline pipe;
  pipe.name = "test-analysis";
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

int io_chiplet(const PackageConfig& pkg) {
  for (const auto& c : pkg.chiplets()) {
    if (pkg.io_port_attached_to(c.id)) return c.id;
  }
  return -1;
}

int chiplet_at_col(const PackageConfig& pkg, int col) {
  for (const auto& c : pkg.chiplets()) {
    if (c.coord.col == col) return c.id;
  }
  return -1;
}

// Non-io victim for fault fixtures.
int far_chiplet(const PackageConfig& pkg) {
  const int io = io_chiplet(pkg);
  int best = -1;
  for (const auto& c : pkg.chiplets()) {
    if (c.id != io) best = c.id;
  }
  return best;
}

// --------------------------------------------------------------- registry

TEST(RuleRegistryTest, IdsAndNamesAreUniqueAndStable) {
  std::set<std::string> ids;
  std::set<std::string> names;
  for (const auto& rule : analysis::rule_registry()) {
    EXPECT_TRUE(ids.insert(rule.id).second) << "duplicate id " << rule.id;
    EXPECT_TRUE(names.insert(rule.name).second)
        << "duplicate name " << rule.name;
    EXPECT_NE(rule.summary[0], '\0');
  }
  // Every published constant resolves, by ID and by slug.
  for (const char* id :
       {analysis::kRuleSchedEmpty, analysis::kRuleSchedUnassigned,
        analysis::kRuleSchedDanglingChiplet, analysis::kRuleSchedDeadChiplet,
        analysis::kRuleSchedShardFraction, analysis::kRuleFleetEmpty,
        analysis::kRuleTenantNoPipeline, analysis::kRuleTenantForeignPackage,
        analysis::kRuleRouteUnreachable, analysis::kRuleRouteIoSevered,
        analysis::kRuleNopParams,
        analysis::kRuleResidencyOverflow, analysis::kRuleFaultUnknownChiplet,
        analysis::kRuleFaultOrder, analysis::kRuleFaultPenaltySign,
        analysis::kRuleFaultNoSurvivor, analysis::kRuleArrivalSpecInvalid,
        analysis::kRuleAdmissionCapacity, analysis::kRuleAdmissionInertExpiry,
        analysis::kRuleDeadlineInfeasible, analysis::kRuleSweepZipMismatch,
        analysis::kRuleSweepOverflow, analysis::kRuleSweepDuplicateAxis,
        analysis::kRuleSweepEmptyAxis, analysis::kRuleBoundDeadline,
        analysis::kRuleBoundLinkOversubscribed,
        analysis::kRuleBoundComputeOversubscribed,
        analysis::kRuleBoundResidency}) {
    const analysis::RuleInfo* rule = analysis::find_rule(id);
    ASSERT_NE(rule, nullptr) << id;
    EXPECT_EQ(analysis::find_rule(rule->name), rule);
  }
  EXPECT_EQ(analysis::find_rule("Z999"), nullptr);
}

TEST(DiagnosticsTest, TableAndJsonRenderings) {
  Diagnostics diags;
  EXPECT_EQ(diags.table(), "no diagnostics\n");
  diags.add(analysis::kRuleSchedEmpty, "schedule", "nothing to run");
  diags.add(analysis::kRuleFaultPenaltySign, "options.fault",
            "negative penalty");
  const std::string table = diags.table();
  EXPECT_NE(table.find("S001"), std::string::npos);
  EXPECT_NE(table.find("1 error(s), 1 warning(s), 0 note(s)"),
            std::string::npos);
  // The JSON rendering is a valid document with per-finding fields.
  const JsonValue doc = parse_json(diags.to_json());
  EXPECT_EQ(doc.at("errors").as_int(), 1);
  EXPECT_EQ(doc.at("warnings").as_int(), 1);
  EXPECT_EQ(doc.at("diagnostics").size(), 2u);
  EXPECT_EQ(doc.at("diagnostics").at(0u).at("rule").as_string(), "S001");
  EXPECT_TRUE(doc.at("diagnostics").at(0u).at("enforced").as_bool());
  EXPECT_FALSE(doc.at("diagnostics").at(1u).at("enforced").as_bool());
}

TEST(DiagnosticsTest, ThrowIfEnforcedThrowsFirstEnforcedFinding) {
  Diagnostics diags;
  diags.add(analysis::kRuleFaultPenaltySign, "a", "warning first");
  diags.add(analysis::kRuleSchedDanglingChiplet, "b", "then out_of_range");
  diags.add(analysis::kRuleSchedEmpty, "c", "then invalid_argument");
  try {
    diags.throw_if_enforced();
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("[S003 sched-dangling-chiplet] b"),
              std::string::npos);
  }
}

TEST(DiagnosticsTest, DemotedInstanceDoesNotThrow) {
  Diagnostics diags;
  diags.add(analysis::kRuleResidencyOverflow, "schedule", "overfull",
            /*enforced=*/false);
  EXPECT_NO_THROW(diags.throw_if_enforced());
  EXPECT_TRUE(diags.has_errors());
}

// ------------------------------------------------------- schedule fixtures

class ValidateScheduleTest : public ::testing::Test {
 protected:
  ValidateScheduleTest()
      : pipe_(two_conv_pipeline()),
        pkg_(make_simba_package(2, 4)),
        sched_(pipe_, pkg_) {
    sched_.assign(0, pkg_.chiplets()[0].id);
    sched_.assign(1, pkg_.chiplets()[1].id);
  }

  PerceptionPipeline pipe_;
  PackageConfig pkg_;
  Schedule sched_;
};

TEST_F(ValidateScheduleTest, CleanScheduleHasNoFindings) {
  EXPECT_TRUE(validate(sched_).empty());
  EXPECT_NO_THROW(validate_or_throw(sched_));
}

TEST_F(ValidateScheduleTest, S001EmptyScheduleIsInvalidArgument) {
  PerceptionPipeline empty;
  Schedule s(empty, pkg_);
  EXPECT_TRUE(validate(s).has_rule(analysis::kRuleSchedEmpty));
  EXPECT_THROW(validate_or_throw(s), std::invalid_argument);
}

TEST_F(ValidateScheduleTest, S002UnassignedItemIsLogicError) {
  sched_.clear_assignment(1);
  EXPECT_TRUE(validate(sched_).has_rule(analysis::kRuleSchedUnassigned));
  EXPECT_THROW(validate_or_throw(sched_), std::logic_error);
}

TEST_F(ValidateScheduleTest, S003DanglingChipletIsOutOfRange) {
  sched_.assign(0, 99);
  EXPECT_TRUE(validate(sched_).has_rule(analysis::kRuleSchedDanglingChiplet));
  EXPECT_THROW(validate_or_throw(sched_), std::out_of_range);
}

TEST_F(ValidateScheduleTest, S004DeadChipletIsOutOfRange) {
  const int victim = chiplet_at_col(pkg_, 3);
  const PackageConfig degraded = pkg_.without_chiplet(victim);
  Schedule s(pipe_, degraded);
  s.assign(0, victim);
  s.assign(1, degraded.chiplets()[0].id);
  EXPECT_TRUE(validate(s).has_rule(analysis::kRuleSchedDeadChiplet));
  EXPECT_THROW(validate_or_throw(s), std::out_of_range);
}

TEST_F(ValidateScheduleTest, S005BadFractionSumIsWarningOnly) {
  sched_.restore_placement(
      0, {{pkg_.chiplets()[0].id, 0.25}, {pkg_.chiplets()[1].id, 0.25}});
  const Diagnostics diags = validate(sched_);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleSchedShardFraction));
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NO_THROW(validate_or_throw(sched_));
}

TEST_F(ValidateScheduleTest, R001DisconnectedRouteIsRuntimeError) {
  const PackageConfig row = make_simba_package(1, 5);
  const PackageConfig cut = row.without_chiplet(chiplet_at_col(row, 2));
  Schedule s(pipe_, cut);
  s.assign(0, chiplet_at_col(cut, 1));
  s.assign(1, chiplet_at_col(cut, 4));
  EXPECT_TRUE(validate(s).has_rule(analysis::kRuleRouteUnreachable));
  EXPECT_THROW(validate_or_throw(s), std::runtime_error);
  // With NoP delays unmodeled the runtime never resolves routes, so the
  // same finding demotes to lint-only.
  SimOptions no_nop;
  no_nop.nop_mode = NopMode::kOff;
  EXPECT_TRUE(validate(s, no_nop).has_rule(analysis::kRuleRouteUnreachable));
  EXPECT_NO_THROW(validate_or_throw(s, no_nop));
}

TEST_F(ValidateScheduleTest, R002SeveredIoPortIsRuntimeError) {
  SimOptions opt;
  opt.fault.chiplet_id = io_chiplet(pkg_);
  opt.fault.fail_time_s = 0.1;
  EXPECT_TRUE(validate(sched_, opt).has_rule(analysis::kRuleRouteIoSevered));
  EXPECT_THROW(validate_or_throw(sched_, opt), std::runtime_error);
}

TEST_F(ValidateScheduleTest, R003BadNopParamsAreInvalidArgument) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const NopParams good = pkg_.nop();
  for (const auto& [bandwidth, hop] :
       {std::pair{-1.0, good.hop_latency_s}, {0.0, good.hop_latency_s},
        {nan, good.hop_latency_s}, {good.bandwidth_bytes_per_s, -1e-3},
        {good.bandwidth_bytes_per_s, nan}}) {
    SCOPED_TRACE("bandwidth " + std::to_string(bandwidth) + " hop " +
                 std::to_string(hop));
    PackageConfig bad = pkg_;
    bad.set_nop(NopParams{bandwidth, hop, good.energy_per_bit_pj});
    Schedule s(pipe_, bad);
    s.assign(0, bad.chiplets()[0].id);
    s.assign(1, bad.chiplets()[1].id);
    EXPECT_TRUE(validate(s).has_rule(analysis::kRuleNopParams));
    EXPECT_THROW(validate_or_throw(s), std::invalid_argument);
    for (const NopMode mode : {NopMode::kAnalytical, NopMode::kContended}) {
      SimOptions opt;
      opt.nop_mode = mode;
      EXPECT_THROW((void)SimEngine().run(s, opt), std::invalid_argument);
    }
    // With NoP delays unmodeled the engine never reads the parameters.
    SimOptions no_nop;
    no_nop.nop_mode = NopMode::kOff;
    EXPECT_FALSE(validate(s, no_nop).has_rule(analysis::kRuleNopParams));
    EXPECT_NO_THROW((void)simulate_schedule(s, no_nop));
  }
  // Infinite bandwidth is the contention-free fabric, not an error.
  PackageConfig ideal = pkg_;
  ideal.set_nop(NopParams{std::numeric_limits<double>::infinity(),
                          good.hop_latency_s, good.energy_per_bit_pj});
  Schedule s(pipe_, ideal);
  s.assign(0, ideal.chiplets()[0].id);
  s.assign(1, ideal.chiplets()[1].id);
  EXPECT_TRUE(validate(s).empty());
}

TEST_F(ValidateScheduleTest, M001IsLintOnlyOnTheSimPath) {
  PackageConfig tight = pkg_;
  MemorySpec mem;
  mem.weight_capacity_bytes = 16.0;
  tight.set_memory(mem);
  Schedule s(pipe_, tight);
  s.assign(0, tight.chiplets()[0].id);
  s.assign(1, tight.chiplets()[0].id);
  const Diagnostics diags = validate(s);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleResidencyOverflow));
  EXPECT_TRUE(diags.has_errors());
  // The simulator deliberately runs overflowing placements (a degraded
  // frame beats a refused one), so the finding must not reject.
  EXPECT_NO_THROW(validate_or_throw(s));
}

TEST_F(ValidateScheduleTest, F001UnknownFaultChipletIsInvalidArgument) {
  SimOptions opt;
  opt.fault.chiplet_id = 99;
  opt.fault.fail_time_s = 0.1;
  EXPECT_TRUE(
      validate(sched_, opt).has_rule(analysis::kRuleFaultUnknownChiplet));
  EXPECT_THROW(validate_or_throw(sched_, opt), std::invalid_argument);
}

TEST_F(ValidateScheduleTest, F002BadFaultOrderIsInvalidArgument) {
  SimOptions opt;
  opt.fault.chiplet_id = far_chiplet(pkg_);
  opt.fault.fail_time_s = 0.2;
  opt.fault.recover_time_s = 0.1;
  EXPECT_TRUE(validate(sched_, opt).has_rule(analysis::kRuleFaultOrder));
  EXPECT_THROW(validate_or_throw(sched_, opt), std::invalid_argument);
}

TEST_F(ValidateScheduleTest, F003NegativePenaltyIsWarningOnly) {
  SimOptions opt;
  opt.fault.chiplet_id = far_chiplet(pkg_);
  opt.fault.fail_time_s = 0.1;
  opt.fault.reschedule_penalty_s = -1.0;
  const Diagnostics diags = validate(sched_, opt);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleFaultPenaltySign));
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NO_THROW(validate_or_throw(sched_, opt));
}

TEST_F(ValidateScheduleTest, F004NoRemapSurvivorIsInvalidArgument) {
  const PackageConfig solo = make_simba_package(1, 1);
  Schedule s(pipe_, solo);
  s.assign(0, solo.chiplets()[0].id);
  s.assign(1, solo.chiplets()[0].id);
  SimOptions opt;
  opt.fault.chiplet_id = solo.chiplets()[0].id;
  opt.fault.fail_time_s = 0.1;
  EXPECT_TRUE(validate(s, opt).has_rule(analysis::kRuleFaultNoSurvivor));
  // Legacy precedence: the remap failure (invalid_argument) fires before
  // the severed-io route error on a single-chiplet package
  // (FaultOnSingleChipletPackageThrows in test_sim.cc pins the runtime).
  EXPECT_THROW(validate_or_throw(s, opt), std::invalid_argument);
}

TEST_F(ValidateScheduleTest, A001BadArrivalSpecIsInvalidArgument) {
  SimOptions opt;
  opt.arrivals.kind = ArrivalKind::kTrace;  // empty trace, 8 frames
  EXPECT_TRUE(
      validate(sched_, opt).has_rule(analysis::kRuleArrivalSpecInvalid));
  EXPECT_THROW(validate_or_throw(sched_, opt), std::invalid_argument);
}

TEST_F(ValidateScheduleTest, A002ShedWithoutCapacityIsInvalidArgument) {
  SimOptions opt;
  opt.admission.policy = ShedPolicy::kDropOldest;
  EXPECT_TRUE(
      validate(sched_, opt).has_rule(analysis::kRuleAdmissionCapacity));
  EXPECT_THROW(validate_or_throw(sched_, opt), std::invalid_argument);
}

TEST_F(ValidateScheduleTest, A003InertShedExpiredIsNote) {
  SimOptions opt;
  opt.admission.shed_expired = true;  // no deadline anywhere: inert
  const Diagnostics diags = validate(sched_, opt);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleAdmissionInertExpiry));
  EXPECT_EQ(diags.count(Severity::kNote), 1);
  EXPECT_NO_THROW(validate_or_throw(sched_, opt));
}

TEST_F(ValidateScheduleTest, D001InfeasibleDeadlineIsLintOnly) {
  SimOptions opt;
  opt.deadline_s = 1e-12;  // far below the critical-path bound
  const Diagnostics diags = validate(sched_, opt);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleDeadlineInfeasible));
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NO_THROW(validate_or_throw(sched_, opt));
  // A generous deadline is feasible.
  opt.deadline_s = 10.0;
  EXPECT_FALSE(
      validate(sched_, opt).has_rule(analysis::kRuleDeadlineInfeasible));
}

// D001's bound is the static critical path, which every frame's latency
// reaches, not the evaluator's E2E, which adds each stage's largest input
// edge on top of its longest chain. Two stage-0 models on a 1x4 row: a big
// GEMM on the chiplet the I/O port attaches to, a small one three hops
// away. The first frame finishes at the critical path, 0.08 ms under the
// E2E, so a deadline between the two is met.
TEST(ValidateDeadlineTest, D001JudgesTheCriticalPathNotTheEvaluatorE2E) {
  const PackageConfig pkg = make_simba_package(1, 4);
  PerceptionPipeline pipe;
  pipe.name = "two-gemm";
  Stage stage;
  stage.name = "stage0";
  for (const LayerDesc& layer :
       {gemm("A", 4096, 256, 256), gemm("B", 64, 64, 64)}) {
    StageModel sm;
    sm.model.name = layer.name;
    sm.model.layers.push_back(layer);
    stage.models.push_back(std::move(sm));
  }
  pipe.stages.push_back(std::move(stage));
  Schedule s(pipe, pkg);
  ASSERT_TRUE(pkg.io_port_attached_to(chiplet_at_col(pkg, 0)));
  s.assign(0, chiplet_at_col(pkg, 0));
  s.assign(1, chiplet_at_col(pkg, 3));

  SimOptions opt;
  opt.frames = 1;
  EXPECT_NEAR(evaluate_schedule(s).e2e_s, 1.2817e-3, 1e-7);
  EXPECT_NEAR(simulate_schedule(s, opt).first_frame_latency_s, 1.1986e-3,
              1e-7);
  opt.deadline_s = 1.2401e-3;
  EXPECT_FALSE(
      validate(s, opt).has_rule(analysis::kRuleDeadlineInfeasible));
  EXPECT_EQ(simulate_schedule(s, opt).deadline_miss_frames, 0);
  opt.deadline_s = 1.1985e-3;  // just under the critical path
  EXPECT_TRUE(validate(s, opt).has_rule(analysis::kRuleDeadlineInfeasible));
  EXPECT_EQ(simulate_schedule(s, opt).deadline_miss_frames, 1);
}

TEST_F(ValidateScheduleTest, T003ForeignTenantPackageIsInvalidArgument) {
  const PackageConfig other = make_simba_package(2, 4);
  Schedule foreign(pipe_, other);
  foreign.assign(0, other.chiplets()[0].id);
  foreign.assign(1, other.chiplets()[1].id);
  SimOptions opt;
  TenantStream a;
  a.name = "native";
  TenantStream b;
  b.name = "foreign";
  b.schedule = &foreign;
  opt.tenants = {a, b};
  EXPECT_TRUE(
      validate(sched_, opt).has_rule(analysis::kRuleTenantForeignPackage));
  EXPECT_THROW(validate_or_throw(sched_, opt), std::invalid_argument);
}

// ------------------------------------------------------- serving fixtures

TEST(ValidateServingTest, T001EmptyFleetIsInvalidArgument) {
  const PackageConfig pkg = make_simba_package(2, 4);
  const std::vector<TenantWorkload> none;
  EXPECT_TRUE(validate(pkg, none).has_rule(analysis::kRuleFleetEmpty));
  EXPECT_THROW(validate_or_throw(pkg, none), std::invalid_argument);
}

TEST(ValidateServingTest, T002NullPipelineIsInvalidArgument) {
  const PackageConfig pkg = make_simba_package(2, 4);
  std::vector<TenantWorkload> tenants(1);
  tenants[0].name = "hole";
  EXPECT_TRUE(validate(pkg, tenants).has_rule(analysis::kRuleTenantNoPipeline));
  EXPECT_THROW(validate_or_throw(pkg, tenants), std::invalid_argument);
}

TEST(ValidateServingTest, M001IsEnforcedOnThePlacementPath) {
  PackageConfig pkg = make_simba_package(2, 4);
  MemorySpec mem;
  mem.weight_capacity_bytes = 16.0;
  pkg.set_memory(mem);
  const PerceptionPipeline pipe = two_conv_pipeline();
  std::vector<TenantWorkload> tenants(1);
  tenants[0].pipeline = &pipe;
  const Diagnostics diags = validate(pkg, tenants);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleResidencyOverflow));
  EXPECT_THROW(validate_or_throw(pkg, tenants), std::invalid_argument);
}

TEST(ValidateServingTest, CleanFleetHasNoFindings) {
  const PackageConfig pkg = make_simba_package();
  const PerceptionPipeline pipe = two_conv_pipeline();
  std::vector<TenantWorkload> tenants(2);
  tenants[0].pipeline = &pipe;
  tenants[1].pipeline = &pipe;
  EXPECT_TRUE(validate(pkg, tenants).empty());
  EXPECT_NO_THROW(validate_or_throw(pkg, tenants));
}

// --------------------------------------------------------- sweep fixtures

TEST(ValidateSweepTest, W001ZipMismatchIsLogicError) {
  const SweepSpec spec = SweepSpec("zip", SweepCombine::kZipped)
                             .axis("a", {1, 2})
                             .axis("b", {1, 2, 3});
  EXPECT_TRUE(validate(spec).has_rule(analysis::kRuleSweepZipMismatch));
  EXPECT_THROW(validate_or_throw(spec), std::logic_error);
}

TEST(ValidateSweepTest, W002CartesianOverflowIsOverflowError) {
  std::vector<ParamValue> big;
  for (int i = 0; i < 1300; ++i) big.push_back(i);
  const SweepSpec spec =
      SweepSpec("big").axis("a", big).axis("b", big).axis("c", big);
  EXPECT_TRUE(validate(spec).has_rule(analysis::kRuleSweepOverflow));
  EXPECT_THROW(validate_or_throw(spec), std::overflow_error);
}

TEST(ValidateSweepTest, W003DuplicateAxisIsWarning) {
  const SweepSpec spec =
      SweepSpec("dup").axis("rows", {1, 2}).axis("rows", {3, 4});
  const Diagnostics diags = validate(spec);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleSweepDuplicateAxis));
  EXPECT_FALSE(diags.has_errors());
  EXPECT_NO_THROW(validate_or_throw(spec));
}

TEST(ValidateSweepTest, W004EmptyAxisIsNote) {
  const SweepSpec spec = SweepSpec("hollow").axis("a", {});
  const Diagnostics diags = validate(spec);
  EXPECT_TRUE(diags.has_rule(analysis::kRuleSweepEmptyAxis));
  EXPECT_EQ(diags.count(Severity::kNote), 1);
  EXPECT_NO_THROW(validate_or_throw(spec));
}

TEST(ValidateSweepTest, CleanSpecHasNoFindings) {
  const SweepSpec spec =
      SweepSpec("ok").axis("rows", {1, 2}).axis("cols", {3, 4});
  EXPECT_TRUE(validate(spec).empty());
}

// --------------------------------------------------------- bundle IO

TEST(ScheduleBundleTest, RoundTripPreservesEverything) {
  const PerceptionPipeline pipe = build_fanin_pipeline(2);
  const PackageConfig pkg = make_simba_package();
  const Schedule sched = build_fanin_schedule(pipe, pkg);
  const ScheduleBundle rt = bundle_from_json(bundle_to_json(sched));

  ASSERT_EQ(rt.schedule->num_items(), sched.num_items());
  for (int i = 0; i < sched.num_items(); ++i) {
    const Placement& a = sched.placement(i);
    const Placement& b = rt.schedule->placement(i);
    ASSERT_EQ(a.shards.size(), b.shards.size()) << "item " << i;
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
      EXPECT_EQ(a.shards[s].chiplet_id, b.shards[s].chiplet_id);
      // %.17g export: fractions survive bitwise.
      EXPECT_EQ(a.shards[s].fraction, b.shards[s].fraction);
    }
    EXPECT_EQ(sched.item(i).desc->name, rt.schedule->item(i).desc->name);
    EXPECT_EQ(sched.item(i).desc->macs(), rt.schedule->item(i).desc->macs());
  }
  ASSERT_EQ(rt.package->num_chiplets(), pkg.num_chiplets());
  for (int i = 0; i < pkg.num_chiplets(); ++i) {
    EXPECT_EQ(rt.package->chiplets()[i].id, pkg.chiplets()[i].id);
    EXPECT_EQ(rt.package->chiplets()[i].coord, pkg.chiplets()[i].coord);
    EXPECT_EQ(rt.package->chiplets()[i].array.num_pes,
              pkg.chiplets()[i].array.num_pes);
  }

  // The reloaded bundle lints clean and simulates bitwise-identically.
  EXPECT_TRUE(validate(*rt.schedule).empty());
  const SimResult a = simulate_schedule(sched, {});
  const SimResult b = simulate_schedule(*rt.schedule, {});
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.first_frame_latency_s, b.first_frame_latency_s);
}

TEST(ScheduleBundleTest, RoundTripReplaysFailedSites) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  PackageConfig pkg = make_simba_package(2, 4);
  int victim = -1;
  for (const auto& c : pkg.chiplets()) {
    if (!pkg.io_port_attached_to(c.id) && c.coord.col == 1) victim = c.id;
  }
  ASSERT_GE(victim, 0);
  const PackageConfig degraded = pkg.without_chiplet(victim);
  Schedule sched(pipe, degraded);
  sched.assign(0, chiplet_at_col(degraded, 0));
  sched.assign(1, chiplet_at_col(degraded, 3));
  const ScheduleBundle rt = bundle_from_json(bundle_to_json(sched));
  ASSERT_EQ(rt.package->failed_sites().size(), 1u);
  EXPECT_EQ(rt.package->failed_sites()[0], degraded.failed_sites()[0]);
  // Degraded routing (BFS detours around the dead router) reproduces.
  const int a = chiplet_at_col(degraded, 0);
  const int b = chiplet_at_col(degraded, 3);
  EXPECT_EQ(rt.package->hops_between(a, b), degraded.hops_between(a, b));
  EXPECT_TRUE(validate(*rt.schedule).empty());
}

TEST(ScheduleBundleTest, MalformedDocumentsThrow) {
  EXPECT_THROW(bundle_from_json("not json"), std::invalid_argument);
  EXPECT_THROW(bundle_from_json("{\"format\":\"bogus_v0\"}"),
               std::invalid_argument);
  // Structurally valid JSON, wrong placement count.
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule sched(pipe, pkg);
  sched.assign(0, pkg.chiplets()[0].id);
  sched.assign(1, pkg.chiplets()[1].id);
  std::string doc = bundle_to_json(sched);
  const std::string needle = "\"placements\":[[";
  const auto pos = doc.find(needle);
  ASSERT_NE(pos, std::string::npos);
  doc.replace(pos, needle.size(), "\"placements\":[[],[");
  EXPECT_THROW(bundle_from_json(doc), std::invalid_argument);
}

// Hostile array dimensions and geometry. tile_h = 2^62 used to overflow
// int64 in the cost model (tile_h * tile_w) once the bundle was analyzed,
// and routing walks mesh coordinates, NPU indices and substrate hops one
// hop at a time, so row 10^6 kept `cnpu_lint --bounds` busy for seconds
// and row 2^31-1 never finished. The loader now refuses every array
// dimension outside [1, 2^31), a non-positive num_pes, a chiplet or failed
// site row/col outside [0, 4096) or npu outside [0, 64), and
// inter_npu_hops outside [0, 64], naming the chiplet (or failed site) and
// the field.
TEST(ScheduleBundleTest, HostileArrayDimensionsAreRejected) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  int victim = -1;
  for (const auto& c : pkg.chiplets()) {
    if (!pkg.io_port_attached_to(c.id) && c.coord.col == 1) victim = c.id;
  }
  ASSERT_GE(victim, 0);
  const PackageConfig degraded = pkg.without_chiplet(victim);
  const auto bundle_of = [&](const PackageConfig& p) {
    Schedule sched(pipe, p);
    sched.assign(0, p.chiplets()[0].id);
    sched.assign(1, p.chiplets()[1].id);
    return bundle_to_json(sched);
  };
  const std::string doc = bundle_of(pkg);
  const std::string degraded_doc = bundle_of(degraded);
  const std::string chiplet = "chiplet " + std::to_string(pkg.chiplets()[0].id);
  const std::string failed_site = "failed site " + std::to_string(victim);
  // `in` with the first `field` after `section` (the first chiplet's, the
  // first failed site's, or the package's) set to `value`.
  const auto with = [](const std::string& in, const std::string& section,
                       const std::string& field, const std::string& value) {
    const std::string needle = "\"" + field + "\":";
    std::string out = in;
    const auto pos = out.find(needle, out.find("\"" + section + "\":"));
    EXPECT_NE(pos, std::string::npos) << field;
    const auto end = out.find_first_of(",}", pos);
    out.replace(pos + needle.size(), end - pos - needle.size(), value);
    return out;
  };
  const auto rejects = [](const std::string& in, const std::string& owner,
                          const std::string& field) {
    try {
      (void)bundle_from_json(in);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(owner), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const std::string two62 = "4611686018427387904";
  for (const char* field : {"tile_h", "tile_w", "array_h", "array_w"}) {
    for (const std::string& value : {two62, std::string("2147483648"),
                                     std::string("0"), std::string("-1")}) {
      SCOPED_TRACE(std::string(field) + " = " + value);
      rejects(with(doc, "chiplets", field, value), chiplet, field);
    }
  }
  EXPECT_THROW(bundle_from_json(with(doc, "chiplets", "num_pes", "0")),
               std::invalid_argument);
  // Geometry: 2^31-1, the first value past the cap, and -1.
  const std::vector<std::pair<const char*, const char*>> geometry = {
      {"row", "4096"}, {"col", "4096"}, {"npu", "64"}};
  for (const auto& [field, past_cap] : geometry) {
    for (const std::string& value :
         {std::string("2147483647"), std::string(past_cap),
          std::string("-1")}) {
      SCOPED_TRACE(std::string(field) + " = " + value);
      rejects(with(doc, "chiplets", field, value), chiplet, field);
      rejects(with(degraded_doc, "failed_sites", field, value), failed_site,
              field);
    }
  }
  for (const char* value : {"2147483647", "65", "-1"}) {
    SCOPED_TRACE(std::string("inter_npu_hops = ") + value);
    rejects(with(doc, "package", "inter_npu_hops", value), "package",
            "inter_npu_hops");
  }
  // The largest accepted tile still loads and analyzes without overflow.
  const ScheduleBundle big =
      bundle_from_json(with(doc, "chiplets", "tile_h", "2147483647"));
  EXPECT_TRUE(std::isfinite(evaluate_schedule(*big.schedule).e2e_s));
  // So does the largest accepted geometry, and bounding it finishes.
  const auto bounded = [](const std::string& in) {
    const ScheduleBundle far = bundle_from_json(in);
    const analysis::BoundsReport r = analysis::compute_bounds(*far.schedule);
    return r.streams.size() == 1 && std::isfinite(r.streams[0].latency_bound_s);
  };
  EXPECT_TRUE(bounded(with(doc, "chiplets", "row", "4095")));
  EXPECT_TRUE(bounded(with(doc, "chiplets", "col", "4095")));
  EXPECT_TRUE(bounded(with(doc, "chiplets", "npu", "63")));
  EXPECT_TRUE(bounded(with(doc, "package", "inter_npu_hops", "64")));
  EXPECT_TRUE(bounded(with(degraded_doc, "failed_sites", "row", "4095")));
}

TEST(ScheduleBundleTest, MalformedPlacementsSurviveLoadForTheLinter) {
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = make_simba_package(2, 4);
  Schedule sched(pipe, pkg);
  sched.restore_placement(0, {{99, 1.0}});  // dangling, kept verbatim
  sched.assign(1, pkg.chiplets()[0].id);
  const ScheduleBundle rt = bundle_from_json(bundle_to_json(sched));
  EXPECT_EQ(rt.schedule->placement(0).shards[0].chiplet_id, 99);
  EXPECT_TRUE(
      validate(*rt.schedule).has_rule(analysis::kRuleSchedDanglingChiplet));
}

}  // namespace
}  // namespace cnpu
