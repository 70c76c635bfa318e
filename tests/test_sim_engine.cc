// SimEngine contract tests: the reusable engine must be bitwise-identical
// to the one-shot simulate_schedule across every workload shape, reset()
// must restore the freshly-constructed engine, EngineStats must account
// the cache honestly, and — the point of the whole refactor — warm
// steady-state runs must perform ZERO heap allocations.
//
// The allocation assertion works by replacing the global operator
// new/delete with counting forwarders to malloc/free (ASan still
// intercepts the underlying malloc, so the sanitizer job checks the same
// property). Only the delta across one run_into call is asserted; gtest's
// own allocations outside the window don't matter.
#include "sim/event_sim.h"

#include <gtest/gtest.h>

// GCC pairs the inlined bodies of the replaced operators below (new ->
// malloc, delete -> free) with ordinary new/delete expressions and flags
// every deallocation as mismatched. The pairing is the whole point of the
// counting allocator, so silence the heuristic for this file.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/baselines.h"
#include "dataflow/layer.h"
#include "sim/serving.h"
#include "sim_result_eq.h"
#include "workloads/model.h"
#include "workloads/zoo.h"

namespace {
// Counts every global operator new (scalar and array) on this thread.
// File-scope rather than function-local so the replaced operators below
// can bump it without any locking.
thread_local long long g_new_calls = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The nothrow forms must be replaced too: std::stable_sort's temporary
// buffer allocates through operator new(size, nothrow) but frees through
// plain operator delete, and replacing only one side trips ASan's
// alloc-dealloc-mismatch check.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_new_calls;
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_new_calls;
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cnpu {
namespace {

using testutil::expect_sim_results_bits_eq;

// Two stages, three layers, four chiplets: enough structure for cross-stage
// edges, ingress transfers, and a meaningful remap when a chiplet dies.
PerceptionPipeline make_pipe() {
  PerceptionPipeline p;
  Model a;
  a.name = "A";
  a.layers = {gemm("a0", 4096, 64, 64), gemm("a1", 2048, 64, 64)};
  Model b;
  b.name = "B";
  b.layers = {gemm("b0", 4096, 64, 64)};
  p.stages.push_back(Stage{"S0", {{a, false}}});
  p.stages.push_back(Stage{"S1", {{b, false}}});
  return p;
}

Schedule make_schedule(const PerceptionPipeline& pipe,
                       const PackageConfig& pkg, int offset) {
  Schedule sched(pipe, pkg);
  const int n = pkg.num_chiplets();
  for (int i = 0; i < sched.num_items(); ++i) {
    sched.assign(i, (i + offset) % n);
  }
  return sched;
}

// A chiplet that is safe to kill: not the package I/O entry router. Every
// package in this file is the 2x2 simba mesh, whose I/O port enters at
// mesh coordinate ((rows-1)/2, 0) = (0, 0).
int pick_victim(const PackageConfig& pkg) {
  const GridCoord io_entry{0, 0};
  for (int c = pkg.num_chiplets() - 1; c >= 0; --c) {
    if (!(pkg.chiplet(c).coord == io_entry)) return c;
  }
  return -1;
}

FaultPlan make_fault(const PackageConfig& pkg) {
  FaultPlan fault;
  fault.chiplet_id = pick_victim(pkg);
  fault.fail_time_s = 1e-6;
  fault.recover_time_s = 3e-4;
  fault.reschedule_penalty_s = 2e-5;
  return fault;
}

// The shape matrix every identity test walks: analytical burst, periodic
// with deadline, contended fabric, fault with and without contention.
std::vector<std::pair<const char*, SimOptions>> option_shapes(
    const PackageConfig& pkg) {
  std::vector<std::pair<const char*, SimOptions>> shapes;

  SimOptions burst;
  burst.frames = 8;
  shapes.emplace_back("analytical burst", burst);

  SimOptions periodic = burst;
  periodic.frame_interval_s = 1e-4;
  periodic.deadline_s = 5e-4;
  shapes.emplace_back("periodic with deadline", periodic);

  SimOptions contended = burst;
  contended.nop_mode = NopMode::kContended;
  shapes.emplace_back("contended", contended);

  SimOptions faulted = periodic;
  faulted.fault = make_fault(pkg);
  shapes.emplace_back("fault analytical", faulted);

  SimOptions faulted_contended = faulted;
  faulted_contended.nop_mode = NopMode::kContended;
  shapes.emplace_back("fault contended", faulted_contended);

  return shapes;
}

// Two tenants on distinct placements of the same pipeline, priority
// dispatch, a mid-stream fault — the busiest shape the engine serves.
SimOptions tenant_options(const Schedule& s0, const Schedule& s1,
                          const PackageConfig& pkg) {
  SimOptions opt;
  opt.policy = PlacementPolicy::kPriority;
  opt.fault = make_fault(pkg);
  TenantStream t0;
  t0.name = "a";  // short: SSO, so result-name assignment never allocates
  t0.schedule = &s0;
  t0.frames = 6;
  t0.frame_interval_s = 5e-5;
  t0.deadline_s = 6e-4;
  t0.priority = 1;
  TenantStream t1 = t0;
  t1.name = "b";
  t1.schedule = &s1;
  t1.frame_interval_s = 8e-5;
  t1.priority = 0;
  opt.tenants = {t0, t1};
  return opt;
}

// One engine, many shapes, each run twice: every run must reproduce the
// one-shot simulator bit for bit, including the second (cache-hitting,
// warm-started) pass, and including cross-shape pollution — the fault
// shapes run after the clean ones on the same engine.
TEST(SimEngine, RepeatedRunsBitwiseIdenticalToOneShot) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 0);

  SimEngine engine;
  for (const auto& [label, opt] : option_shapes(pkg)) {
    SCOPED_TRACE(label);
    const SimResult fresh = simulate_schedule(sched, opt);
    const SimResult warm1 = engine.run(sched, opt);
    const SimResult warm2 = engine.run(sched, opt);
    expect_sim_results_bits_eq(fresh, warm1);
    expect_sim_results_bits_eq(fresh, warm2);
  }
}

TEST(SimEngine, MultiTenantRunsBitwiseIdenticalToOneShot) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule s0 = make_schedule(pipe, pkg, 0);
  const Schedule s1 = make_schedule(pipe, pkg, 1);
  const SimOptions opt = tenant_options(s0, s1, pkg);

  const SimResult fresh = simulate_schedule(s0, opt);
  SimEngine engine;
  const SimResult warm1 = engine.run(s0, opt);
  const SimResult warm2 = engine.run(s0, opt);
  expect_sim_results_bits_eq(fresh, warm1);
  expect_sim_results_bits_eq(fresh, warm2);
}

// link_stats are sorted by link whatever a warm engine's link registry
// already holds. The engine first simulates another contended schedule,
// which registers its links in first-use order, then a faulted contended
// fan-in whose run unions its primary and degraded programs' links. Both
// outputs must be strictly increasing by NopLink, and the warm fault run
// bitwise-equal to a one-shot run.
TEST(SimEngine, LinkStatsSortedByLinkAfterOtherSchedules) {
  const PackageConfig pkg = make_simba_package();
  const PerceptionPipeline other_pipe = build_fanin_pipeline(8);
  const Schedule other = build_chainwise_schedule(other_pipe, pkg);
  const PerceptionPipeline pipe = build_fanin_pipeline(2);
  const Schedule sched = build_fanin_schedule(pipe, pkg);

  SimOptions contended;
  contended.frames = 6;
  contended.nop_mode = NopMode::kContended;
  SimOptions faulted = contended;
  faulted.frame_interval_s = 1e-3;
  faulted.fault.chiplet_id = 1;  // a producer; the I/O port is elsewhere
  faulted.fault.fail_time_s = 2e-3;
  faulted.fault.recover_time_s = 4e-3;
  faulted.fault.reschedule_penalty_s = 1e-4;

  SimEngine engine;
  const SimResult first = engine.run(other, contended);
  ASSERT_FALSE(first.link_stats.empty());
  testutil::expect_links_strictly_increasing(first);
  const SimResult warm = engine.run(sched, faulted);
  EXPECT_GT(warm.remapped_items, 0);  // the degraded program really ran
  ASSERT_FALSE(warm.link_stats.empty());
  testutil::expect_links_strictly_increasing(warm);
  expect_sim_results_bits_eq(simulate_schedule(sched, faulted), warm);
}

// run_into must overwrite EVERY field of a dirty output object.
TEST(SimEngine, RunIntoOverwritesStaleOutput) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 0);

  SimOptions clean;
  clean.frames = 6;
  SimOptions faulted = clean;
  faulted.deadline_s = 1e-5;  // tight: the fault flush drops frames
  faulted.fault = make_fault(pkg);

  SimEngine engine;
  SimResult out;
  engine.run_into(sched, faulted, out);  // dirties fault fields + tenants
  engine.run_into(sched, clean, out);
  expect_sim_results_bits_eq(simulate_schedule(sched, clean), out);
  EXPECT_EQ(out.dropped_frames, 0);
  EXPECT_EQ(out.remapped_items, 0);
}

// reset() must erase fault/tenant/cache state AND the stats, leaving the
// engine indistinguishable from a freshly constructed one.
TEST(SimEngine, ResetRestoresFreshlyConstructedBehavior) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule s0 = make_schedule(pipe, pkg, 0);
  const Schedule s1 = make_schedule(pipe, pkg, 1);

  SimEngine engine;
  (void)engine.run(s0, tenant_options(s0, s1, pkg));  // fault + tenants
  EXPECT_GT(engine.stats().runs, 0);
  EXPECT_GT(engine.stats().program_builds, 0);

  engine.reset();
  EXPECT_EQ(engine.stats().runs, 0);
  EXPECT_EQ(engine.stats().program_builds, 0);
  EXPECT_EQ(engine.stats().program_cache_hits, 0);
  EXPECT_EQ(engine.stats().warm_starts, 0);

  SimOptions clean;
  clean.frames = 8;
  SimEngine pristine;
  expect_sim_results_bits_eq(pristine.run(s0, clean), engine.run(s0, clean));
  // The post-reset run rebuilt its program from scratch, like `pristine`.
  EXPECT_EQ(engine.stats().runs, 1);
  EXPECT_EQ(engine.stats().program_builds, 1);
  EXPECT_EQ(engine.stats().program_cache_hits, 0);
}

// The cache ledger: first run builds, repeats hit, a fault adds exactly
// one degraded build, and every same-shape repeat is a warm start.
TEST(SimEngine, StatsAccountCacheHitsAndWarmStarts) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 0);

  SimOptions clean;
  clean.frames = 8;
  SimOptions faulted = clean;
  faulted.fault = make_fault(pkg);

  SimEngine engine;
  (void)engine.run(sched, clean);
  EXPECT_EQ(engine.stats().program_builds, 1);
  EXPECT_EQ(engine.stats().program_cache_hits, 0);
  EXPECT_EQ(engine.stats().warm_starts, 0);

  (void)engine.run(sched, clean);
  EXPECT_EQ(engine.stats().program_builds, 1);
  EXPECT_EQ(engine.stats().program_cache_hits, 1);
  EXPECT_EQ(engine.stats().warm_starts, 1);

  // Fault run: the primary program hits, the degraded variant builds once.
  (void)engine.run(sched, faulted);
  EXPECT_EQ(engine.stats().program_builds, 2);
  EXPECT_EQ(engine.stats().program_cache_hits, 2);

  // Second fault run: both primary and degraded hit; nothing builds.
  (void)engine.run(sched, faulted);
  EXPECT_EQ(engine.stats().program_builds, 2);
  EXPECT_EQ(engine.stats().program_cache_hits, 4);
  // Admission instants never changed shape, so every repeat warm-started.
  EXPECT_EQ(engine.stats().warm_starts, 3);
  EXPECT_EQ(engine.stats().runs, 4);
}

// The acceptance criterion of the refactor: after two warm-up passes on a
// shape, a further run_into performs ZERO heap allocations — analytical,
// contended, and multi-tenant-with-fault alike.
TEST(SimEngine, SteadyStateRunsAreAllocationFree) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule s0 = make_schedule(pipe, pkg, 0);
  const Schedule s1 = make_schedule(pipe, pkg, 1);

  std::vector<std::pair<const char*, SimOptions>> shapes = option_shapes(pkg);
  shapes.emplace_back("multi-tenant fault priority",
                      tenant_options(s0, s1, pkg));

  SimEngine engine;
  SimResult out;
  for (const auto& [label, opt] : shapes) {
    SCOPED_TRACE(label);
    // Two warm-ups: the first sizes every arena and compiles programs, the
    // second re-establishes the warm-start dispatch order after the
    // preceding shape disturbed it.
    engine.run_into(s0, opt, out);
    engine.run_into(s0, opt, out);
    const long long before = g_new_calls;
    engine.run_into(s0, opt, out);
    const long long allocs = g_new_calls - before;
    EXPECT_EQ(allocs, 0) << label << ": steady-state run allocated";
  }
}

// ServingPlan is the warm path the load search probes run on: it must
// reproduce the one-shot serve_tenants bitwise, on repeat, and its
// engine must be demonstrably reusing compiled programs.
TEST(ServingPlanTest, MatchesServeTenantsBitwiseAndReusesPrograms) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  std::vector<TenantWorkload> fleet(2);
  fleet[0].name = "t0";
  fleet[0].pipeline = &pipe;
  fleet[0].frames = 6;
  fleet[0].frame_interval_s = 5e-5;
  fleet[0].deadline_s = 8e-4;
  fleet[1] = fleet[0];
  fleet[1].name = "t1";
  fleet[1].priority = 1;

  for (const PlacementPolicy policy :
       {PlacementPolicy::kShared, PlacementPolicy::kPartitioned,
        PlacementPolicy::kPriority}) {
    SCOPED_TRACE(placement_policy_name(policy));
    ServingOptions opt;
    opt.policy = policy;
    const SimResult fresh = serve_tenants(pkg, fleet, opt);
    ServingPlan plan(pkg, fleet, opt);
    expect_sim_results_bits_eq(fresh, plan.run());
    expect_sim_results_bits_eq(fresh, plan.run());
    EXPECT_GT(plan.engine_stats().program_cache_hits, 0);

    // run_at_rate == serve_tenants with every interval forced to 1/fps,
    // and a later run() still honors the workloads' own intervals.
    const double fps = 400.0;
    std::vector<TenantWorkload> loaded = fleet;
    for (TenantWorkload& w : loaded) w.frame_interval_s = 1.0 / fps;
    expect_sim_results_bits_eq(serve_tenants(pkg, loaded, opt),
                               plan.run_at_rate(fps));
    expect_sim_results_bits_eq(fresh, plan.run());
  }
}

}  // namespace
}  // namespace cnpu
