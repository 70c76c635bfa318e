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
// own allocations outside the window don't matter. The same counter pins
// the allocations of degraded hop counts and of Algorithm 1's steps.
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
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/baselines.h"
#include "core/throughput_matching.h"
#include "dataflow/layer.h"
#include "sim/serving.h"
#include "sim_result_eq.h"
#include "workloads/autopilot.h"
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
  EXPECT_GT(engine.stats().pushes.total(), 0);
  EXPECT_GT(engine.stats().event_heap_peak, 0);

  engine.reset();
  EXPECT_EQ(engine.stats().runs, 0);
  EXPECT_EQ(engine.stats().program_builds, 0);
  EXPECT_EQ(engine.stats().program_cache_hits, 0);
  EXPECT_EQ(engine.stats().warm_starts, 0);
  EXPECT_EQ(engine.stats().tasks_executed, 0);
  EXPECT_EQ(engine.stats().pushes.total(), 0);
  EXPECT_EQ(engine.stats().busy_dispatches, 0);
  EXPECT_EQ(engine.stats().idle_dispatches, 0);
  EXPECT_EQ(engine.stats().stale_finishes, 0);
  EXPECT_EQ(engine.stats().event_heap_peak, 0);

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

// The event-loop counters add up: each executed task pushes exactly one
// finish event, a fault adds its own two events, and admissions and
// wake-ups at the instant being processed stay out of the heap, so a
// burst pushes well under two events per task.
TEST(SimEngine, StatsCountTheEventLoop) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 0);

  SimOptions burst;
  burst.frames = 8;
  SimEngine engine;
  const SimResult r = engine.run(sched, burst);
  const EngineStats& s = engine.stats();
  EXPECT_EQ(s.tasks_executed, r.tasks_executed);
  EXPECT_EQ(s.pushes.finish, r.tasks_executed);
  EXPECT_EQ(s.pushes.fault + s.pushes.recover, 0);
  EXPECT_EQ(s.stale_finishes, 0);
  EXPECT_GT(s.event_heap_peak, 0);
  EXPECT_LT(s.pushes.total(), 2 * s.tasks_executed);

  // A fault while the burst's later frames run revokes in-flight tasks:
  // their finish events pop stale.
  SimOptions faulted = burst;
  faulted.fault = make_fault(pkg);
  faulted.fault.fail_time_s = r.frame_completion_s[0];
  const SimResult f = engine.run(sched, faulted);
  EXPECT_EQ(s.tasks_executed, r.tasks_executed + f.tasks_executed);
  EXPECT_EQ(s.pushes.finish, s.tasks_executed);
  EXPECT_EQ(s.pushes.fault, 1);
  EXPECT_EQ(s.pushes.recover, 1);
  EXPECT_GT(s.stale_finishes, 0);
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

// A program build allocates once per array of the compiled program and of
// its link list, never per item, edge, message or route. Each count is one
// run of a fresh copy of a matched autopilot schedule on an engine that
// already ran the original, so the copy misses the program cache while
// every link is already registered and every run buffer is sized: the run
// allocates the cache entry's map node, the program's six arrays (shard
// and out-edge offsets, shards, out-edges, ingress edges, base dependency
// counts) and, when contended, its messages, their links and the entry's
// canonical link list.
TEST(SimEngine, ProgramBuildAllocationsDoNotGrowWithTheSchedule) {
  const PackageConfig pkg = make_simba_package();
  for (const auto& [mode, pinned] : {std::pair{NopMode::kAnalytical, 7LL},
                                     std::pair{NopMode::kContended, 10LL}}) {
    SCOPED_TRACE(mode == NopMode::kContended ? "contended" : "analytical");
    for (const int cameras : {4, 8, 12}) {
      SCOPED_TRACE(std::to_string(cameras) + " cameras");
      AutopilotConfig cfg;
      cfg.num_cameras = cameras;
      cfg.fusion.num_cameras = cameras;
      const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
      const MatchResult match = throughput_matching(pipe, pkg);
      SimOptions opt;
      opt.frames = 2;
      opt.nop_mode = mode;
      SimEngine engine;
      SimResult out;
      engine.run_into(match.schedule, opt, out);
      const Schedule copy = match.schedule;
      const long long before = g_new_calls;
      engine.run_into(copy, opt, out);
      const long long allocs = g_new_calls - before;
      EXPECT_EQ(engine.stats().program_builds, 2);
      EXPECT_EQ(allocs, pinned);
    }
  }
}

// Algorithm 1's steps reuse their buffers and refold only what they
// re-place, so a match's allocations are mostly fixed: one shard vector
// per item from the initial assignment, the schedule and the shard-cost
// table. The two matches differ only in tolerance: the tighter one takes
// 11 more steps on the same 8-camera design, and each extra step allocates
// its re-placed item's shard vector and, at most, its action string, a
// stage-pool node and a share of the trace's and the table's growth.
TEST(ThroughputMatching, AllocationsPerExtraStepArePinned) {
  const PackageConfig pkg = make_simba_package();
  AutopilotConfig cfg;
  cfg.num_cameras = 8;
  cfg.fusion.num_cameras = 8;
  cfg.fusion.queue_frames = 18;
  const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
  long long allocs[2] = {};
  std::size_t steps[2] = {};
  for (const int k : {0, 1}) {
    MatchOptions mo;
    mo.tolerance = k == 0 ? 0.30 : 0.02;
    const long long before = g_new_calls;
    const MatchResult match = throughput_matching(pipe, pkg, mo);
    allocs[k] = g_new_calls - before;
    steps[k] = match.trace.size();
  }
  ASSERT_EQ(steps[1] - steps[0], 11u);
  EXPECT_LE(allocs[1] - allocs[0], 18)
      << "allocations per extra step grew: " << allocs[0] << " -> "
      << allocs[1] << " over " << steps[1] - steps[0] << " steps";
}

// A degraded package prices its NoP edges through hops_between and
// hops_from_io in the evaluator's hot path. When the straight XY walk
// misses every failed site, counting the route's links must not build it.
TEST(PackageRouting, DegradedHopCountOnUnblockedWalkAllocatesNothing) {
  const PackageConfig pkg = make_simba_package(4, 4).without_chiplet(15);
  const long long before = g_new_calls;
  const int between = pkg.hops_between(0, 3);
  const int from_io = pkg.hops_from_io(2);
  const long long allocs = g_new_calls - before;
  EXPECT_EQ(between, 3);
  EXPECT_EQ(from_io, 4);
  EXPECT_EQ(allocs, 0) << "degraded hop count allocated";
}

// --- Event-order corner cases, pinned by whole-result digest --------------
//
// Each case sits where same-instant events interleave: a fault flush on a
// completion instant, wake-ups at the flush instant itself, evictions on
// the admission grid, zero-delay arrivals, and tied admissions reordered
// by priority. The digests (testutil::sim_result_digest) were captured
// while every admission and every dispatch wake-up was an event-heap
// entry, so they pin that keeping them out of the heap changes nothing
// observable. A warm engine must reproduce the one-shot result.
void expect_pinned(const Schedule& sched, const SimOptions& opt,
                   std::uint64_t digest) {
  const SimResult fresh = simulate_schedule(sched, opt);
  SimEngine engine;
  expect_sim_results_bits_eq(fresh, engine.run(sched, opt));
  expect_sim_results_bits_eq(fresh, engine.run(sched, opt));
  EXPECT_EQ(testutil::sim_result_digest(fresh), digest)
      << std::hex << "digest 0x" << testutil::sim_result_digest(fresh);
}

// Contended, memory model active: the chiplet fails at the instant a frame
// completes (the finish lands first) and recovers at an admission instant.
// It hosts the first layer, so the frame admitted there queues work on a
// chiplet that is still reloading its weights, and only the recovery's
// wake-up dispatches it.
TEST(SimEngineCorner, FaultOnCompletionRecoverOnAdmission) {
  const PerceptionPipeline pipe = make_pipe();
  PackageConfig pkg = make_simba_package(2, 2);
  MemorySpec mem;
  mem.reload_bandwidth_bytes_per_s = 25.0e9;
  pkg.set_memory(mem);
  const Schedule sched = make_schedule(pipe, pkg, 3);
  ASSERT_EQ(sched.placement(0).primary_chiplet(), pick_victim(pkg));

  SimOptions opt;
  opt.frames = 16;
  opt.frame_interval_s = 8e-5;
  opt.nop_mode = NopMode::kContended;
  const SimResult healthy = simulate_schedule(sched, opt);
  opt.fault.chiplet_id = pick_victim(pkg);
  opt.fault.fail_time_s = healthy.frame_completion_s[2];
  // Frame f is admitted at exactly f * frame_interval_s.
  const int recover_frame =
      static_cast<int>(opt.fault.fail_time_s / opt.frame_interval_s) + 2;
  ASSERT_LT(recover_frame, opt.frames);
  opt.fault.recover_time_s =
      static_cast<double>(recover_frame) * opt.frame_interval_s;
  opt.fault.reschedule_penalty_s = 3e-5;

  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_GT(r.remapped_items, 0);
  EXPECT_GT(r.reload_bytes, 0.0);
  EXPECT_FALSE(r.link_stats.empty());
  EXPECT_EQ(r.frame_completion_s[2], opt.fault.fail_time_s);
  expect_pinned(sched, opt, 0xe620586bf429a68full);
}

// No reconfiguration stall: every survivor's wake-up lands on the fault
// instant itself, after that instant's finishes and before the flush.
TEST(SimEngineCorner, ZeroReschedulePenalty) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 1);
  SimOptions opt;
  opt.frames = 10;
  opt.frame_interval_s = 3e-5;
  opt.deadline_s = 4e-4;
  opt.fault = make_fault(pkg);
  opt.fault.fail_time_s = 1e-4;
  opt.fault.reschedule_penalty_s = 0.0;

  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_GT(r.remapped_items, 0);
  expect_pinned(sched, opt, 0x467ccd940072aa05ull);
}

// An overloaded stream with a bounded drop-newest queue and expired-frame
// eviction, its deadline a whole number of frame intervals: evictions and
// admissions fall on the same instants.
TEST(SimEngineCorner, ShedExpiredDropNewestOnTheIntervalGrid) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 0);
  SimOptions opt;
  opt.frames = 24;
  opt.frame_interval_s = 1e-5;
  opt.deadline_s = 6.0 * opt.frame_interval_s;
  opt.admission.queue_capacity = 2;
  opt.admission.policy = ShedPolicy::kDropNewest;
  opt.admission.shed_expired = true;

  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_GT(r.shed_frames, 0);
  EXPECT_GT(r.frames_completed, 0);
  expect_pinned(sched, opt, 0x8025e7b4eb7c1dafull);
}

// Sharded items without NoP delays: every arrival is zero-delay, the even
// shards of an item finish at one instant on several chiplets, and the
// last of those finishes releases the successors' shards at that instant.
TEST(SimEngineCorner, ShardedItemsWithZeroDelayArrivals) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  Schedule sched(pipe, pkg);
  sched.assign_sharded(0, {0, 1, 2, 3});
  sched.assign_sharded(1, {0, 1});
  sched.assign_sharded(2, {2, 3});
  SimOptions opt;
  opt.frames = 6;
  opt.frame_interval_s = 2e-5;
  opt.nop_mode = NopMode::kOff;

  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_EQ(r.frames_completed, opt.frames);
  expect_pinned(sched, opt, 0x8796c75031d4847full);
}

// kPriority with two tenants admitted at identical instants: the tied
// admissions run in job order, so their ingress messages queue on the
// contended links in that order, while the higher-priority tenant (listed
// second) dispatches first.
TEST(SimEngineCorner, PriorityTenantsAdmittedTogether) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule s0 = make_schedule(pipe, pkg, 0);
  const Schedule s1 = make_schedule(pipe, pkg, 1);
  SimOptions opt;
  opt.policy = PlacementPolicy::kPriority;
  opt.nop_mode = NopMode::kContended;
  TenantStream t0;
  t0.name = "lo";
  t0.schedule = &s0;
  t0.frames = 8;
  t0.frame_interval_s = 3e-5;
  t0.deadline_s = 5e-4;
  TenantStream t1 = t0;
  t1.name = "hi";
  t1.schedule = &s1;
  t1.priority = 2;
  opt.tenants = {t0, t1};

  const SimResult r = simulate_schedule(s0, opt);
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_LT(r.tenants[1].mean_latency_s, r.tenants[0].mean_latency_s);
  expect_pinned(s0, opt, 0x570303c9d1b8f6fcull);
}

// A bounded queue across a fault flush. The overloaded stream fills its
// queue before chiplet 3 fails; the flush drops the frames whose deadline
// has passed by the end of the stall and re-admits the rest, and the shed
// decisions after the flush read the queue those two moves left behind.
SimOptions queue_across_fault(ShedPolicy policy, int capacity,
                              double deadline_intervals) {
  SimOptions opt;
  opt.frames = 24;
  opt.frame_interval_s = 1e-5;
  opt.deadline_s = deadline_intervals * opt.frame_interval_s;
  opt.admission.queue_capacity = capacity;
  opt.admission.policy = policy;
  opt.fault.chiplet_id = 3;
  opt.fault.fail_time_s = 4 * opt.frame_interval_s;
  opt.fault.recover_time_s = 10 * opt.frame_interval_s;
  opt.fault.reschedule_penalty_s = 2e-5;
  return opt;
}

// A frame the flush drops leaves the queue: later arrivals find room.
TEST(SimEngineCorner, FaultDroppedFramesLeaveTheQueue) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 0);
  const SimOptions opt = queue_across_fault(ShedPolicy::kRejectNew, 1, 2.0);

  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_EQ(r.frames_completed, 3);
  EXPECT_EQ(r.shed_frames, 19);
  EXPECT_EQ(r.dropped_frames, 2);
  expect_pinned(sched, opt, 0x71f8d38b87094335ull);
}

// A started frame the flush re-admits is queued again: it counts against
// the capacity until it dispatches once more.
TEST(SimEngineCorner, FaultReadmittedFramesQueueAgain) {
  const PerceptionPipeline pipe = make_pipe();
  const PackageConfig pkg = make_simba_package(2, 2);
  const Schedule sched = make_schedule(pipe, pkg, 0);
  const SimOptions opt = queue_across_fault(ShedPolicy::kDropOldest, 3, 6.0);

  const SimResult r = simulate_schedule(sched, opt);
  EXPECT_EQ(r.frames_completed, 6);
  EXPECT_EQ(r.shed_frames, 18);
  EXPECT_EQ(r.dropped_frames, 0);
  expect_pinned(sched, opt, 0x87bea9cfef568a09ull);
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
