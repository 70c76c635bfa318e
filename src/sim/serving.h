// Multi-tenant serving layer: policy-driven placement of N tenant
// workloads onto ONE package, the co-simulation entry point, and the
// package-level max-sustainable-load search.
//
// The paper evaluates one perception pipeline per package; a deployed
// multi-chiplet NPU multiplexes many concurrent streams — multiple
// cameras, vehicles, or tenant models — where TAIL latency under
// shared-fabric interference is the serving metric that matters (the
// p99-under-load discipline of the TPU datacenter study). This layer turns
// a list of TenantWorkload descriptions into per-tenant Schedules under a
// PlacementPolicy and admits them concurrently into the event simulator
// (src/sim/event_sim.h), which reports per-tenant p50/p95/p99, deadline
// misses, and drops:
//  * kShared      — every tenant chainwise-interleaves over ALL chiplets
//                   (tenant t starts its round-robin at chiplet t), so
//                   tenants overlap and contend for chiplets and links.
//  * kPartitioned — tenant t is confined to the static pool
//                   partition_tenant_pools(pkg, N)[t]: whole quadrants,
//                   disjoint while N <= #quadrants (spatial isolation).
//  * kPriority    — shared placement; a higher-priority tenant's ready
//                   work additionally preempts admission order at dispatch.
//
// max_sustainable_load answers the capacity-planning question: the largest
// per-tenant injection rate (FPS) at which EVERY tenant's p99 latency
// still meets its deadline. Each bisection round evaluates a batch of
// candidate rates in parallel through the sweep engine (src/exp), then
// narrows the feasible bracket; feasibility is assumed monotone in the
// injection rate (queueing latency is nondecreasing in load).
#pragma once

#include <string>
#include <vector>

#include "sim/event_sim.h"
#include "workloads/model.h"

namespace cnpu {

// One tenant's workload description, before placement: its stream
// (StreamSpec, src/sim/event_sim.h) plus what placement needs. Under
// run_at_rate / max_sustainable_load the probe overrides the interval or
// arrivals.rate_fps (kTrace tenants replay their trace unchanged: a
// recorded trace has no rate knob). The pipeline must outlive every call
// that receives the workload.
struct TenantWorkload : StreamSpec {
  std::string name;  // empty -> "tenant<index>"
  const PerceptionPipeline* pipeline = nullptr;
  int priority = 0;  // kPriority dispatch order (higher wins)
};

// Policy-resolved placement: one Schedule per tenant, all on `package`,
// plus the chiplet pool each tenant was allowed to use (all chiplets under
// kShared/kPriority). schedules[t] references the t-th workload's pipeline
// and `package`; both must outlive the placement.
struct TenantPlacement {
  std::vector<Schedule> schedules;
  std::vector<std::vector<int>> pools;
};

// Builds the per-tenant schedules for `policy` (see the header comment).
// Capacity-aware for all three policies when the package's memory model is
// active (arch/chiplet.h MemorySpec, core/residency.h): each tenant's
// chains spill within its pool to chiplets with room, and the COMBINED
// residency of all co-resident tenants must fit every chiplet —
// shared/priority packing that stacks tenants past a chiplet's weight or
// activation capacity is infeasible, as is a partitioned pool too small
// for its tenant(s). Throws std::invalid_argument on an empty tenant list,
// a null pipeline, or a capacity-infeasible placement (the message names
// the overflowing chiplets and footprints).
TenantPlacement place_tenants(const std::vector<TenantWorkload>& tenants,
                              const PackageConfig& package,
                              PlacementPolicy policy);

struct ServingOptions {
  PlacementPolicy policy = PlacementPolicy::kShared;
  NopMode nop_mode = NopMode::kAnalytical;
  // Optional runtime chiplet failure; every tenant remaps independently,
  // restricted to its pool under kPartitioned. Note the fault TRANSIENT is
  // package-wide by design (the reconfiguration stall halts every chiplet
  // and flushes every tenant's incomplete frames) — partitioning isolates
  // steady-state load and remap placement, not the fault transient (see
  // src/sim/event_sim.h).
  FaultPlan fault;
};

// Stable display name ("shared" / "partitioned" / "priority") for tables
// and artifacts.
const char* placement_policy_name(PlacementPolicy policy);

// The SimOptions a placed fleet runs under — what ServingPlan simulates and
// what validate(package, fleet) and compute_bounds(package, fleet) check:
// options' NoP model, fault and policy, and one TenantStream per workload
// in order, scheduled on placement.schedules[t] (so `placement` must
// outlive the result), named "tenant<t>" when the workload is unnamed,
// with the workload's StreamSpec and priority. Under kPartitioned the
// tenant's pool also restricts its fault remap (allowed_chiplets); under
// shared placement any survivor may help.
SimOptions fleet_sim_options(const std::vector<TenantWorkload>& tenants,
                             const TenantPlacement& placement,
                             const ServingOptions& options);

// A placed, engine-backed serving configuration: place the tenants ONCE
// (placement depends only on pipeline × package × policy, never on the
// injection rate) and re-simulate many times with compiled programs,
// routes, and all per-run simulator state reused. This is the warm path
// the max_sustainable_load bisection probes run on — a probe differs from
// its neighbors only in frame interval, so rebuilding placements and
// programs per probe (the pre-engine behavior) was pure setup churn.
// Results are bitwise-identical to serve_tenants on the equivalent
// workloads. The package and every tenant pipeline must outlive the plan;
// plans are single-threaded (one per worker slot in parallel searches).
class ServingPlan {
 public:
  // Validates and places like serve_tenants (same exceptions).
  ServingPlan(const PackageConfig& package,
              const std::vector<TenantWorkload>& tenants,
              const ServingOptions& options = {});

  // Co-simulates at each tenant's own frame_interval_s / arrival process.
  SimResult run();
  void run_into(SimResult& out);  // allocation-free once warm
  // Co-simulates with EVERY tenant's offered load overridden to fps: a
  // closed-loop tenant's frame interval becomes 1/fps, an open-loop
  // tenant's ArrivalSpec::rate_fps becomes fps (kTrace replays its trace
  // unchanged) — the max_sustainable_load probe shape.
  SimResult run_at_rate(double fps);
  void run_at_rate_into(double fps, SimResult& out);

  const TenantPlacement& placement() const { return placement_; }
  const EngineStats& engine_stats() const { return engine_.stats(); }

 private:
  TenantPlacement placement_;
  std::vector<double> base_interval_s_;  // the workloads' own intervals
  std::vector<double> base_rate_fps_;    // the workloads' own arrival rates
  SimOptions sim_;
  SimEngine engine_;
};

// Places the tenants under options.policy and co-simulates all streams on
// one package. The returned SimResult carries one TenantResult per
// workload (in order); the package-level fields aggregate all tenants. A
// single tenant under kShared is bitwise-identical to simulating
// build_chainwise_schedule(pipeline, package) alone (regression-pinned).
// Throws like simulate_schedule, plus std::invalid_argument on an empty
// tenant list or null pipeline.
//
// One-shot wrapper over ServingPlan: placements and programs are built,
// used once, and discarded. Callers probing many rates hold a ServingPlan.
SimResult serve_tenants(const PackageConfig& package,
                        const std::vector<TenantWorkload>& tenants,
                        const ServingOptions& options = {});

struct LoadSearchOptions {
  double fps_lo = 1.0;     // search floor (> 0)
  double fps_hi = 2000.0;  // search ceiling (> fps_lo)
  // Stop when the feasible bracket satisfies (hi - lo) / lo <= rel_tol.
  double rel_tol = 0.05;
  // Candidate rates evaluated in parallel per bisection round (>= 2).
  int probes_per_round = 4;
  int max_rounds = 10;
  int threads = 0;  // sweep-engine worker threads; 0 = hardware
  // Largest tolerated shed fraction (shed frames / offered frames, summed
  // over tenants) for a probe to stay feasible. The default 0.0 is strict:
  // with admission control active, ANY shed frame makes the rate
  // infeasible — sustained load then means "served without shedding".
  // Inert when no tenant sheds (shed_frames is always 0 there, preserving
  // the pre-arrivals feasibility semantics bitwise).
  double max_shed_fraction = 0.0;
  // Tighten the initial bracket with the static uniform-rate bound
  // (analysis::compute_bounds): rates above it provably diverge, so the
  // ceiling clamps to min(fps_hi, max(bound, fps_lo)) before the first
  // round — fewer wasted probes deep in the infeasible region. Purely a
  // bracket optimization: the probes themselves still decide feasibility.
  // Default off so existing searches stay bitwise-identical.
  bool use_static_bound = false;
};

// One evaluated offered load (per-tenant injection rate).
struct LoadProbe {
  double fps = 0.0;
  double worst_p99_s = 0.0;  // max over tenants (NaN when nothing completed)
  int deadline_misses = 0;   // summed over tenants
  int shed_frames = 0;       // summed over tenants (admission control)
  bool feasible = false;     // every tenant's p99 <= its deadline, and the
                             // shed fraction <= max_shed_fraction
};

struct LoadSearchResult {
  // Largest probed rate at which every tenant's p99 met its deadline; 0.0
  // when even fps_lo is infeasible. Equal to fps_hi when every probe was
  // feasible (the true limit lies above the search ceiling).
  double max_fps = 0.0;
  // Smallest probed infeasible rate; 0.0 when every probe was feasible.
  double min_infeasible_fps = 0.0;
  int rounds = 0;
  std::vector<LoadProbe> probes;  // every probe, in evaluation order
};

// Bisects the per-tenant injection rate: all tenants run at the SAME
// candidate rate (their frame_interval_s is overridden with 1/fps); each
// round's candidates are evaluated concurrently via SweepRunner::map, so
// the search is deterministic for any thread count. Throws
// std::invalid_argument when any tenant's deadline_s is <= 0 (feasibility
// would be vacuous), on a non-positive/inverted [fps_lo, fps_hi], or
// probes_per_round < 2. A probe that throws ends the search with its own
// exception once its round has run; when several probes of a round throw,
// the lowest-rate one's propagates.
//
// With an active memory model and a fault in `options`, the probes run the
// full reload charging (SimResult::reload_bytes/reload_time_s): cold-start
// reload stalls inflate the post-fault tail, so the sustainable rate under
// finite reload bandwidth is at most the infinite-bandwidth one — the
// search reflects reload-induced tail inflation with no extra knobs.
LoadSearchResult max_sustainable_load(const PackageConfig& package,
                                      const std::vector<TenantWorkload>& tenants,
                                      const ServingOptions& options,
                                      const LoadSearchOptions& search = {});

}  // namespace cnpu
