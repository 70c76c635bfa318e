#include "sim/serving.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "analysis/bounds.h"
#include "analysis/validate.h"
#include "core/baselines.h"
#include "core/partition.h"
#include "core/residency.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"

namespace cnpu {
namespace {

void validate_tenants(const std::vector<TenantWorkload>& tenants) {
  if (tenants.empty()) {
    throw std::invalid_argument("serve_tenants: no tenant workloads");
  }
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].pipeline == nullptr) {
      throw std::invalid_argument("serve_tenants: tenant " +
                                  std::to_string(t) + " has no pipeline");
    }
  }
}

}  // namespace

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kShared: return "shared";
    case PlacementPolicy::kPartitioned: return "partitioned";
    case PlacementPolicy::kPriority: return "priority";
  }
  return "?";
}

TenantPlacement place_tenants(const std::vector<TenantWorkload>& tenants,
                              const PackageConfig& package,
                              PlacementPolicy policy) {
  validate_tenants(tenants);
  const int n = static_cast<int>(tenants.size());
  TenantPlacement placement;
  placement.schedules.reserve(tenants.size());
  placement.pools.reserve(tenants.size());
  if (policy == PlacementPolicy::kPartitioned) {
    placement.pools = partition_tenant_pools(package, n);
    for (int t = 0; t < n; ++t) {
      placement.schedules.push_back(build_pool_schedule(
          *tenants[static_cast<std::size_t>(t)].pipeline, package,
          placement.pools[static_cast<std::size_t>(t)], 0));
    }
  } else {
    // kShared / kPriority: every tenant round-robins over ALL chiplets,
    // starting at chiplet index t. Tenants place themselves as if alone
    // (uncoordinated), so their chains overlap and interference is real;
    // tenant 0 at offset 0 is exactly build_chainwise_schedule, which pins
    // the single-tenant bitwise-identity guarantee.
    std::vector<int> all;
    all.reserve(package.chiplets().size());
    for (const auto& c : package.chiplets()) all.push_back(c.id);
    for (int t = 0; t < n; ++t) {
      placement.schedules.push_back(build_pool_schedule(
          *tenants[static_cast<std::size_t>(t)].pipeline, package, all, t));
      placement.pools.push_back(all);
    }
  }
  // Capacity check across co-resident tenants (core/residency.h). Each
  // build_pool_schedule call above fits its OWN tenant (spilling or
  // throwing per-pool), but shared/priority tenants place themselves as if
  // alone, so their combined weights can stack one chiplet past capacity —
  // and partitioned pools are reused cyclically when tenants outnumber
  // quadrants. The combined residency is the honest footprint; an
  // overflowing placement is infeasible and throws with a diagnostic
  // rather than silently pretending the weights fit.
  if (package.memory_model_active()) {
    std::vector<const Schedule*> scheds;
    scheds.reserve(placement.schedules.size());
    for (const auto& s : placement.schedules) scheds.push_back(&s);
    const ResidencyReport combined = compute_residency(scheds, package);
    if (combined.overflow) {
      throw std::invalid_argument(
          std::string("place_tenants: ") + placement_policy_name(policy) +
          " placement overflows chiplet memory with " + std::to_string(n) +
          " co-resident tenant(s) — " + combined.describe_overflow());
    }
  }
  return placement;
}

SimOptions fleet_sim_options(const std::vector<TenantWorkload>& tenants,
                             const TenantPlacement& placement,
                             const ServingOptions& options) {
  SimOptions sim;
  sim.nop_mode = options.nop_mode;
  sim.fault = options.fault;
  sim.policy = options.policy;
  sim.tenants.reserve(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const TenantWorkload& w = tenants[t];
    TenantStream stream;
    static_cast<StreamSpec&>(stream) = w;
    stream.name = w.name.empty() ? "tenant" + std::to_string(t) : w.name;
    stream.schedule = &placement.schedules[t];
    stream.priority = w.priority;
    if (options.policy == PlacementPolicy::kPartitioned) {
      stream.allowed_chiplets = placement.pools[t];
    }
    sim.tenants.push_back(std::move(stream));
  }
  return sim;
}

// The schedule pointers in sim_ stay valid when the plan is moved: vector
// moves transfer the heap buffer holding placement_'s Schedule objects.
ServingPlan::ServingPlan(const PackageConfig& package,
                         const std::vector<TenantWorkload>& tenants,
                         const ServingOptions& options)
    : placement_(place_tenants(tenants, package, options.policy)),
      sim_(fleet_sim_options(tenants, placement_, options)) {
  for (const TenantStream& stream : sim_.tenants) {
    base_interval_s_.push_back(stream.frame_interval_s);
    base_rate_fps_.push_back(stream.arrivals.rate_fps);
  }
}

void ServingPlan::run_into(SimResult& out) {
  // Restore the workloads' own intervals and arrival rates (a prior
  // run_at_rate overrode them in place).
  for (std::size_t t = 0; t < sim_.tenants.size(); ++t) {
    sim_.tenants[t].frame_interval_s = base_interval_s_[t];
    sim_.tenants[t].arrivals.rate_fps = base_rate_fps_[t];
  }
  engine_.run_into(placement_.schedules.front(), sim_, out);
}

SimResult ServingPlan::run() {
  SimResult out;
  run_into(out);
  return out;
}

void ServingPlan::run_at_rate_into(double fps, SimResult& out) {
  // Offered load fps for every tenant: the closed-loop knob is the frame
  // interval, the open-loop knob is the process's mean rate (a kTrace
  // tenant has neither — it replays its recorded instants regardless of
  // the probed rate, and rate_fps is ignored by trace generation).
  for (TenantStream& stream : sim_.tenants) {
    stream.frame_interval_s = 1.0 / fps;
    if (stream.arrivals.active()) stream.arrivals.rate_fps = fps;
  }
  engine_.run_into(placement_.schedules.front(), sim_, out);
}

SimResult ServingPlan::run_at_rate(double fps) {
  SimResult out;
  run_at_rate_into(fps, out);
  return out;
}

SimResult serve_tenants(const PackageConfig& package,
                        const std::vector<TenantWorkload>& tenants,
                        const ServingOptions& options) {
  // Full static verification up front (src/analysis/validate.h); enforced
  // rules raise the placement/engine exception types, so only fleets the
  // runtime would reject are refused. The warm ServingPlan path skips it:
  // max_sustainable_load builds one plan per worker slot and revalidating
  // an unchanged fleet per slot would be pure setup churn.
  analysis::validate_or_throw(package, tenants, options);
  ServingPlan plan(package, tenants, options);
  return plan.run();
}

LoadSearchResult max_sustainable_load(const PackageConfig& package,
                                      const std::vector<TenantWorkload>& tenants,
                                      const ServingOptions& options,
                                      const LoadSearchOptions& search) {
  validate_tenants(tenants);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (!(tenants[t].deadline_s > 0.0)) {
      throw std::invalid_argument(
          "max_sustainable_load: tenant " + std::to_string(t) +
          " has no deadline (feasibility would be vacuous)");
    }
  }
  if (!(search.fps_lo > 0.0) || !(search.fps_hi > search.fps_lo)) {
    throw std::invalid_argument(
        "max_sustainable_load: need 0 < fps_lo < fps_hi");
  }
  if (search.probes_per_round < 2) {
    throw std::invalid_argument(
        "max_sustainable_load: probes_per_round must be >= 2");
  }

  const SweepRunner runner(SweepOptions{.threads = search.threads});

  // One ServingPlan — placement, compiled programs, simulation engine —
  // per sweep worker slot, built lazily on a slot's first probe and then
  // reused by every probe and every bisection round that slot evaluates
  // (probes differ only in injection rate, and worker w of every round's
  // run keys slot w + 1). A per-slot SimResult gives run_at_rate a
  // warm output buffer. Probe results stay bitwise-identical for any
  // thread count: plans are clones of the same deterministic placement,
  // and engine reuse is result-invariant.
  std::vector<std::unique_ptr<ServingPlan>> plans(
      static_cast<std::size_t>(runner.worker_slots()));
  std::vector<SimResult> slot_results(
      static_cast<std::size_t>(runner.worker_slots()));

  int offered_total = 0;
  for (const TenantWorkload& w : tenants) {
    offered_total += std::max(w.frames, 1);
  }

  const auto probe_rate = [&](double fps) {
    const std::size_t slot =
        static_cast<std::size_t>(ThreadPool::current_worker_index() + 1);
    if (!plans[slot]) {
      plans[slot] = std::make_unique<ServingPlan>(package, tenants, options);
    }
    SimResult& r = slot_results[slot];
    plans[slot]->run_at_rate_into(fps, r);
    LoadProbe p;
    p.fps = fps;
    p.feasible = true;
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      const TenantResult& tr = r.tenants[t];
      p.deadline_misses += tr.deadline_miss_frames;
      p.shed_frames += tr.shed_frames;
      if (std::isnan(tr.p99_latency_s) || tr.frames_completed == 0) {
        // Nothing completed: poisoned tail, never feasible.
        p.worst_p99_s = std::numeric_limits<double>::quiet_NaN();
        p.feasible = false;
        continue;
      }
      if (!std::isnan(p.worst_p99_s)) {
        p.worst_p99_s = std::max(p.worst_p99_s, tr.p99_latency_s);
      }
      if (tr.p99_latency_s > tenants[t].deadline_s) p.feasible = false;
    }
    // An overload probe that survives only by shedding is not sustained
    // service: cap the tolerated shed fraction (strictly 0 by default).
    if (static_cast<double>(p.shed_frames) >
        search.max_shed_fraction * static_cast<double>(offered_total)) {
      p.feasible = false;
    }
    return p;
  };

  LoadSearchResult result;
  double lo = search.fps_lo;
  double hi = search.fps_hi;
  if (search.use_static_bound) {
    // Static uniform-rate cap (analysis/bounds.h): rates above it make a
    // chiplet (or, under contended NoP, a link) provably diverge, so no
    // probe above can be feasible. Clamp the ceiling only — the bound never
    // declares a rate feasible, and a bound at/below the floor still leaves
    // a valid [lo, slightly-above-lo] bracket for the probes to reject.
    const analysis::BoundsReport bounds =
        analysis::compute_bounds(package, tenants, options);
    if (bounds.uniform_rate_bound_fps > 0.0) {
      hi = std::min(hi, std::max(bounds.uniform_rate_bound_fps, lo * 1.001));
    }
  }
  double best_feasible = 0.0;
  double min_infeasible = 0.0;
  while (result.rounds < search.max_rounds) {
    // Evenly spaced candidates across the current bracket, endpoints
    // included on the first round (later rounds already know them).
    const int k = search.probes_per_round;
    const std::vector<LoadProbe> round = runner.map(k, [&](int i) {
      const double frac =
          result.rounds == 0
              ? static_cast<double>(i) / static_cast<double>(k - 1)
              : static_cast<double>(i + 1) / static_cast<double>(k + 1);
      return probe_rate(lo + (hi - lo) * frac);
    });
    for (const LoadProbe& p : round) {
      result.probes.push_back(p);
      if (p.feasible) {
        best_feasible = std::max(best_feasible, p.fps);
      } else if (min_infeasible == 0.0 || p.fps < min_infeasible) {
        min_infeasible = p.fps;
      }
    }
    ++result.rounds;
    if (best_feasible == 0.0) break;  // even the floor is infeasible
    if (min_infeasible == 0.0) {
      // Every probe feasible: the limit lies above the ceiling. `hi` is
      // still the initial ceiling here (it only shrinks once a probe turns
      // infeasible) — i.e. fps_hi, or the static-bound clamp when active.
      best_feasible = hi;
      break;
    }
    lo = best_feasible;
    hi = min_infeasible;
    if ((hi - lo) / lo <= search.rel_tol) break;
  }
  result.max_fps = best_feasible;
  result.min_infeasible_fps = min_infeasible;
  return result;
}

}  // namespace cnpu
