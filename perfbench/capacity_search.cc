// capacity_search: repeated max_sustainable_load on the bench_serving
// fleet (4 tenants x a 3-camera probe pipeline on a 4x4 package) under the
// shared, partitioned and priority policies, with seeded Poisson arrivals,
// bounded kDropOldest queues and the static-bound bracket clamp. One unit
// is one whole search; a cycle runs 3 policies x 8 arrival seeds.
//
// A search is many tiny simulations rather than a few long ones: every
// bisection round pays a fresh ThreadPool, per-slot plan placement and
// validation, arrival generation and the multi-tenant/shed reduction, so
// a change that speeds long streams but taxes short ones shows here.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/validate.h"
#include "core/baselines.h"
#include "core/partition.h"
#include "digest.h"
#include "probes.h"
#include "sim/serving.h"
#include "trace.h"
#include "workload.h"
#include "workloads/zoo.h"

namespace perfbench {
namespace {

constexpr int kTenants = 4;
constexpr int kCamerasPerTenant = 3;
constexpr int kArrivalSeeds = 8;
constexpr int kFramesPerTenant = 48;
constexpr int kQueueCapacity = 4;
// Deadline and bracket, in units of one tenant's isolated steady interval:
// with these every policy's search bisects for 3-6 rounds.
constexpr double kDeadlineIntervals = 8.0;
constexpr double kFloorRate = 0.05;
constexpr double kCeilingRate = 2.0;
// Every 4th probe of each search is checked against a one-shot
// serve_tenants call.
constexpr int kOneShotStride = 4;

const cnpu::PlacementPolicy kPolicies[] = {cnpu::PlacementPolicy::kShared,
                                           cnpu::PlacementPolicy::kPartitioned,
                                           cnpu::PlacementPolicy::kPriority};

// One distinct search of the cycle.
struct Search {
  std::vector<cnpu::TenantWorkload> fleet;
  cnpu::ServingOptions options;
  std::string label;
  // From the first cycle and the probe replay.
  std::optional<cnpu::LoadSearchResult> result;
  long long tasks = 0;
  double replay_s = 0.0;  // host time of the replayed probes
  double host_s = 0.0;    // host time summed over every cycle's run
  double cpu_s = 0.0;     // process CPU time summed over every cycle's run
  int runs = 0;
};

// A probe is feasible when every tenant completed frames within its
// deadline at p99 and nothing was shed (max_shed_fraction = 0).
bool feasible(const cnpu::SimResult& r, const std::vector<cnpu::TenantWorkload>& fleet) {
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const cnpu::TenantResult& tr = r.tenants[t];
    if (tr.frames_completed == 0 || std::isnan(tr.p99_latency_s) ||
        tr.p99_latency_s > fleet[t].deadline_s || tr.shed_frames > 0) {
      return false;
    }
  }
  return true;
}

double worst_p99(const cnpu::SimResult& r) {
  double worst = 0.0;
  for (const cnpu::TenantResult& tr : r.tenants) worst = std::max(worst, tr.p99_latency_s);
  return worst;
}

class CapacitySearch final : public Workload {
 public:
  explicit CapacitySearch(const RunConfig& cfg) {
    {
      const Span s(span::kBuildPipeline);
      pipe_ = std::make_unique<cnpu::PerceptionPipeline>(
          cnpu::build_fault_probe_pipeline(kCamerasPerTenant));
    }
    {
      const Span s(span::kMakePackage);
      pkg_ = std::make_unique<cnpu::PackageConfig>(cnpu::make_simba_package(4, 4));
    }
    // The rate anchor: one tenant alone on a quadrant-sized pool.
    const auto pools = cnpu::partition_tenant_pools(*pkg_, kTenants);
    const cnpu::Schedule quadrant = cnpu::build_pool_schedule(*pipe_, *pkg_, pools.front(), 0);
    cnpu::SimOptions burst;
    burst.frames = 8;
    {
      const Span s(span::kRunCold);
      healthy_s_ = cnpu::simulate_schedule(quadrant, burst).steady_interval_s;
    }
    search_.fps_lo = kFloorRate / healthy_s_;
    search_.fps_hi = kCeilingRate / healthy_s_;
    search_.probes_per_round = 4;
    search_.max_rounds = 6;
    search_.rel_tol = 0.004;
    search_.threads = cfg.workers;
    search_.use_static_bound = true;

    Rng rng(cfg.seed);
    for (const cnpu::PlacementPolicy policy : kPolicies) {
      for (int a = 0; a < kArrivalSeeds; ++a) {
        Search s;
        s.options.policy = policy;
        s.label = std::string(cnpu::placement_policy_name(policy)) + "/arrivals" +
                  std::to_string(a);
        for (int t = 0; t < kTenants; ++t) {
          cnpu::TenantWorkload w;
          w.name = "vehicle" + std::to_string(t);
          w.pipeline = pipe_.get();
          w.frames = kFramesPerTenant;
          w.deadline_s = healthy_s_ * kDeadlineIntervals;
          w.priority = t == 0 ? 1 : 0;
          w.arrivals.kind = cnpu::ArrivalKind::kPoisson;
          w.arrivals.rate_fps = 1.0 / healthy_s_;  // each probe overrides it
          w.arrivals.seed = rng.next();
          w.admission.queue_capacity = kQueueCapacity;
          w.admission.policy = cnpu::ShedPolicy::kDropOldest;
          s.fleet.push_back(w);
        }
        {
          const Span v(span::kValidate);
          cnpu::analysis::validate(*pkg_, s.fleet, s.options).throw_if_enforced();
        }
        searches_.push_back(std::move(s));
      }
    }
  }

  int units_per_cycle() const override { return static_cast<int>(searches_.size()); }
  const char* unit_span() const override { return span::kSearch; }
  double sweeps_per_unit() const override { return rounds_per_search(); }
  int points_per_sweep() const override { return search_.probes_per_round; }

  void run_cycle(long long unit_base, std::vector<UnitResult>& out) override {
    for (std::size_t i = 0; i < searches_.size(); ++i) {
      Search& s = searches_[i];
      UnitResult& u = out[i];
      const double cpu0 = process_cpu_s();
      const double t0 = host_now_s();
      try {
        const Span unit(span::kSearch, kInheritParent, unit_base + static_cast<long long>(i));
        const cnpu::LoadSearchResult r =
            cnpu::max_sustainable_load(*pkg_, s.fleet, s.options, search_);
        u.digest = digest_of(r);
        u.error = check_search(r, s.options.policy == cnpu::PlacementPolicy::kPartitioned);
        if (!s.result) s.result = r;
      } catch (const std::exception& e) {
        u.error = e.what();
      }
      // Searches run one at a time, so the process's CPU time is the
      // search's, its workers included.
      u.cpu_s = process_cpu_s() - cpu0;
      s.cpu_s += u.cpu_s;
      s.host_s += host_now_s() - t0;
      ++s.runs;
    }
  }

  void verify(std::vector<std::string>& failures) override {
    // Replay every probe of every search on one warm plan per search: the
    // replay must reproduce each probe's verdict and tail bit for bit, and
    // a sampled warm probe must equal a one-shot serve_tenants call.
    for (Search& s : searches_) {
      if (!s.result) continue;
      std::optional<cnpu::ServingPlan> plan;
      {
        const Span sp(span::kPlanBuild);
        plan.emplace(*pkg_, s.fleet, s.options);
      }
      cnpu::SimResult r;
      s.tasks = 0;
      s.replay_s = 0.0;
      for (std::size_t k = 0; k < s.result->probes.size(); ++k) {
        const cnpu::LoadProbe& p = s.result->probes[k];
        const double t0 = host_now_s();
        {
          const Span sp(span::kProbe);
          plan->run_at_rate_into(p.fps, r);
        }
        s.replay_s += host_now_s() - t0;
        s.tasks += r.tasks_executed;
        ++replayed_probes_;
        const std::string err = check_conservation(r);
        if (!err.empty()) failures.push_back("capacity_search " + s.label + ": " + err);
        if (feasible(r, s.fleet) != p.feasible ||
            (!std::isnan(p.worst_p99_s) && worst_p99(r) != p.worst_p99_s)) {
          failures.push_back("capacity_search " + s.label +
                             ": replayed probe disagrees with the search at " +
                             std::to_string(p.fps) + " fps");
        }
        if (k % kOneShotStride == 0) {
          std::vector<cnpu::TenantWorkload> at_rate = s.fleet;
          for (cnpu::TenantWorkload& w : at_rate) w.arrivals.rate_fps = p.fps;
          cnpu::SimResult one_shot;
          {
            const Span sp(span::kRunCold);
            one_shot = cnpu::serve_tenants(*pkg_, at_rate, s.options);
          }
          if (!bitwise_equal(r, one_shot)) {
            failures.push_back("capacity_search " + s.label +
                               ": warm probe differs from one-shot serve_tenants");
          }
        }
      }
      const cnpu::EngineStats& st = plan->engine_stats();
      runs_ += st.runs;
      builds_ += st.program_builds;
      hits_ += st.program_cache_hits;
      warm_starts_ += st.warm_starts;
    }
  }

  long long unit_tasks(int i) const override {
    return searches_[static_cast<std::size_t>(i)].tasks;
  }

  void counters(Counters& c) const override {
    double probes = 0.0;
    double feasible_probes = 0.0;
    double tasks = 0.0;
    double replay_s = 0.0;
    double search_s = 0.0;
    double search_cpu_s = 0.0;
    double nonmonotone_searches = 0.0;
    for (const Search& s : searches_) {
      if (!s.result) continue;
      for (const cnpu::LoadProbe& p : s.result->probes) feasible_probes += p.feasible ? 1.0 : 0.0;
      probes += static_cast<double>(s.result->probes.size());
      nonmonotone_searches += nonmonotone(*s.result) ? 1.0 : 0.0;
      tasks += static_cast<double>(s.tasks);
      replay_s += s.replay_s;
      if (s.runs > 0) {
        search_s += s.host_s / s.runs;
        search_cpu_s += s.cpu_s / s.runs;
      }
    }
    const double n = static_cast<double>(searches_.size());
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    c["serving.rounds_per_search"] = rounds_per_search();
    c["serving.probes_per_search"] = probes / n;
    c["serving.feasible_ratio"] = ratio(feasible_probes, probes);
    c["serving.nonmonotone_ratio"] = nonmonotone_searches / n;
    // Share of a search's CPU time its probes account for when replayed
    // serially on a warm plan; the rest is fan-out, placement, validation
    // and coordination. The busy fraction is the search's CPU time over
    // the thread time its sweep workers had.
    c["serving.probe_work_share"] = ratio(replay_s, search_cpu_s);
    c["exp.worker_busy_frac"] = ratio(search_cpu_s, search_s * search_.threads);
    c["sim.tasks_per_run"] = ratio(tasks, static_cast<double>(replayed_probes_));
    c["sim.ns_per_task"] = ratio(replay_s * 1e9, tasks);
    c["sim.cache_hit_ratio"] = ratio(static_cast<double>(hits_), static_cast<double>(hits_ + builds_));
    c["sim.warm_start_ratio"] = ratio(static_cast<double>(warm_starts_), static_cast<double>(runs_));
  }

  void probe(Counters& c) override {
    std::vector<const cnpu::Schedule*> schedules;
    std::vector<ArrivalShape> arrivals;
    std::vector<FaultShape> faults;
    std::vector<SimShape> shapes;
    // One placement per policy; the fault victim is the busiest chiplet
    // of tenant 0's placement that does not carry the I/O port.
    std::vector<std::unique_ptr<cnpu::ServingPlan>> plans;
    for (std::size_t i = 0; i < searches_.size(); i += kArrivalSeeds) {
      const Search& s = searches_[i];
      plans.push_back(std::make_unique<cnpu::ServingPlan>(*pkg_, s.fleet, s.options));
      const cnpu::TenantPlacement& pl = plans.back()->placement();
      const int victim = cnpu::busiest_non_io_chiplet(
          cnpu::evaluate_schedule(pl.schedules.front()), *pkg_);
      cnpu::SimOptions opt;
      opt.policy = s.options.policy;
      for (std::size_t t = 0; t < pl.schedules.size(); ++t) {
        schedules.push_back(&pl.schedules[t]);
        faults.push_back(FaultShape{&pl.schedules[t], victim, pl.pools[t]});
        cnpu::TenantStream ts;
        ts.schedule = &pl.schedules[t];
        ts.frames = kFramesPerTenant;
        ts.deadline_s = s.fleet[t].deadline_s;
        ts.arrivals = s.fleet[t].arrivals;
        ts.admission = s.fleet[t].admission;
        opt.tenants.push_back(ts);
      }
      shapes.push_back(SimShape{&pl.schedules.front(), opt});
    }
    for (const Search& s : searches_) {
      for (const cnpu::TenantWorkload& w : s.fleet) {
        arrivals.push_back(ArrivalShape{w.arrivals, w.frames});
      }
    }
    c["dataflow.analyze_layer.ns_per_call"] = probe_analyze_layer_ns(schedules);
    c["sim.arrivals.ns_per_frame"] = probe_arrivals_ns(arrivals);
    c["core.remap_schedule.us"] = probe_remap_us(faults);
    c["sim.program_build_us"] = probe_program_build_us(shapes);
  }

 private:
  double rounds_per_search() const {
    double rounds = 0.0;
    for (const Search& s : searches_) rounds += s.result ? s.result->rounds : 0;
    return rounds / static_cast<double>(searches_.size());
  }

  // An infeasible probe below the reported capacity: the rates this search
  // probed contradict the bisection's monotone-feasibility assumption.
  static bool nonmonotone(const cnpu::LoadSearchResult& r) {
    for (const cnpu::LoadProbe& p : r.probes) {
      if (p.fps < r.max_fps && !p.feasible) return true;
    }
    return false;
  }

  // The bracket bookkeeping must hold for every search: some rate is
  // feasible, and the reported capacity and first infeasible rate are
  // probes with those verdicts. Every probe below the capacity must be
  // feasible where tenants are isolated (partitioned). Shared and priority
  // placement break that on a few percent of Poisson arrival seeds (list
  // scheduling anomalies make p99 non-monotone in the rate), so there it
  // is counted by serving.nonmonotone_ratio rather than failed.
  static std::string check_search(const cnpu::LoadSearchResult& r, bool isolated) {
    if (!(r.max_fps > 0.0)) return "search found no feasible rate";
    // With every probe feasible the capacity is the search ceiling itself.
    const bool all_feasible = r.min_infeasible_fps == 0.0;
    bool capacity_probed = all_feasible;
    bool infeasible_probed = all_feasible;
    for (const cnpu::LoadProbe& p : r.probes) {
      capacity_probed |= p.fps == r.max_fps && p.feasible;
      infeasible_probed |= p.fps == r.min_infeasible_fps && !p.feasible;
    }
    if (!capacity_probed || !infeasible_probed) return "search bracket is not backed by its probes";
    if (isolated && nonmonotone(r)) {
      return "infeasible probe below the reported capacity " + std::to_string(r.max_fps);
    }
    return "";
  }

  std::unique_ptr<cnpu::PerceptionPipeline> pipe_;
  std::unique_ptr<cnpu::PackageConfig> pkg_;
  double healthy_s_ = 0.0;
  cnpu::LoadSearchOptions search_;
  std::vector<Search> searches_;
  long long replayed_probes_ = 0;
  long long runs_ = 0;
  long long builds_ = 0;
  long long hits_ = 0;
  long long warm_starts_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_capacity_search(const RunConfig& cfg) {
  return std::make_unique<CapacitySearch>(cfg);
}

}  // namespace perfbench
