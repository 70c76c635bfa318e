// sim_sweep: a simulation-axis sweep over designs built once in set-up.
//
// Two designs: the throughput-matched 6x6 Autopilot schedule, and a
// 4-tenant fleet of 3-camera probe pipelines placed (shared policy) on a
// 4x4 package. Axes: design x stream length {short, long} x admission
// {burst, periodic under load, periodic over load} x NoP {analytical,
// contended at 100 GB/s, contended with saturating links} x fault {none,
// mid-stream fail + recover}. Each SweepRunner worker slot owns a SimEngine
// warmed on every point in set-up, so a unit is one warm run_into:
// Algorithm 1 and validation run only in set-up, and the time goes to the
// event loop, NopFabric arbitration, the degraded-program cache and the
// reductions.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "analysis/bounds.h"
#include "analysis/validate.h"
#include "core/baselines.h"
#include "core/throughput_matching.h"
#include "digest.h"
#include "exp/sweep_runner.h"
#include "probes.h"
#include "sim/serving.h"
#include "trace.h"
#include "workload.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace perfbench {
namespace {

constexpr int kTenants = 4;
constexpr int kCamerasPerTenant = 3;
// Saturating links carry 1.25x the hottest link's demand at the
// under-load rate.
constexpr double kSaturation = 1.25;
// Every 9th point is replayed by verify().
constexpr int kVerifyStride = 9;

// One design on its nominal (100 GB/s) and saturating packages. The
// schedules reference `pipe` and the packages, so the struct is pinned.
struct SimDesign {
  std::string name;
  std::unique_ptr<cnpu::PerceptionPipeline> pipe;
  std::unique_ptr<cnpu::PackageConfig> nominal;
  std::unique_ptr<cnpu::PackageConfig> saturating;
  // Per package (0 = nominal, 1 = saturating): one schedule per tenant.
  std::vector<std::unique_ptr<cnpu::Schedule>> schedules[2];
  int frames_short = 0;
  int frames_long = 0;
  double e2e_s = 0.0;     // first-frame latency of a burst
  double steady_s = 0.0;  // per-stream steady interval of a burst
  int victim = -1;
  long long match_steps = 0;  // Algorithm 1 steps taken in set-up
};

cnpu::SimOptions stream_options(const SimDesign& d, int pkg, int frames,
                                double interval_s, double deadline_s) {
  cnpu::SimOptions opt;
  opt.frames = frames;
  opt.frame_interval_s = interval_s;
  opt.deadline_s = deadline_s;
  const auto& scheds = d.schedules[pkg];
  if (scheds.size() > 1) {
    for (std::size_t t = 0; t < scheds.size(); ++t) {
      cnpu::TenantStream ts;
      ts.name = "vehicle" + std::to_string(t);
      ts.schedule = scheds[t].get();
      ts.frames = frames;
      ts.frame_interval_s = interval_s;
      ts.deadline_s = deadline_s;
      ts.priority = t == 0 ? 1 : 0;
      opt.tenants.push_back(ts);
    }
  }
  return opt;
}

// Copies `from`'s placements onto an identical pipeline on `pkg`.
std::unique_ptr<cnpu::Schedule> rehome(const cnpu::Schedule& from,
                                       const cnpu::PackageConfig& pkg) {
  auto s = std::make_unique<cnpu::Schedule>(from.pipeline(), pkg);
  for (int i = 0; i < from.num_items(); ++i) {
    s->restore_placement(i, from.placement(i).shards);
  }
  return s;
}

// Bandwidth at which the hottest link of `opt`'s streams runs at
// kSaturation times its capacity.
double saturating_bandwidth(const cnpu::Schedule& sched, cnpu::SimOptions opt) {
  opt.nop_mode = cnpu::NopMode::kContended;
  cnpu::analysis::BoundsReport b;
  {
    const Span s(span::kBounds);
    b = cnpu::analysis::compute_bounds(sched, opt);
  }
  double demand = 0.0;
  for (const auto& l : b.links) demand = std::max(demand, l.demand_bytes_per_s);
  if (!(demand > 0.0)) throw std::runtime_error("sim_sweep: no link demand");
  return demand / kSaturation;
}

// Calibrates the burst latency and per-stream steady interval, then builds
// the saturating package's schedules.
void finish_design(SimDesign& d, Rng& rng) {
  const cnpu::SimOptions burst = stream_options(d, 0, 8, 0.0, 0.0);
  cnpu::SimResult r;
  {
    const Span s(span::kRunCold);
    r = cnpu::simulate_schedule(*d.schedules[0].front(), burst);
  }
  d.e2e_s = r.first_frame_latency_s;
  for (const cnpu::TenantResult& t : r.tenants) {
    d.steady_s = std::max(d.steady_s, t.steady_interval_s);
  }
  d.steady_s *= rng.uniform(0.98, 1.02);

  const cnpu::SimOptions under =
      stream_options(d, 0, d.frames_long, d.steady_s * 1.25, 0.0);
  cnpu::NopParams nop = d.nominal->nop();
  nop.bandwidth_bytes_per_s = saturating_bandwidth(*d.schedules[0].front(), under);
  {
    const Span s(span::kMakePackage);
    d.saturating = std::make_unique<cnpu::PackageConfig>(*d.nominal);
  }
  d.saturating->set_nop(nop);
  for (const auto& s : d.schedules[0]) d.schedules[1].push_back(rehome(*s, *d.saturating));

  // The fault victim is the busiest chiplet the I/O port does not hang off
  // (that failure would sever ingress altogether). It is fixed, and the
  // seed draws only the fault instants from narrow ranges: the heaviest
  // units are the faulted ones, and their host time, which sets
  // unit_p99_ms, must not swing with the seed.
  const cnpu::Schedule& first = *d.schedules[0].front();
  d.victim = cnpu::busiest_non_io_chiplet(cnpu::evaluate_schedule(first), *d.nominal);
}

SimDesign build_autopilot(Rng& rng) {
  SimDesign d;
  d.name = "autopilot";
  d.frames_short = 6;
  d.frames_long = 24;
  {
    const Span s(span::kBuildPipeline);
    d.pipe = std::make_unique<cnpu::PerceptionPipeline>(cnpu::build_autopilot_pipeline());
  }
  {
    const Span s(span::kMakePackage);
    d.nominal = std::make_unique<cnpu::PackageConfig>(cnpu::make_simba_package());
  }
  cnpu::MatchResult m = [&] {
    const Span s(span::kMatch);
    return cnpu::throughput_matching(*d.pipe, *d.nominal);
  }();
  {
    const Span s(span::kEvaluate);
    (void)cnpu::evaluate_schedule(m.schedule);
  }
  d.match_steps = static_cast<long long>(m.trace.size());
  d.schedules[0].push_back(std::make_unique<cnpu::Schedule>(std::move(m.schedule)));
  finish_design(d, rng);
  return d;
}

SimDesign build_fleet(Rng& rng) {
  SimDesign d;
  d.name = "fleet";
  d.frames_short = 8;
  d.frames_long = 32;
  {
    const Span s(span::kBuildPipeline);
    d.pipe = std::make_unique<cnpu::PerceptionPipeline>(
        cnpu::build_fault_probe_pipeline(kCamerasPerTenant));
  }
  {
    const Span s(span::kMakePackage);
    d.nominal = std::make_unique<cnpu::PackageConfig>(cnpu::make_simba_package(4, 4));
  }
  std::vector<cnpu::TenantWorkload> fleet(kTenants);
  for (cnpu::TenantWorkload& w : fleet) w.pipeline = d.pipe.get();
  const cnpu::ServingPlan plan = [&] {
    const Span s(span::kPlanBuild);
    return cnpu::ServingPlan(*d.nominal, fleet);
  }();
  for (const cnpu::Schedule& s : plan.placement().schedules) {
    d.schedules[0].push_back(std::make_unique<cnpu::Schedule>(s));
  }
  finish_design(d, rng);
  return d;
}

class SimSweep final : public Workload {
 public:
  explicit SimSweep(const RunConfig& cfg) : cfg_(cfg) {
    Rng rng(cfg.seed);
    designs_[0] = build_autopilot(rng);
    designs_[1] = build_fleet(rng);
    spec_ = cnpu::SweepSpec("sim_sweep")
                .axis("design", {"autopilot", "fleet"})
                .axis("length", {"short", "long"})
                .axis("admission", {"burst", "under", "over"})
                .axis("nop", {"analytical", "contended", "saturated"})
                .axis("fault", {"none", "fail_recover"});
    const int n = spec_.num_points();
    for (int i = 0; i < n; ++i) add_point(spec_.point(i), rng);
    tasks_.assign(static_cast<std::size_t>(n), 0);
    cpu_.assign(static_cast<std::size_t>(n), 0.0);
    digests_.assign(static_cast<std::size_t>(n), 0);

    // Warm one engine per worker slot on every point (slot 0 is the
    // calling thread's, unused by a parallel sweep).
    const int slots = cnpu::SweepRunner(cnpu::SweepOptions{.threads = cfg_.workers}).worker_slots();
    engines_.resize(static_cast<std::size_t>(slots));
    outs_.assign(static_cast<std::size_t>(slots), std::vector<cnpu::SimResult>(static_cast<std::size_t>(n)));
    expected_.assign(static_cast<std::size_t>(slots), std::vector<std::uint64_t>(static_cast<std::size_t>(n)));
    std::vector<std::thread> warmers;
    for (int slot = 1; slot < slots; ++slot) {
      warmers.emplace_back([this, slot, n] {
        for (int i = 0; i < n; ++i) {
          const Point& pt = points_[static_cast<std::size_t>(i)];
          cnpu::SimResult& out = outs_[static_cast<std::size_t>(slot)][static_cast<std::size_t>(i)];
          const Span s(span::kRunCold);
          engines_[static_cast<std::size_t>(slot)].run_into(*pt.schedule, pt.options, out);
          expected_[static_cast<std::size_t>(slot)][static_cast<std::size_t>(i)] = digest_of(out);
        }
      });
    }
    for (std::thread& t : warmers) t.join();
  }

  int units_per_cycle() const override { return spec_.num_points(); }
  const char* unit_span() const override { return span::kPoint; }
  double sweeps_per_unit() const override { return 1.0 / spec_.num_points(); }
  int points_per_sweep() const override { return spec_.num_points(); }

  void run_cycle(long long unit_base, std::vector<UnitResult>& out) override {
    const cnpu::SweepRunner runner(cnpu::SweepOptions{.threads = cfg_.workers});
    const Span sweep(span::kSweepRun);
    const SpanId sweep_id = sweep.id();
    const cnpu::SweepResult r = runner.run(spec_, [&](const cnpu::SweepPoint& p) {
      const auto i = static_cast<std::size_t>(p.index);
      const double t0 = thread_cpu_s();
      std::string err;
      {
        const Span unit(span::kPoint, sweep_id, unit_base + p.index);
        err = run_point(i);
      }
      cpu_[i] = thread_cpu_s() - t0;
      if (!err.empty()) throw std::runtime_error(err);
      return cnpu::SweepRecord{};
    });
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      out[i].cpu_s = cpu_[i];
      out[i].digest = digests_[i];
      out[i].error = r.points[i].ok ? "" : r.points[i].error;
    }
  }

  void verify(std::vector<std::string>& failures) override {
    // Every warm-up engine must agree, and a sampled warm run_into must
    // equal a one-shot simulate_schedule bitwise.
    for (std::size_t slot = 2; slot < expected_.size(); ++slot) {
      if (expected_[slot] != expected_[1]) {
        failures.push_back("sim_sweep: warm-up engines disagree");
      }
    }
    cnpu::SimEngine& engine = engines_[1];
    for (int i = 0; i < spec_.num_points(); i += kVerifyStride) {
      const Point& pt = points_[static_cast<std::size_t>(i)];
      cnpu::SimResult warm;
      {
        const Span s(span::kRunWarm);
        engine.run_into(*pt.schedule, pt.options, warm);
      }
      cnpu::SimResult one_shot;
      {
        const Span s(span::kRunCold);
        one_shot = cnpu::simulate_schedule(*pt.schedule, pt.options);
      }
      if (!bitwise_equal(warm, one_shot)) {
        failures.push_back("sim_sweep " + spec_.point(i).label() +
                           ": warm run_into differs from one-shot simulate_schedule");
      }
    }
  }

  long long unit_tasks(int i) const override {
    return tasks_[static_cast<std::size_t>(i)];
  }

  void counters(Counters& c) const override {
    long long runs = 0;
    long long builds = 0;
    long long hits = 0;
    long long warm = 0;
    for (std::size_t slot = 1; slot < engines_.size(); ++slot) {
      const cnpu::EngineStats& st = engines_[slot].stats();
      runs += st.runs;
      builds += st.program_builds;
      hits += st.program_cache_hits;
      warm += st.warm_starts;
    }
    long long tasks = 0;
    for (const long long t : tasks_) tasks += t;
    c["core.match_steps"] = static_cast<double>(designs_[0].match_steps);
    c["sim.tasks_per_run"] = static_cast<double>(tasks) / static_cast<double>(tasks_.size());
    c["sim.cache_hit_ratio"] = hits + builds > 0 ? static_cast<double>(hits) / static_cast<double>(hits + builds) : 0.0;
    c["sim.warm_start_ratio"] = runs > 0 ? static_cast<double>(warm) / static_cast<double>(runs) : 0.0;
  }

  void probe(Counters& c) override {
    std::vector<const cnpu::Schedule*> schedules;
    std::vector<ArrivalShape> arrivals;
    std::vector<FaultShape> faults;
    std::vector<SimShape> shapes;
    for (const SimDesign& d : designs_) {
      for (const auto& pkg : d.schedules) {
        for (const auto& s : pkg) schedules.push_back(s.get());
      }
      for (const int frames : {d.frames_short, d.frames_long}) {
        ArrivalShape a;
        a.spec.kind = cnpu::ArrivalKind::kPeriodic;
        a.spec.rate_fps = 1.0 / (d.steady_s * 1.25);
        a.frames = frames;
        arrivals.push_back(a);
      }
      for (const auto& s : d.schedules[0]) faults.push_back(FaultShape{s.get(), d.victim, {}});
      shapes.push_back(SimShape{d.schedules[0].front().get(),
                                stream_options(d, 0, d.frames_short, 0.0, 0.0)});
    }
    c["dataflow.analyze_layer.ns_per_call"] = probe_analyze_layer_ns(schedules);
    c["sim.arrivals.ns_per_frame"] = probe_arrivals_ns(arrivals);
    c["core.remap_schedule.us"] = probe_remap_us(faults);
    c["sim.program_build_us"] = probe_program_build_us(shapes);
  }

 private:
  struct Point {
    const cnpu::Schedule* schedule = nullptr;
    cnpu::SimOptions options;
    std::vector<double> bound_s;  // per stream; empty = unchecked (faults)
  };

  void add_point(const cnpu::SweepPoint& p, Rng& rng) {
    const SimDesign& d = designs_[p.str_at("design") == "autopilot" ? 0 : 1];
    const int frames = p.str_at("length") == "short" ? d.frames_short : d.frames_long;
    const std::string& admission = p.str_at("admission");
    const double interval = admission == "burst"   ? 0.0
                            : admission == "under" ? d.steady_s * 1.25
                                                   : d.steady_s * 0.8;
    const std::string& nop = p.str_at("nop");
    const int pkg = nop == "saturated" ? 1 : 0;
    Point pt;
    pt.options = stream_options(d, pkg, frames, interval, 2.0 * d.e2e_s);
    pt.schedule = d.schedules[pkg].front().get();
    if (nop != "analytical") pt.options.nop_mode = cnpu::NopMode::kContended;
    if (p.str_at("fault") == "fail_recover") {
      const double span_s = d.e2e_s + frames * std::max(interval, d.steady_s);
      cnpu::FaultPlan& f = pt.options.fault;
      f.chiplet_id = d.victim;
      f.fail_time_s = span_s * rng.uniform(0.3, 0.35);
      f.recover_time_s = f.fail_time_s + span_s * rng.uniform(0.25, 0.3);
      f.reschedule_penalty_s = d.steady_s * rng.uniform(0.2, 0.3);
    } else {
      const Span s(span::kBounds);
      for (const auto& b : cnpu::analysis::compute_bounds(*pt.schedule, pt.options).streams) {
        pt.bound_s.push_back(b.latency_bound_s);
      }
    }
    {
      const Span s(span::kValidate);
      cnpu::analysis::validate(*pt.schedule, pt.options).throw_if_enforced();
    }
    points_.push_back(std::move(pt));
  }

  // One warm run of point i with its per-unit checks; returns the first
  // failed check.
  std::string run_point(std::size_t i) {
    const auto slot = static_cast<std::size_t>(cnpu::ThreadPool::current_worker_index() + 1);
    const Point& pt = points_[i];
    cnpu::SimResult& out = outs_[slot][i];
    {
      const Span s(span::kRunWarm);
      engines_[slot].run_into(*pt.schedule, pt.options, out);
    }
    std::string err = check_conservation(out);
    if (err.empty() && !pt.bound_s.empty()) err = check_latency_bound(out, pt.bound_s);
    const std::uint64_t digest = digest_of(out);
    if (err.empty() && digest != expected_[slot][i]) {
      err = "warm run differs from the set-up run of the same engine";
    }
    digests_[i] = digest;
    tasks_[i] = out.tasks_executed;
    return err;
  }

  RunConfig cfg_;
  SimDesign designs_[2];
  cnpu::SweepSpec spec_;
  std::vector<Point> points_;
  std::vector<cnpu::SimEngine> engines_;               // per worker slot
  std::vector<std::vector<cnpu::SimResult>> outs_;     // [slot][point]
  std::vector<std::vector<std::uint64_t>> expected_;   // [slot][point]
  std::vector<long long> tasks_;
  std::vector<double> cpu_;
  std::vector<std::uint64_t> digests_;
};

}  // namespace

std::unique_ptr<Workload> make_sim_sweep(const RunConfig& cfg) {
  return std::make_unique<SimSweep>(cfg);
}

}  // namespace perfbench
