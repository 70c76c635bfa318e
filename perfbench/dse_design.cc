// dse_design: a SweepRunner sweep of whole-design points.
//
// The Fig. 5-8 grid (tolerance x cameras x queue depth) crossed with two
// packages (the 6x6 MCM, and the 2-NPU pool with allow_base_split) and a
// deadline axis {none, live, dead}. The prune predicate builds each point's
// pipeline, package and Algorithm 1 match, then rejects statically dead
// points with compute_bounds. Surviving points run evaluate_schedule,
// validate, and a cold 6-frame simulation in analytical and in contended
// mode at infinite link bandwidth. One unit is one design point, pruned or
// not; every point is a new design, so the time goes to Algorithm 1,
// analysis and program compilation, not to the event loop.
#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>

#include "analysis/bounds.h"
#include "analysis/validate.h"
#include "core/baselines.h"
#include "core/partition.h"
#include "core/scaling.h"
#include "core/throughput_matching.h"
#include "digest.h"
#include "exp/sweep_runner.h"
#include "probes.h"
#include "trace.h"
#include "workload.h"
#include "workloads/autopilot.h"

namespace perfbench {
namespace {

constexpr int kSimFrames = 6;
// Every 27th point of the 540-point grid is replayed by verify().
constexpr int kVerifyStride = 27;

// One design point. The schedule inside `match` references *pipe and *pkg.
struct Design {
  std::unique_ptr<cnpu::PerceptionPipeline> pipe;
  std::unique_ptr<cnpu::PackageConfig> pkg;
  std::unique_ptr<cnpu::MatchResult> match;
};

// Pipeline, package and Algorithm 1 for one point; afterwards the package
// links run at infinite bandwidth, where contended must equal analytical.
Design build_design(const std::string& package, double tolerance, int cameras,
                    int queue) {
  const bool two_npu = package == "2npu";
  cnpu::AutopilotConfig cfg;
  cfg.num_cameras = cameras;
  cfg.fusion.num_cameras = cameras;
  cfg.fusion.queue_frames = queue;
  Design d;
  {
    const Span s(span::kBuildPipeline);
    d.pipe = std::make_unique<cnpu::PerceptionPipeline>(
        two_npu ? cnpu::build_two_npu_pipeline(cfg) : cnpu::build_autopilot_pipeline(cfg));
  }
  {
    const Span s(span::kMakePackage);
    d.pkg = std::make_unique<cnpu::PackageConfig>(
        two_npu ? cnpu::make_multi_npu_package(2) : cnpu::make_simba_package());
  }
  cnpu::MatchOptions mo;
  mo.tolerance = tolerance;
  {
    const Span s(span::kMatch);
    if (two_npu) {
      // The Sec. V-B pool layout of scale_out_two_npus: NPU0's quadrants for
      // the stages, nine NPU1 chiplets extend the (frozen) trunk pool.
      std::vector<std::vector<int>> pools = cnpu::partition_quadrants(*d.pkg);
      std::vector<int>& npu1 = pools.back();
      pools[3].insert(pools[3].end(), npu1.begin(), npu1.begin() + 9);
      npu1.erase(npu1.begin(), npu1.begin() + 9);
      mo.allow_base_split = true;
      mo.frozen_stages.push_back(3);
      d.match = std::make_unique<cnpu::MatchResult>(
          cnpu::throughput_matching_with_pools(*d.pipe, *d.pkg, pools, mo));
    } else {
      d.match = std::make_unique<cnpu::MatchResult>(
          cnpu::throughput_matching(*d.pipe, *d.pkg, mo));
    }
  }
  cnpu::NopParams inf = d.pkg->nop();
  inf.bandwidth_bytes_per_s = std::numeric_limits<double>::infinity();
  d.pkg->set_nop(inf);
  return d;
}

Design build_design(const cnpu::SweepPoint& p) {
  return build_design(p.str_at("package"), p.double_at("tolerance"),
                      static_cast<int>(p.int_at("cameras")),
                      static_cast<int>(p.int_at("queue")));
}

class DseDesign final : public Workload {
 public:
  explicit DseDesign(const RunConfig& cfg) : cfg_(cfg) {
    spec_ = cnpu::SweepSpec("dse_design")
                .axis("tolerance", {0.02, 0.05, 0.10, 0.15, 0.20, 0.30})
                .axis("cameras", {4, 6, 8, 10, 12})
                .axis("queue", {6, 12, 18})
                .axis("package", {"6x6", "2npu"})
                .axis("deadline", {"none", "live", "dead"});
    ref6_ = build_design("6x6", 0.10, 8, 12);
    ref2_ = build_design("2npu", 0.10, 8, 12);
    cnpu::SimOptions opt;
    opt.frames = kSimFrames;
    double ref_bound = 0.0;
    {
      const Span s(span::kBounds);
      ref_bound = cnpu::analysis::compute_bounds(ref6_.match->schedule, opt)
                      .streams.front()
                      .latency_bound_s;
    }
    // Grid bounds span about 0.5x..1.4x the reference: a "dead" deadline
    // is below every point's bound, a "live" one above all of them, so the
    // pruned set does not depend on the seed; the deadline-miss counts do.
    Rng rng(cfg.seed);
    dead_deadline_s_ = ref_bound * rng.uniform(0.25, 0.35);
    live_deadline_s_ = ref_bound * rng.uniform(1.6, 2.0);
    const auto n = static_cast<std::size_t>(spec_.num_points());
    slots_ = std::vector<Slot>(n);
    tasks_.assign(n, 0);
  }

  int units_per_cycle() const override { return spec_.num_points(); }
  const char* unit_span() const override { return span::kPoint; }
  double sweeps_per_unit() const override { return 1.0 / spec_.num_points(); }
  int points_per_sweep() const override { return spec_.num_points(); }

  void run_cycle(long long unit_base, std::vector<UnitResult>& out) override {
    const cnpu::SweepRunner runner(cnpu::SweepOptions{.threads = cfg_.workers});
    const Span sweep(span::kSweepRun);
    const SpanId sweep_id = sweep.id();
    const auto prune = [&](const cnpu::SweepPoint& p) -> std::string {
      Slot& slot = slots_[static_cast<std::size_t>(p.index)];
      slot.t0 = thread_cpu_s();
      slot.span = Tracer::global().begin(span::kPoint, sweep_id, unit_base + p.index);
      slot.digest = 0;
      try {
        slot.design = build_design(p);
        cnpu::analysis::BoundsReport bounds;
        {
          const Span s(span::kBounds);
          bounds = cnpu::analysis::compute_bounds(slot.design.match->schedule, options_for(p));
        }
        const cnpu::analysis::StreamBound& b = bounds.streams.front();
        slot.bound_s = b.latency_bound_s;
        slot.digest = Digest().add(b.latency_bound_s).value();
        points_.fetch_add(1);
        if (b.deadline_infeasible) {
          pruned_.fetch_add(1);
          finish(slot);
          return "latency bound exceeds the deadline (P001)";
        }
      } catch (...) {
        finish(slot);
        throw;
      }
      return "";
    };
    const auto evaluate = [&](const cnpu::SweepPoint& p) {
      Slot& slot = slots_[static_cast<std::size_t>(p.index)];
      const FinishGuard guard{this, slot};
      evaluate_point(p, slot);
      return cnpu::SweepRecord{};
    };
    const cnpu::SweepResult r = runner.run(spec_, evaluate, prune);
    for (std::size_t i = 0; i < r.points.size(); ++i) {
      UnitResult& u = out[i];
      u.cpu_s = slots_[i].t1 - slots_[i].t0;
      u.digest = slots_[i].digest;
      u.error = r.points[i].ok || r.points[i].pruned ? "" : r.points[i].error;
    }
  }

  void verify(std::vector<std::string>& failures) override {
    // A sampled warm run_into must equal a one-shot simulate_schedule.
    for (int i = 0; i < spec_.num_points(); i += kVerifyStride) {
      const cnpu::SweepPoint p = spec_.point(i);
      const Design d = build_design(p);
      const cnpu::SimOptions opt = options_for(p);
      cnpu::SimEngine engine;
      cnpu::SimResult cold;
      cnpu::SimResult warm;
      {
        const Span s(span::kRunCold);
        engine.run_into(d.match->schedule, opt, cold);
      }
      {
        const Span s(span::kRunWarm);
        engine.run_into(d.match->schedule, opt, warm);
      }
      cnpu::SimResult one_shot;
      {
        const Span s(span::kRunCold);
        one_shot = cnpu::simulate_schedule(d.match->schedule, opt);
      }
      if (!bitwise_equal(warm, one_shot) || !bitwise_equal(cold, one_shot)) {
        failures.push_back("dse_design " + p.label() +
                           ": warm run_into differs from one-shot simulate_schedule");
      }
    }
  }

  long long unit_tasks(int i) const override {
    return tasks_[static_cast<std::size_t>(i)];
  }

  void counters(Counters& c) const override {
    const auto ratio = [](long long a, long long b) {
      return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    c["core.match_steps"] = ratio(match_steps_.load(), matches_.load());
    c["sim.tasks_per_run"] = ratio(sim_tasks_.load(), runs_.load());
    c["sim.cache_hit_ratio"] = ratio(hits_.load(), hits_.load() + builds_.load());
    c["sim.warm_start_ratio"] = ratio(warm_starts_.load(), runs_.load());
    c["analysis.prune_ratio"] = ratio(pruned_.load(), points_.load());
  }

  void probe(Counters& c) override {
    const std::vector<const cnpu::Schedule*> schedules = {&ref6_.match->schedule,
                                                          &ref2_.match->schedule};
    c["dataflow.analyze_layer.ns_per_call"] = probe_analyze_layer_ns(schedules);
    std::vector<ArrivalShape> arrivals;
    std::vector<FaultShape> faults;
    std::vector<SimShape> shapes;
    cnpu::SimOptions opt;
    opt.frames = kSimFrames;
    for (const Design* d : {&ref6_, &ref2_}) {
      ArrivalShape a;
      a.spec.kind = cnpu::ArrivalKind::kPeriodic;
      a.spec.rate_fps = 1.0 / d->match->metrics.pipe_s;
      a.frames = kSimFrames;
      arrivals.push_back(a);
      faults.push_back(FaultShape{
          &d->match->schedule,
          cnpu::busiest_non_io_chiplet(d->match->metrics, *d->pkg), {}});
      shapes.push_back(SimShape{&d->match->schedule, opt});
    }
    c["sim.arrivals.ns_per_frame"] = probe_arrivals_ns(arrivals);
    c["core.remap_schedule.us"] = probe_remap_us(faults);
    c["sim.program_build_us"] = probe_program_build_us(shapes);
  }

 private:
  struct Slot {
    double t0 = 0.0;  // thread CPU time; prune and evaluate share a thread
    double t1 = 0.0;
    SpanId span = kNoSpan;
    Design design;
    double bound_s = 0.0;
    std::uint64_t digest = 0;
  };

  // Closes a unit: releases its design, stamps its end, closes its span.
  void finish(Slot& slot) {
    slot.design = Design{};
    slot.t1 = thread_cpu_s();
    Tracer::global().end(slot.span);
  }
  struct FinishGuard {
    DseDesign* self;
    Slot& slot;
    ~FinishGuard() { self->finish(slot); }
  };

  cnpu::SimOptions options_for(const cnpu::SweepPoint& p) const {
    cnpu::SimOptions opt;
    opt.frames = kSimFrames;
    const std::string& deadline = p.str_at("deadline");
    opt.deadline_s = deadline == "live"   ? live_deadline_s_
                     : deadline == "dead" ? dead_deadline_s_
                                          : 0.0;
    return opt;
  }

  void evaluate_point(const cnpu::SweepPoint& p, Slot& slot) {
    const cnpu::Schedule& sched = slot.design.match->schedule;
    const cnpu::SimOptions analytical = options_for(p);
    cnpu::SimOptions contended = analytical;
    contended.nop_mode = cnpu::NopMode::kContended;

    cnpu::ScheduleMetrics metrics;
    {
      const Span s(span::kEvaluate);
      metrics = cnpu::evaluate_schedule(sched);
    }
    {
      const Span s(span::kValidate);
      cnpu::analysis::validate(sched, analytical).throw_if_enforced();
    }
    cnpu::SimResult sa;
    cnpu::SimResult sc;
    run_cold(sched, analytical, sa);
    run_cold(sched, contended, sc);

    if (digest_of(sa, Links::kIgnored) != digest_of(sc, Links::kIgnored)) {
      throw std::runtime_error(
          "contended differs from analytical at infinite bandwidth");
    }
    for (const cnpu::SimResult* r : {&sa, &sc}) {
      std::string err = check_conservation(*r);
      if (err.empty()) err = check_latency_bound(*r, {slot.bound_s});
      if (!err.empty()) throw std::runtime_error(err);
    }
    const cnpu::MatchResult& m = *slot.design.match;
    Digest d;
    d.add(m.metrics.e2e_s).add(m.metrics.pipe_s).add(m.metrics.energy_j());
    d.add(static_cast<std::int64_t>(m.trace.size())).add(metrics.e2e_s);
    d.add(slot.bound_s);
    add_sim_result(d, sa);
    add_sim_result(d, sc);
    slot.digest = d.value();
    tasks_[static_cast<std::size_t>(p.index)] = sa.tasks_executed + sc.tasks_executed;
    matches_.fetch_add(1);
    match_steps_.fetch_add(static_cast<long long>(m.trace.size()));
  }

  // A cold run: a fresh engine's first run of the schedule.
  void run_cold(const cnpu::Schedule& sched, const cnpu::SimOptions& opt,
                cnpu::SimResult& out) {
    const Span s(span::kRunCold);
    cnpu::SimEngine engine;
    engine.run_into(sched, opt, out);
    const cnpu::EngineStats& st = engine.stats();
    runs_.fetch_add(st.runs);
    builds_.fetch_add(st.program_builds);
    hits_.fetch_add(st.program_cache_hits);
    warm_starts_.fetch_add(st.warm_starts);
    sim_tasks_.fetch_add(out.tasks_executed);
  }

  RunConfig cfg_;
  cnpu::SweepSpec spec_;
  Design ref6_;
  Design ref2_;
  double dead_deadline_s_ = 0.0;
  double live_deadline_s_ = 0.0;
  std::vector<Slot> slots_;
  std::vector<long long> tasks_;
  std::atomic<long long> points_{0};
  std::atomic<long long> pruned_{0};
  std::atomic<long long> matches_{0};
  std::atomic<long long> match_steps_{0};
  std::atomic<long long> runs_{0};
  std::atomic<long long> builds_{0};
  std::atomic<long long> hits_{0};
  std::atomic<long long> warm_starts_{0};
  std::atomic<long long> sim_tasks_{0};
};

}  // namespace

std::unique_ptr<Workload> make_dse_design(const RunConfig& cfg) {
  return std::make_unique<DseDesign>(cfg);
}

}  // namespace perfbench
