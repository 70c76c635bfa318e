#include "probes.h"

#include <chrono>
#include <optional>
#include <string>

#include "analysis/bounds.h"
#include "analysis/validate.h"
#include "core/remap.h"
#include "core/throughput_matching.h"
#include "dataflow/cost_model.h"
#include "exp/sweep_runner.h"
#include "sim/serving.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Keeps replayed results observable so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Repeats `pass` until at least `min_s` of host time and `min_reps` passes
// have elapsed; returns (total seconds, passes).
template <typename Fn>
std::pair<double, int> repeat_for(double min_s, int min_reps, Fn&& pass) {
  const auto t0 = Clock::now();
  int reps = 0;
  while (reps < min_reps || seconds_since(t0) < min_s) {
    pass();
    ++reps;
  }
  return {seconds_since(t0), reps};
}

}  // namespace

double probe_analyze_layer_ns(const std::vector<const cnpu::Schedule*>& schedules) {
  // Shard descriptors are built once: the probe times the cost model alone.
  std::vector<std::pair<cnpu::LayerDesc, const cnpu::PeArrayConfig*>> calls;
  for (const cnpu::Schedule* s : schedules) {
    for (int i = 0; i < s->num_items(); ++i) {
      for (const cnpu::ShardAssignment& sh : s->placement(i).shards) {
        calls.emplace_back(cnpu::shard_fraction(*s->item(i).desc, sh.fraction),
                           &s->package().chiplet(sh.chiplet_id).array);
      }
    }
  }
  if (calls.empty()) return 0.0;
  double sum = 0.0;
  const auto [secs, reps] = repeat_for(0.02, 3, [&] {
    for (const auto& [desc, array] : calls) {
      sum += cnpu::analyze_layer(desc, *array).latency_s;
    }
  });
  g_sink = sum;
  return secs * 1e9 / (static_cast<double>(reps) * static_cast<double>(calls.size()));
}

double probe_arrivals_ns(const std::vector<ArrivalShape>& shapes) {
  long long frames = 0;
  for (const ArrivalShape& a : shapes) frames += a.frames;
  if (frames == 0) return 0.0;
  std::vector<double> out;
  const auto [secs, reps] = repeat_for(0.02, 3, [&] {
    for (const ArrivalShape& a : shapes) {
      cnpu::generate_arrivals(a.spec, a.frames, out);
      g_sink = out.back();
    }
  });
  return secs * 1e9 / (static_cast<double>(reps) * static_cast<double>(frames));
}

double probe_remap_us(const std::vector<FaultShape>& shapes) {
  if (shapes.empty()) return 0.0;
  std::vector<cnpu::PackageConfig> degraded;
  degraded.reserve(shapes.size());
  for (const FaultShape& f : shapes) {
    degraded.push_back(f.schedule->package().without_chiplet(f.chiplet));
  }
  const auto [secs, reps] = repeat_for(0.02, 3, [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const cnpu::Schedule remapped = cnpu::remap_schedule(
          *shapes[i].schedule, degraded[i], shapes[i].chiplet, nullptr,
          shapes[i].pool);
      g_sink = remapped.num_items();
    }
  });
  return secs * 1e6 / (static_cast<double>(reps) * static_cast<double>(shapes.size()));
}

double probe_noop_sweep_us(int points, int threads) {
  const cnpu::SweepRunner runner(cnpu::SweepOptions{.threads = threads});
  std::vector<cnpu::ParamValue> values;
  for (int i = 0; i < points; ++i) values.emplace_back(i);
  const cnpu::SweepSpec spec = cnpu::SweepSpec("noop").axis("i", values);
  std::vector<double> runs;
  repeat_for(0.1, 15, [&] {
    const auto t0 = Clock::now();
    const cnpu::SweepResult r =
        runner.run(spec, [](const cnpu::SweepPoint&) { return cnpu::SweepRecord{}; });
    runs.push_back(seconds_since(t0) * 1e6);
    g_sink = static_cast<double>(r.points.size());
  });
  return percentile(runs, 50.0);
}

double probe_program_build_us(const std::vector<SimShape>& shapes) {
  if (shapes.empty()) return 0.0;
  double total = 0.0;
  for (const SimShape& shape : shapes) {
    std::vector<double> cold;
    std::vector<double> warm;
    cnpu::SimResult out;
    for (int rep = 0; rep < 7; ++rep) {
      cnpu::SimEngine engine;
      auto t0 = Clock::now();
      {
        const Span s(span::kRunCold);
        engine.run_into(*shape.schedule, shape.options, out);
      }
      cold.push_back(seconds_since(t0) * 1e6);
      t0 = Clock::now();
      {
        const Span s(span::kRunWarm);
        engine.run_into(*shape.schedule, shape.options, out);
      }
      warm.push_back(seconds_since(t0) * 1e6);
    }
    total += percentile(cold, 50.0) - percentile(warm, 50.0);
  }
  return total / static_cast<double>(shapes.size());
}

void run_census() {
  for (int rep = 0; rep < 3; ++rep) {
    const cnpu::PerceptionPipeline pipe = [] {
      const Span s(span::kBuildPipeline);
      return cnpu::build_autopilot_pipeline();
    }();
    const cnpu::PackageConfig pkg = [] {
      const Span s(span::kMakePackage);
      return cnpu::make_simba_package();
    }();
    const cnpu::MatchResult match = [&] {
      const Span s(span::kMatch);
      return cnpu::throughput_matching(pipe, pkg);
    }();
    cnpu::SimOptions opt;
    opt.frames = 6;
    {
      const Span s(span::kEvaluate);
      g_sink = cnpu::evaluate_schedule(match.schedule).e2e_s;
    }
    {
      const Span s(span::kValidate);
      g_sink = static_cast<double>(cnpu::analysis::validate(match.schedule, opt).items().size());
    }
    {
      const Span s(span::kBounds);
      g_sink = cnpu::analysis::compute_bounds(match.schedule, opt).streams.front().latency_bound_s;
    }
    probe_program_build_us({SimShape{&match.schedule, opt}});

    const cnpu::PerceptionPipeline probe_pipe = cnpu::build_fault_probe_pipeline(3);
    const cnpu::PackageConfig fleet_pkg = cnpu::make_simba_package(4, 4);
    std::vector<cnpu::TenantWorkload> fleet(4);
    for (int t = 0; t < 4; ++t) {
      fleet[static_cast<std::size_t>(t)].name = "t" + std::to_string(t);
      fleet[static_cast<std::size_t>(t)].pipeline = &probe_pipe;
      fleet[static_cast<std::size_t>(t)].frames = 16;
      fleet[static_cast<std::size_t>(t)].deadline_s = 2e-3;
    }
    std::optional<cnpu::ServingPlan> plan;
    {
      const Span s(span::kPlanBuild);
      plan.emplace(fleet_pkg, fleet);
    }
    cnpu::SimResult out;
    {
      const Span s(span::kProbe);
      plan->run_at_rate_into(2000.0, out);
    }
    g_sink = out.makespan_s;
    cnpu::LoadSearchOptions search;
    search.fps_lo = 500.0;
    search.fps_hi = 8000.0;
    search.max_rounds = 2;
    search.threads = 2;
    {
      const Span s(span::kSearch);
      g_sink = cnpu::max_sustainable_load(fleet_pkg, fleet, {}, search).max_fps;
    }
    const cnpu::SweepSpec spec = cnpu::SweepSpec("census").axis("i", {0, 1, 2, 3});
    const Span sweep(span::kSweepRun);
    const SpanId sweep_id = sweep.id();
    (void)cnpu::SweepRunner(cnpu::SweepOptions{.threads = 2})
        .run(spec, [sweep_id](const cnpu::SweepPoint&) {
          const Span s(span::kPoint, sweep_id);
          return cnpu::SweepRecord{};
        });
  }
}

}  // namespace perfbench
