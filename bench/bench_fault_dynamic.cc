// Runtime fault injection: what the perception pipeline experiences when a
// chiplet dies mid-stream.
//
// bench_ablation_fault answers the static question — how good is the best
// schedule on 35 chiplets? This bench answers the dynamic one the AV
// safety case actually poses: a camera stream is in flight when a chiplet
// fails, in-flight frames are flushed, the online remap (core/remap.h)
// re-homes the orphaned work, and the pipeline climbs back to steady
// state. Three experiments:
//
//  1. Degraded-autopilot demonstration — the matched 36-chiplet autopilot
//     schedule driven at a fixed camera interval; the busiest chiplet dies
//     a quarter into the stream and recovers at the halfway mark. The
//     bench FAILS (exit 1) if the fault produces no latency spike, if the
//     spike never subsides after recovery, or if a fault with a frame
//     deadline drops nothing — degradation failing to appear means the
//     fault path is broken.
//  2. Per-frame latency timeline artifact (healthy vs faulted, CSV) — the
//     raw spike/recovery curve for plotting.
//  3. Fail-time x reschedule-penalty sweep on the fault-probe workload
//     (SweepRunner grid, CSV/JSON artifacts) showing how drop counts and
//     peak latency scale with detection/reconfiguration cost.
//
// Also hosts the fault-path microbench: a full 36-chiplet fault + remap +
// recovery stream per iteration.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "sim/event_sim.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

void print_autopilot_demo(bool smoke) {
  const int frames = smoke ? 48 : 96;
  // Frames admitted during the outage still run the degraded schedule, so
  // the backlog only starts draining once post-recovery frames complete:
  // the short smoke stream needs an earlier fault to finish its drain.
  const int fail_frame = smoke ? frames / 6 : frames / 4;
  const int recover_frame = smoke ? frames / 4 : frames / 2;
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  const MatchResult match = throughput_matching(pipe, pkg);
  const int victim = busiest_non_io_chiplet(match.metrics, pkg);

  SimOptions healthy_opt;
  healthy_opt.frames = frames;
  healthy_opt.frame_interval_s = match.metrics.pipe_s * 1.25;
  const SimResult healthy = simulate_schedule(match.schedule, healthy_opt);

  SimOptions fault_opt = healthy_opt;
  fault_opt.fault.chiplet_id = victim;
  fault_opt.fault.fail_time_s = fail_frame * healthy_opt.frame_interval_s;
  fault_opt.fault.recover_time_s =
      recover_frame * healthy_opt.frame_interval_s;
  fault_opt.fault.reschedule_penalty_s = healthy_opt.frame_interval_s;
  const SimResult faulted = simulate_schedule(match.schedule, fault_opt);

  // Same fault, but detection/reconfiguration takes 8 camera intervals and
  // frames carry a 2x-p50 deadline: the flush drops what can no longer
  // arrive in time instead of wasting survivors on it.
  SimOptions deadline_opt = fault_opt;
  deadline_opt.deadline_s = healthy.p50_latency_s * 2.0;
  deadline_opt.fault.reschedule_penalty_s =
      8.0 * healthy_opt.frame_interval_s;
  const SimResult dropped = simulate_schedule(match.schedule, deadline_opt);

  std::printf(
      "matched autopilot on 6x6, %d frames at %.1f ms interval; chiplet %d "
      "(busiest) dies at frame %d, recovers at frame %d, %.1f ms "
      "reschedule penalty\n",
      frames, healthy_opt.frame_interval_s * 1e3, victim, fail_frame,
      recover_frame, fault_opt.fault.reschedule_penalty_s * 1e3);
  Table t("mid-stream fault vs healthy stream");
  t.set_header({"Scenario", "p50(ms)", "p99(ms)", "Peak(ms)", "Done",
                "Dropped", "Missed", "Remapped", "Recovery(ms)"});
  const auto row = [&](const char* name, const SimResult& r) {
    t.add_row({name, format_fixed(r.p50_latency_s * 1e3, 1),
               format_fixed(r.p99_latency_s * 1e3, 1),
               format_fixed(r.peak_latency_s * 1e3, 1),
               std::to_string(r.frames_completed),
               std::to_string(r.dropped_frames),
               std::to_string(r.deadline_miss_frames),
               std::to_string(r.remapped_items),
               format_fixed(r.recovery_time_s * 1e3, 1)});
  };
  row("healthy", healthy);
  row("fault+recovery", faulted);
  row("fault+deadline", dropped);
  std::printf("%s", t.to_string().c_str());

  CsvWriter timeline;
  timeline.set_header({"frame", "healthy_latency_ms", "fault_latency_ms"});
  for (int f = 0; f < frames; ++f) {
    timeline.add_row(
        {std::to_string(f),
         format_fixed(healthy.frame_latency_s[static_cast<std::size_t>(f)] * 1e3,
                      3),
         format_fixed(faulted.frame_latency_s[static_cast<std::size_t>(f)] * 1e3,
                      3)});
  }
  if (!timeline.write_file(bench::artifact_path("bench_fault_dynamic_timeline.csv"))) {
    std::fprintf(stderr, "bench_fault_dynamic: failed to write timeline CSV\n");
    std::exit(1);
  }
  std::printf("timeline artifact: bench_fault_dynamic_timeline.csv\n");

  // Acceptance: the fault must visibly degrade the stream AND the stream
  // must visibly recover — otherwise the fault path is broken.
  const double spike = faulted.peak_latency_s / healthy.peak_latency_s;
  const double tail_ratio =
      faulted.frame_latency_s.back() / healthy.frame_latency_s.back();
  std::printf(
      "latency spike: %.2fx peak over healthy; final-frame latency back to "
      "%.3fx healthy; recovery %.0f ms after the fault\n\n",
      spike, tail_ratio, faulted.recovery_time_s * 1e3);
  if (!(spike > 1.2)) {
    std::fprintf(stderr,
                 "bench_fault_dynamic: fault produced NO latency spike "
                 "(%.3fx) - degradation failed to appear\n",
                 spike);
    std::exit(1);
  }
  if (!(faulted.recovery_time_s > 0.0) || !(tail_ratio < 1.05)) {
    std::fprintf(stderr,
                 "bench_fault_dynamic: stream did not recover (tail %.3fx "
                 "healthy, recovery %.3f s)\n",
                 tail_ratio, faulted.recovery_time_s);
    std::exit(1);
  }
  if (dropped.dropped_frames <= 0) {
    std::fprintf(stderr,
                 "bench_fault_dynamic: deadline fault dropped no frames - "
                 "drop accounting is broken\n");
    std::exit(1);
  }
}

SweepRecord sweep_point(const SweepPoint& p, int frames) {
  const double fail_frac = p.double_at("fail_frac");
  const double penalty_frames = p.double_at("penalty_frames");
  const int cams = 7;
  const PerceptionPipeline pipe = build_fault_probe_pipeline(cams);
  const PackageConfig pkg = make_simba_package(2, 4);
  const Schedule sched = build_chainwise_schedule(pipe, pkg);

  SimOptions base;
  base.frames = frames;
  const SimResult burst = simulate_schedule(sched, base);
  SimOptions opt = base;
  opt.frame_interval_s = burst.steady_interval_s * 1.3;
  opt.deadline_s = 10.0 * opt.frame_interval_s;
  const SimResult healthy = simulate_schedule(sched, opt);

  SimOptions fopt = opt;
  fopt.fault.chiplet_id = 5;  // mid-mesh, away from the I/O router at (0,0)
  fopt.fault.fail_time_s = fail_frac * frames * opt.frame_interval_s;
  fopt.fault.recover_time_s = fopt.fault.fail_time_s +
                              0.25 * frames * opt.frame_interval_s;
  fopt.fault.reschedule_penalty_s = penalty_frames * opt.frame_interval_s;
  const SimResult faulted = simulate_schedule(sched, fopt);

  SweepRecord rec;
  rec.set("healthy_p99_us", healthy.p99_latency_s * 1e6)
      .set("fault_p99_us", faulted.p99_latency_s * 1e6)
      .set("peak_us", faulted.peak_latency_s * 1e6)
      .set("spike", faulted.peak_latency_s / healthy.peak_latency_s)
      .set("dropped", static_cast<double>(faulted.dropped_frames))
      .set("completed", static_cast<double>(faulted.frames_completed))
      .set("recovery_ms", faulted.recovery_time_s * 1e3);
  return rec;
}

void print_sweep(bool smoke) {
  SweepSpec spec = smoke ? SweepSpec("fault_smoke")
                               .axis("fail_frac", {0.25, 0.5})
                               .axis("penalty_frames", {0.0, 8.0})
                         : SweepSpec("fault_grid")
                               .axis("fail_frac", {0.125, 0.25, 0.5})
                               .axis("penalty_frames", {0.0, 2.0, 8.0, 24.0});
  const int frames = smoke ? 48 : 128;
  const SweepResult sweep = SweepRunner().run(
      spec, [&](const SweepPoint& p) { return sweep_point(p, frames); });
  bench::require_all_ok(sweep);

  Table t("fail time x reschedule penalty (fault-probe workload)");
  t.set_header({"FailFrac", "Penalty(frames)", "p99 h/f (us)", "Peak(us)",
                "Spike", "Dropped", "Recovery(ms)"});
  for (const SweepPointResult& p : sweep.points) {
    t.add_row({format_fixed(p.point.double_at("fail_frac"), 3),
               format_fixed(p.point.double_at("penalty_frames"), 0),
               format_fixed(p.record.get("healthy_p99_us"), 0) + "/" +
                   format_fixed(p.record.get("fault_p99_us"), 0),
               format_fixed(p.record.get("peak_us"), 0),
               format_fixed(p.record.get("spike"), 2) + "x",
               format_fixed(p.record.get("dropped"), 0),
               format_fixed(p.record.get("recovery_ms"), 2)});
  }
  std::printf("%s", t.to_string().c_str());
  bench::write_sweep_artifacts(sweep, "bench_fault_dynamic_sweep");
}

void print_tables(bool smoke) {
  bench::print_header(
      "Dynamic fault injection - graceful degradation under a mid-stream "
      "chiplet loss",
      "extends the Sec. I modularity argument with runtime faults + online "
      "rescheduling (src/sim/event_sim.h, src/core/remap.h)");
  print_autopilot_demo(smoke);
  print_sweep(smoke);
}

// Full fault + flush + remap + recovery stream on the matched 36-chiplet
// autopilot schedule, per iteration.
void BM_FaultRecoveryStream(benchmark::State& state) {
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  const MatchResult match = throughput_matching(pipe, pkg);
  SimOptions opt;
  opt.frames = 64;
  opt.frame_interval_s = match.metrics.pipe_s * 1.25;
  opt.fault.chiplet_id = busiest_non_io_chiplet(match.metrics, pkg);
  opt.fault.fail_time_s = 16 * opt.frame_interval_s;
  opt.fault.recover_time_s = 32 * opt.frame_interval_s;
  opt.fault.reschedule_penalty_s = opt.frame_interval_s;
  opt.nop_mode =
      state.range(0) == 0 ? NopMode::kAnalytical : NopMode::kContended;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_schedule(match.schedule, opt));
  }
}
BENCHMARK(BM_FaultRecoveryStream)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("contended")
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") {
      // CI path (a CTest `integration` test): reduced stream/grid, no
      // timings; still enforces the degradation acceptance checks.
      cnpu::print_tables(true);
      return 0;
    }
  }
  return cnpu::bench::run(argc, argv,
                          +[] { cnpu::print_tables(false); });
}
