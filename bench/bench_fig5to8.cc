// Figs. 5-8: the throughput-matched mapping of the four perception stages
// onto the 6x6 MCM quadrants, with the per-stage E2E / pipe / energy / EDP
// scores the paper annotates on each figure.
//
// Also hosts the sweep-engine acceptance check: a tolerance x cameras x
// queue-depth grid around the Fig. 5-8 operating point is evaluated twice
// through SweepRunner - serial (threads=1) and parallel (all cores) - and
// the emitted records are compared bitwise before reporting the wall-clock
// speedup.
#include <algorithm>
#include <chrono>
#include <limits>

#include "bench_common.h"
#include "core/report.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "sim/event_sim.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

MatchResult matched() {
  static const PerceptionPipeline pipe = build_autopilot_pipeline();
  static const PackageConfig pkg = make_simba_package();
  return throughput_matching(pipe, pkg);
}

// The acceptance grid: full-pipeline matchings across matching tolerance,
// camera count, and temporal queue depth (90 points around the paper's
// operating point tolerance=0.10, cameras=8, queue=12).
SweepSpec acceptance_spec() {
  return SweepSpec("fig5to8_grid")
      .axis("tolerance", {0.02, 0.05, 0.10, 0.15, 0.20, 0.30})
      .axis("cameras", {4, 6, 8, 10, 12})
      .axis("queue", {6, 12, 18});
}

SweepRecord acceptance_point(const SweepPoint& p) {
  AutopilotConfig cfg;
  cfg.num_cameras = static_cast<int>(p.int_at("cameras"));
  cfg.fusion.num_cameras = cfg.num_cameras;
  cfg.fusion.queue_frames = static_cast<int>(p.int_at("queue"));
  MatchOptions opt;
  opt.tolerance = p.double_at("tolerance");
  const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
  PackageConfig pkg = make_simba_package();
  const MatchResult r = throughput_matching(pipe, pkg, opt);

  // Contended-fabric acceptance: with infinite link bandwidth every link
  // occupancy is zero-width, so the contended simulator must reproduce the
  // analytical one bitwise at every grid point.
  NopParams inf = pkg.nop();
  inf.bandwidth_bytes_per_s = std::numeric_limits<double>::infinity();
  pkg.set_nop(inf);  // r.schedule points at pkg
  SimOptions analytical;
  analytical.frames = 6;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;
  const SimResult sa = simulate_schedule(r.schedule, analytical);
  const SimResult sc = simulate_schedule(r.schedule, contended);
  const bool identical = sa.frame_completion_s == sc.frame_completion_s &&
                         sa.first_frame_latency_s == sc.first_frame_latency_s &&
                         sa.steady_interval_s == sc.steady_interval_s &&
                         sa.p99_latency_s == sc.p99_latency_s &&
                         sa.tasks_executed == sc.tasks_executed;

  SweepRecord rec;
  rec.set("pipe_ms", r.metrics.pipe_s * 1e3)
      .set("e2e_ms", r.metrics.e2e_s * 1e3)
      .set("energy_j", r.metrics.energy_j())
      .set("edp_j_ms", r.metrics.edp_j_ms())
      .set("converged", r.converged ? 1.0 : 0.0)
      .set("sim_identical", identical ? 1.0 : 0.0);
  return rec;
}

void print_sweep_comparison() {
  using clock = std::chrono::steady_clock;
  const SweepSpec spec = acceptance_spec();

  const auto t0 = clock::now();
  const SweepResult serial =
      SweepRunner(SweepOptions{1}).run(spec, acceptance_point);
  const auto t1 = clock::now();
  const SweepResult parallel = SweepRunner().run(spec, acceptance_point);
  const auto t2 = clock::now();

  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double parallel_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  // A point failure or a serial/parallel mismatch must fail the binary, not
  // just annotate the table — this is the engine's acceptance check.
  bench::require_all_ok(serial);
  bench::require_all_ok(parallel);
  // Wall-clock throughput legitimately differs between the two runs; the
  // identity check covers the point payloads, so normalize the timing
  // fields before diffing the artifacts.
  SweepResult normalized = parallel;
  normalized.elapsed_s = serial.elapsed_s;
  normalized.points_per_sec = serial.points_per_sec;
  const bool identical = serial.to_csv() == normalized.to_csv() &&
                         serial.to_json() == normalized.to_json();
  int sim_mismatches = 0;
  for (const SweepPointResult& p : serial.points) {
    if (p.record.get("sim_identical") != 1.0) ++sim_mismatches;
  }

  std::printf("sweep engine check (%d-point tolerance x cameras x queue grid "
              "via SweepRunner):\n",
              spec.num_points());
  std::printf("  serial   (threads=1) : %8.1f ms\n", serial_ms);
  std::printf("  parallel (threads=%-2d): %8.1f ms\n",
              SweepRunner().threads(), parallel_ms);
  std::printf("  speedup: %.2fx on %d hardware threads, emitted metrics "
              "identical: %s\n",
              serial_ms / parallel_ms, ThreadPool::recommended_threads(),
              identical ? "yes" : "NO - BUG");
  const std::string sim_verdict =
      sim_mismatches == 0
          ? "yes (all " + std::to_string(spec.num_points()) + " points)"
          : "NO - BUG (" + std::to_string(sim_mismatches) +
                " mismatching points)";
  std::printf("  contended sim bitwise == analytical at infinite link "
              "bandwidth: %s\n\n",
              sim_verdict.c_str());
  if (!identical) {
    std::fprintf(stderr, "sweep engine check failed: parallel sweep emitted "
                         "different metrics than serial\n");
    std::exit(1);
  }
  if (sim_mismatches != 0) {
    std::fprintf(stderr, "contended-NoP check failed: %d grid points diverge "
                         "from analytical mode at infinite bandwidth\n",
                 sim_mismatches);
    std::exit(1);
  }
}

void print_tables() {
  bench::print_header(
      "Figs. 5-8 - stage mappings on the 6x6 MCM (throughput matching)",
      "DATE'25 chiplet-NPU perception paper, Figs. 5, 6, 7, 8");
  const MatchResult r = matched();

  std::printf("%s\n", stage_summary_table(r.metrics,
                                          "per-stage mapping scores").c_str());
  std::printf("paper reference: FE 82.69/79.59 ms, S 129.1/78.72 ms, "
              "T 200.5/82.16 ms, TR 91.27/82.16 ms (E2E/pipe)\n\n");

  // Per-chiplet placement listing (the quadrant layout of Figs. 5-8).
  Table t("chiplet assignments");
  t.set_header({"Chiplet", "Mesh", "Busy(ms)", "Layers (shard fraction)"});
  const Schedule& s = r.schedule;
  for (const auto& u : r.metrics.chiplets) {
    if (u.busy_s <= 0.0) continue;
    std::vector<std::string> work;
    for (int i = 0; i < s.num_items(); ++i) {
      const Placement& p = s.placement(i);
      for (const auto& sh : p.shards) {
        if (sh.chiplet_id != u.chiplet_id) continue;
        std::string tag = s.item(i).desc->name;
        if (p.num_shards() > 1) {
          tag += "(" + format_fixed(sh.fraction, 2) + ")";
        }
        // Compress FE chains to a single tag.
        if (s.item(i).stage == 0 && s.item(i).layer > 0) tag.clear();
        if (!tag.empty()) work.push_back(tag);
      }
    }
    const auto& coord = s.package().chiplet(u.chiplet_id).coord;
    std::string joined = join(work, " ");
    if (joined.size() > 70) joined = joined.substr(0, 67) + "...";
    t.add_row({std::to_string(u.chiplet_id),
               "(" + std::to_string(coord.row) + "," + std::to_string(coord.col) + ")",
               format_fixed(u.busy_s * 1e3, 1), joined});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\n%s", mesh_busy_map(r.metrics, s.package()).c_str());
  std::printf("(stage tags: 0=FE_BFPN 1=S_FUSE 2=T_FUSE 3=TRUNKS)\n");
  std::printf("algorithm steps: %zu, converged: %s, Latbase: %.2f ms\n\n",
              r.trace.size(), r.converged ? "yes" : "no", r.latbase_s * 1e3);

  // Contended column: replay the matched schedule through the link-level
  // simulator at the paper-default 100 GB/s. The matched mapping keeps
  // per-link load far below saturation, so congestion barely moves it -
  // exactly the paper's operating point (contrast: bench_contention).
  SimOptions analytical;
  analytical.frames = 12;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;
  const SimResult sim_a = simulate_schedule(r.schedule, analytical);
  const SimResult sim_c = simulate_schedule(r.schedule, contended);
  const LinkStats* hot = hottest_link(sim_c.link_stats);
  const double max_util = hot != nullptr ? hot->utilization : 0.0;
  std::printf("event-sim steady interval: analytical %.2f ms, contended "
              "%.2f ms (p99 %.1f / %.1f ms, peak link util %.1f%%)\n\n",
              sim_a.steady_interval_s * 1e3, sim_c.steady_interval_s * 1e3,
              sim_a.p99_latency_s * 1e3, sim_c.p99_latency_s * 1e3,
              max_util * 100.0);
  print_sweep_comparison();
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
