// Sensitivity study: how the matched MCM schedule responds to workload
// parameters the paper holds fixed - camera count, input resolution, and
// temporal queue depth. Extends the evaluation with the deployment questions
// an automotive integrator would ask first.
//
// Each axis is a declarative SweepSpec fanned across cores by SweepRunner
// (the resolution axis zips its label with the h/w pair); tables are
// assembled from the index-ordered records, so output is identical for any
// thread count.
#include <functional>

#include "bench_common.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

SweepRecord run_point(const AutopilotConfig& cfg) {
  const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
  const PackageConfig pkg = make_simba_package();
  const ScheduleMetrics m = throughput_matching(pipe, pkg).metrics;
  SweepRecord r;
  r.set("pipe_ms", m.pipe_s * 1e3)
      .set("e2e_ms", m.e2e_s * 1e3)
      .set("energy_j", m.energy_j())
      .set("fps", 1.0 / m.pipe_s);
  return r;
}

void print_sweep_table(const std::string& title, const std::string& axis_col,
                       const SweepResult& sweep,
                       const std::function<std::string(const SweepPoint&)>&
                           axis_cell) {
  bench::require_all_ok(sweep);
  Table t(title);
  t.set_header({axis_col, "Pipe Lat(ms)", "E2E Lat(ms)", "Energy(J)",
                "Sustained FPS"});
  for (const SweepPointResult& p : sweep.points) {
    t.add_row({axis_cell(p.point), format_fixed(p.record.get("pipe_ms"), 2),
               format_fixed(p.record.get("e2e_ms"), 1),
               format_fixed(p.record.get("energy_j"), 3),
               format_fixed(p.record.get("fps"), 1)});
  }
  std::printf("%s\n", t.to_string().c_str());
}

void print_tables() {
  bench::print_header("Sensitivity - cameras / resolution / queue depth",
                      "deployment sweeps beyond the paper's fixed workload");
  const SweepRunner runner;

  {
    const SweepSpec spec =
        SweepSpec("sensitivity_cameras").axis("cameras", {4, 6, 8, 12});
    const SweepResult sweep = runner.run(spec, [](const SweepPoint& p) {
      AutopilotConfig cfg;
      cfg.num_cameras = static_cast<int>(p.int_at("cameras"));
      cfg.fusion.num_cameras = cfg.num_cameras;
      return run_point(cfg);
    });
    print_sweep_table("camera count (paper: 8)", "Cameras", sweep,
                      [](const SweepPoint& p) {
                        return p.at("cameras").to_string();
                      });
  }

  {
    const SweepSpec spec =
        SweepSpec("sensitivity_resolution", SweepCombine::kZipped)
            .axis("res", {"480p", "720p", "1080p"})
            .axis("h", {480, 720, 1080})
            .axis("w", {854, 1280, 1920});
    const SweepResult sweep = runner.run(spec, [](const SweepPoint& p) {
      AutopilotConfig cfg;
      cfg.fe.input_h = p.int_at("h");
      cfg.fe.input_w = p.int_at("w");
      return run_point(cfg);
    });
    print_sweep_table("camera resolution (paper: 720p)", "Resolution", sweep,
                      [](const SweepPoint& p) { return p.str_at("res"); });
  }

  {
    const SweepSpec spec =
        SweepSpec("sensitivity_queue").axis("queue", {6, 12, 18, 24});
    const SweepResult sweep = runner.run(spec, [](const SweepPoint& p) {
      AutopilotConfig cfg;
      cfg.fusion.queue_frames = static_cast<int>(p.int_at("queue"));
      return run_point(cfg);
    });
    print_sweep_table("temporal queue depth N (paper: 12)", "Queue N", sweep,
                      [](const SweepPoint& p) {
                        return p.at("queue").to_string();
                      });
  }
  std::printf("takeaway: the 6x6 MCM holds ~12 FPS at the paper's operating "
              "point; resolution is the steepest axis (FE work scales with "
              "pixels and the base latency with it).\n\n");
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
