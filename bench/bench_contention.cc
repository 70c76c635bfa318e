// NoP link contention: where the analytical model stops being enough.
//
// The paper's closed-form NoP cost treats every transfer as an independent
// delay on an infinitely-parallel fabric. bench_contention drives the
// link-level simulator (src/sim/nop_sim.h) through two experiments:
//
//  1. Hot-link demonstration — a multi-camera fan-in: P single-layer
//     producers on one mesh row all feed an east-end fusion chiplet, so
//     every tensor funnels through the last eastward link. At the
//     paper-default 100 GB/s the offered per-frame load on that link
//     exceeds the producers' compute time, the link saturates, and the
//     measured steady-state interval exceeds the analytical prediction.
//     The bench FAILS (exit 1) if congestion does not bite — this is the
//     acceptance check that the contended path models something the
//     analytical path cannot.
//  2. Injection-rate x mesh-size sweep on the SweepRunner grid, emitting
//     CSV/JSON artifacts with per-point contended vs analytical steady
//     intervals, p99 latency, and peak link utilization.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/baselines.h"
#include "exp/sweep_runner.h"
#include "sim/event_sim.h"
#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

void print_hot_link_demo(bool smoke) {
  const int producers = 12;
  const int frames = smoke ? 24 : 48;
  const PerceptionPipeline pipe = build_fanin_pipeline(producers);
  const PackageConfig pkg = make_simba_package(1, producers + 1);
  const Schedule sched = build_fanin_schedule(pipe, pkg);

  SimOptions analytical;
  analytical.frames = frames;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;
  const SimResult a = simulate_schedule(sched, analytical);
  const SimResult c = simulate_schedule(sched, contended);

  std::printf("hot-link fan-in: %d cameras -> 1 fusion chiplet on a 1x%d row "
              "mesh, %d-frame burst, 100 GB/s links\n",
              producers, producers + 1, frames);
  Table t("steady state and tail latency");
  t.set_header({"NoP model", "Steady(us)", "p50(ms)", "p95(ms)", "p99(ms)"});
  const auto row = [&](const char* name, const SimResult& r) {
    t.add_row({name, format_fixed(r.steady_interval_s * 1e6, 1),
               format_fixed(r.p50_latency_s * 1e3, 2),
               format_fixed(r.p95_latency_s * 1e3, 2),
               format_fixed(r.p99_latency_s * 1e3, 2)});
  };
  row("analytical", a);
  row("contended", c);
  std::printf("%s", t.to_string().c_str());

  Table lt("busiest directed links (contended mode)");
  lt.set_header({"Link", "Util(%)", "Msgs", "MaxWait(us)"});
  CsvWriter links_csv;
  links_csv.set_header({"link", "busy_us", "utilization", "messages",
                        "max_queue_wait_us"});
  for (const LinkStats& l : c.link_stats) {
    links_csv.add_row({l.link.describe(), format_fixed(l.busy_s * 1e6, 3),
                       format_fixed(l.utilization, 4),
                       std::to_string(l.messages),
                       format_fixed(l.max_queue_wait_s * 1e6, 2)});
    if (l.utilization < 0.25 && !l.link.is_io_port()) continue;
    lt.add_row({l.link.describe(), format_fixed(l.utilization * 100.0, 1),
                std::to_string(l.messages),
                format_fixed(l.max_queue_wait_s * 1e6, 1)});
  }
  std::printf("%s", lt.to_string().c_str());
  if (!links_csv.write_file(bench::artifact_path("bench_contention_links.csv"))) {
    std::fprintf(stderr,
                 "bench_contention: failed to write bench_contention_links.csv\n");
    std::exit(1);
  }
  std::printf("per-link artifact: bench_contention_links.csv\n");

  const double slowdown = c.steady_interval_s / a.steady_interval_s;
  std::printf("congestion slowdown: %.2fx (contended steady interval over "
              "analytical)\n\n",
              slowdown);
  if (!(slowdown > 1.02)) {
    std::fprintf(stderr,
                 "bench_contention: hot link did NOT congest (%.4fx) - the "
                 "contended NoP path is broken\n",
                 slowdown);
    std::exit(1);
  }
}

SweepRecord sweep_point(const SweepPoint& p, int frames) {
  const int cols = static_cast<int>(p.int_at("cols"));
  const int producers = cols - 1;
  const double fps = p.double_at("fps");
  const PerceptionPipeline pipe = build_fanin_pipeline(producers);
  const PackageConfig pkg = make_simba_package(1, cols);
  const Schedule sched = build_fanin_schedule(pipe, pkg);

  SimOptions analytical;
  analytical.frames = frames;
  analytical.frame_interval_s = 1.0 / fps;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;
  const SimResult a = simulate_schedule(sched, analytical);
  const SimResult c = simulate_schedule(sched, contended);
  const LinkStats* hot = hottest_link(c.link_stats);

  SweepRecord rec;
  rec.set("analytical_steady_ms", a.steady_interval_s * 1e3)
      .set("contended_steady_ms", c.steady_interval_s * 1e3)
      .set("slowdown", c.steady_interval_s / a.steady_interval_s)
      .set("analytical_p99_ms", a.p99_latency_s * 1e3)
      .set("contended_p99_ms", c.p99_latency_s * 1e3)
      .set("max_link_util", hot != nullptr ? hot->utilization : 0.0);
  if (hot != nullptr) rec.note = "hot link " + hot->link.describe();
  return rec;
}

void print_sweep(bool smoke) {
  // Injection rate x mesh size. Producer compute caps the analytical rate
  // near 800 FPS; the shared east link saturates earlier as the row grows.
  SweepSpec spec = smoke ? SweepSpec("contention_smoke")
                               .axis("cols", {5, 13})
                               .axis("fps", {250.0, 1000.0})
                         : SweepSpec("contention_grid")
                               .axis("cols", {5, 9, 13})
                               .axis("fps", {250.0, 500.0, 750.0, 1000.0});
  const int frames = smoke ? 16 : 48;
  const SweepResult sweep = SweepRunner().run(
      spec, [&](const SweepPoint& p) { return sweep_point(p, frames); });
  bench::require_all_ok(sweep);

  Table t("injection rate x mesh size (fan-in workload)");
  t.set_header({"Cols", "FPS", "Steady an/ct (ms)", "p99 an/ct (ms)",
                "Slowdown", "MaxUtil"});
  for (const SweepPointResult& p : sweep.points) {
    t.add_row({std::to_string(p.point.int_at("cols")),
               format_fixed(p.point.double_at("fps"), 0),
               format_fixed(p.record.get("analytical_steady_ms"), 2) + "/" +
                   format_fixed(p.record.get("contended_steady_ms"), 2),
               format_fixed(p.record.get("analytical_p99_ms"), 1) + "/" +
                   format_fixed(p.record.get("contended_p99_ms"), 1),
               format_fixed(p.record.get("slowdown"), 2) + "x",
               format_fixed(p.record.get("max_link_util"), 2)});
  }
  std::printf("%s", t.to_string().c_str());
  bench::write_sweep_artifacts(sweep, "bench_contention_sweep");
}

void print_tables(bool smoke) {
  bench::print_header(
      "NoP link contention - beyond the paper's analytical fabric",
      "extends Sec. IV-D with FIFO link arbitration (src/sim/nop_sim.h)");
  print_hot_link_demo(smoke);
  print_sweep(smoke);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::print_tables(cnpu::bench::read_args(argc, argv, /*smoke_run=*/true));
}
