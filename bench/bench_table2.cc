// Table II: chiplet arrangements at the same total PE budget (9,216):
// 1x9216 / 2x4608 / 4x2304 monolithic baselines (stagewise + layerwise
// pipelining) against the Simba-like 36x256 MCM with throughput matching.
// Comparison scope: the first three (bottleneck) perception stages.
//
// The 2 pipelining modes x 3 baseline arrangements form a declarative
// SweepSpec evaluated through SweepRunner; the table is assembled from the
// index-ordered sweep records.
#include <algorithm>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/report.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "sim/event_sim.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

void add_metric_rows(Table& t, const std::string& mode,
                     const std::vector<SweepRecord>& cols) {
  auto row = [&](const std::string& metric, auto getter) {
    std::vector<std::string> cells{mode, metric};
    for (const SweepRecord& r : cols) cells.push_back(getter(r));
    t.add_row(cells);
  };
  row("E2E Lat(s)",
      [](const SweepRecord& r) { return format_fixed(r.get("e2e_s"), 2); });
  row("Pipe Lat(s)",
      [](const SweepRecord& r) { return format_fixed(r.get("pipe_s"), 2); });
  row("Energy(J)",
      [](const SweepRecord& r) { return format_fixed(r.get("energy_j"), 2); });
  row("EDP(ms*J)",
      [](const SweepRecord& r) { return format_fixed(r.get("edp_j_ms"), 0); });
  row("Utilization(%)", [](const SweepRecord& r) {
    return format_fixed(r.get("utilization") * 100.0, 2);
  });
}

SweepRecord record_metrics(const ScheduleMetrics& m) {
  SweepRecord r;
  r.set("e2e_s", m.e2e_s)
      .set("pipe_s", m.pipe_s)
      .set("energy_j", m.energy_j())
      .set("edp_j_ms", m.edp_j_ms())
      .set("utilization", m.utilization);
  return r;
}

void print_tables() {
  bench::print_header(
      "Table II - chiplet arrangements at 9,216 PEs (stages 1-3)",
      "DATE'25 chiplet-NPU perception paper, Table II");
  const PerceptionPipeline front = build_autopilot_front();
  const PackageConfig simba = make_simba_package();
  const MatchResult mcm = throughput_matching(front, simba);

  // Baseline grid: pipelining mode (slow axis) x chip count, matching the
  // table's row blocks / columns.
  const SweepSpec spec =
      SweepSpec("table2_baselines")
          .axis("mode", {"stagewise", "layerwise"})
          .axis("chips", {1, 2, 4});
  const SweepResult sweep =
      SweepRunner().run(spec, [&](const SweepPoint& p) {
        const PackageConfig pkg =
            make_monolithic_package(static_cast<int>(p.int_at("chips")));
        const PipelineMode mode = p.str_at("mode") == "stagewise"
                                      ? PipelineMode::kStagewise
                                      : PipelineMode::kLayerwise;
        return record_metrics(run_baseline(front, pkg, mode, "x").metrics);
      });
  bench::require_all_ok(sweep);

  Table t;
  t.set_header({"Pipeline", "Metric", "1x9216", "2x4608", "4x2304", "36x256"});
  const SweepRecord mcm_record = record_metrics(mcm.metrics);
  // Group rows by reading the axes back off each point, so reordering or
  // extending the spec can never silently misalign the table.
  for (const std::string mode : {"stagewise", "layerwise"}) {
    std::vector<SweepRecord> cols;
    for (int chips : {1, 2, 4}) {
      for (const SweepPointResult& p : sweep.points) {
        if (p.point.str_at("mode") == mode && p.point.int_at("chips") == chips) {
          cols.push_back(p.record);
        }
      }
    }
    cols.push_back(mcm_record);
    add_metric_rows(t,
                    pipeline_mode_name(mode == "stagewise"
                                           ? PipelineMode::kStagewise
                                           : PipelineMode::kLayerwise),
                    cols);
    if (mode == "stagewise") t.add_separator();
  }
  std::printf("%s", t.to_string().c_str());
  std::printf(
      "paper (stagewise): E2E 1.8/1.8/1.8/0.5 s; pipe 1.8/0.7/0.67/0.09 s;\n"
      "                   energy 0.64/0.69/0.65/0.71 J; EDP 274/283/273/69;\n"
      "                   util 19.11/25.39/31.13/54.19 %%\n");

  const SweepRecord* mono_ptr = nullptr;  // stagewise, 1 chip
  for (const SweepPointResult& p : sweep.points) {
    if (p.point.str_at("mode") == "stagewise" && p.point.int_at("chips") == 1) {
      mono_ptr = &p.record;
    }
  }
  if (mono_ptr == nullptr) {
    std::fprintf(stderr, "table2 sweep lost its stagewise/1-chip point\n");
    std::exit(1);
  }
  const SweepRecord& mono = *mono_ptr;
  std::printf("\nheadline ratios (36x256 vs 1x9216):\n");
  std::printf("  throughput increase : %.1fx   (paper: ~20x pipe-latency gap)\n",
              mono.get("pipe_s") / mcm.metrics.pipe_s);
  std::printf("  utilization increase: %.1fx   (paper: 2.8x)\n",
              mcm.metrics.utilization / mono.get("utilization"));
  std::printf("  energy overhead     : %s  (paper: +10.9%%)\n",
              delta_percent(mcm.metrics.energy_j(), mono.get("energy_j")).c_str());

  // Cross-validate the analytic pipe latency with the event simulator, in
  // both NoP modes: the contended column shows what FIFO link arbitration
  // at 100 GB/s adds on top of the closed-form prediction.
  SimOptions sim_opt;
  sim_opt.frames = 10;
  const SimResult sim = simulate_schedule(mcm.schedule, sim_opt);
  std::printf("  event-sim steady interval: %.2f ms vs analytic pipe %.2f ms\n",
              sim.steady_interval_s * 1e3, mcm.metrics.pipe_s * 1e3);
  SimOptions contended_opt = sim_opt;
  contended_opt.nop_mode = NopMode::kContended;
  const SimResult contended = simulate_schedule(mcm.schedule, contended_opt);
  const LinkStats* hot = hottest_link(contended.link_stats);
  const double max_util = hot != nullptr ? hot->utilization : 0.0;
  std::printf("  contended NoP column:      %.2f ms steady, %.2f ms p99, "
              "peak link util %.1f%%\n\n",
              contended.steady_interval_s * 1e3, contended.p99_latency_s * 1e3,
              max_util * 100.0);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
