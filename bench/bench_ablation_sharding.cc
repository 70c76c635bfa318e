// Ablation: what does the paper's nested greedy throughput matching buy over
// simpler mapping policies on the same 36-chiplet MCM?
//   quadrant-only : initial quadrant assignment, no sharding (steps 1-2)
//   layerwise     : greedy least-busy chiplet per layer over all 36
//   matched       : full Algorithm 1 (sharding + surplus reallocation)
#include "bench_common.h"
#include "core/baselines.h"
#include "core/partition.h"
#include "core/report.h"
#include "core/throughput_matching.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

void print_tables() {
  bench::print_header("Ablation - scheduling policy on the 6x6 MCM",
                      "design-choice ablation (DESIGN.md), extends Table II");
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();

  std::vector<std::pair<std::string, ScheduleMetrics>> rows;

  Schedule quadrant_only(pipe, pkg);
  initial_quadrant_assignment(quadrant_only, partition_quadrants(pkg));
  rows.emplace_back("quadrant-only", evaluate_schedule(quadrant_only));

  rows.emplace_back(
      "layerwise-greedy",
      evaluate_schedule(
          build_baseline_schedule(pipe, pkg, PipelineMode::kLayerwise)));

  const MatchResult match = throughput_matching(pipe, pkg);
  rows.emplace_back("throughput-matched", match.metrics);

  Table t("policy comparison (full 4-stage pipeline)");
  t.set_header({"Policy", "E2E Lat(ms)", "Pipe Lat(ms)", "Energy(J)",
                "EDP(J*ms)", "Util(%)"});
  for (const auto& [label, m] : rows) {
    const MetricStrings ms = format_metrics(m);
    t.add_row({label, ms.e2e, ms.pipe, ms.energy, ms.edp, ms.utilization});
  }
  std::printf("%s", t.to_string().c_str());

  const double q = rows[0].second.pipe_s;
  const double m = rows[2].second.pipe_s;
  std::printf("throughput matching lowers pipe latency %.2fx vs quadrant-only "
              "(the paper's sharding contribution)\n\n", q / m);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
