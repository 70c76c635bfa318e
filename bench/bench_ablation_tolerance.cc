// Ablation: Algorithm 1's tolerance coefficient (the paper's tau). Tighter
// tolerances shard harder - more chiplets, lower pipe latency, more weight
// replication energy.
#include "bench_common.h"
#include "core/report.h"
#include "core/throughput_matching.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

void print_tables() {
  bench::print_header("Ablation - throughput-matching tolerance sweep",
                      "Algorithm 1 tolerance coefficient (Sec. IV)");
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();

  Table t("tolerance sweep (6x6 MCM, full pipeline)");
  t.set_header({"tau", "Pipe Lat(ms)", "E2E Lat(ms)", "Energy(J)", "EDP(J*ms)",
                "Chiplets used", "Steps", "Converged"});
  for (double tol : {0.02, 0.05, 0.10, 0.20, 0.40}) {
    MatchOptions opt;
    opt.tolerance = tol;
    const MatchResult r = throughput_matching(pipe, pkg, opt);
    const MetricStrings ms = format_metrics(r.metrics);
    t.add_row({format_fixed(tol, 2), ms.pipe, ms.e2e, ms.energy, ms.edp,
               std::to_string(r.metrics.chiplets_used()),
               std::to_string(r.trace.size()), r.converged ? "yes" : "no"});
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
