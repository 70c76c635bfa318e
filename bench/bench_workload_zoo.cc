// Generality check: schedule standard DNNs (classification / transformer /
// segmentation) on the paper's 6x6 MCM - the library is a general chiplet-NPU
// scheduling tool, not a single-pipeline artifact.
#include "bench_common.h"
#include "core/report.h"
#include "core/throughput_matching.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

void print_tables() {
  bench::print_header("Workload zoo on the 6x6 Simba MCM",
                      "library generality beyond the paper's pipeline");
  const PackageConfig pkg = make_simba_package();

  Table t("matched schedules (single-stage pipelines)");
  t.set_header({"Model", "Domain", "GMACs", "Pipe Lat(ms)", "E2E Lat(ms)",
                "Energy(mJ)", "Util(%)", "Inferences/s"});
  for (const auto& entry : workload_zoo()) {
    PerceptionPipeline pipe;
    pipe.name = entry.model.name;
    pipe.stages.push_back(Stage{"NET", {{entry.model, false}}});
    const MatchResult r = throughput_matching(pipe, pkg);
    t.add_row({entry.model.name, entry.domain,
               format_fixed(entry.model.macs() / 1e9, 2),
               format_fixed(r.metrics.pipe_s * 1e3, 2),
               format_fixed(r.metrics.e2e_s * 1e3, 2),
               format_fixed(r.metrics.energy_j() * 1e3, 1),
               format_fixed(r.metrics.utilization * 100, 1),
               format_fixed(1.0 / r.metrics.pipe_s, 0)});
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
