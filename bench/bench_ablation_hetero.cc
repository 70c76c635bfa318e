// Ablation: how much heterogeneity helps - trunk DSE swept over the number
// of WS chiplets in the 3x3 trunk quadrant (extends Table I beyond the
// paper's Het(2)/Het(4) points).
#include "bench_common.h"
#include "core/report.h"
#include "core/trunk_dse.h"
#include "util/strings.h"
#include "util/table.h"

namespace cnpu {
namespace {

void print_tables() {
  bench::print_header("Ablation - WS chiplet count in the trunk quadrant",
                      "extends Table I (Sec. IV-C)");
  TrunkDseOptions base;
  const TrunkDseResult os_only = run_trunk_dse(base);
  const double e0 = os_only.metrics.energy_j();
  const double edp0 = os_only.metrics.edp_j_ms();

  Table t("trunk DSE vs WS chiplet count (Lcstr = 85 ms)");
  t.set_header({"WS chiplets", "Pipe Lat(ms)", "Energy(J)", "dEnergy",
                "EDP(J*ms)", "dEDP", "Feasible", "Config"});
  for (int ws : {0, 1, 2, 3, 4, 5, 6}) {
    TrunkDseOptions opt;
    opt.ws_chiplets = ws;
    const TrunkDseResult r = run_trunk_dse(opt);
    t.add_row({std::to_string(ws), format_fixed(r.metrics.pipe_s * 1e3, 2),
               format_fixed(r.metrics.energy_j(), 4),
               delta_percent(r.metrics.energy_j(), e0),
               format_fixed(r.metrics.edp_j_ms(), 3),
               delta_percent(r.metrics.edp_j_ms(), edp0),
               r.feasible ? "yes" : "no", r.config_desc});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("paper's points: Het(2) energy -1.1%%, Het(4) -6.2%%; beyond ~4 "
              "WS chiplets the OS pool becomes the constraint.\n\n");
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
