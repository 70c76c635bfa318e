// Table I: heterogeneous integration for the MCM trunks relative to the
// OS-only configuration. Lcstr = 85 ms; Score = -EDP under the constraint.
#include "bench_common.h"
#include "core/report.h"
#include "core/trunk_dse.h"
#include "util/strings.h"
#include "util/table.h"

namespace cnpu {
namespace {

TrunkDseResult dse(int ws) {
  TrunkDseOptions opt;
  opt.ws_chiplets = ws;
  return run_trunk_dse(opt);
}

void print_tables() {
  bench::print_header(
      "Table I - heterogeneous trunk integration (Lcstr = 85 ms)",
      "DATE'25 chiplet-NPU perception paper, Table I");

  const TrunkDseResult os = dse(0);
  const TrunkDseResult ws = dse(9);
  const TrunkDseResult het2 = dse(2);
  const TrunkDseResult het4 = dse(4);

  auto col = [](const TrunkDseResult& r, auto metric) {
    return metric(r.metrics);
  };
  auto e2e = [](const ScheduleMetrics& m) { return m.e2e_s * 1e3; };
  auto pipe = [](const ScheduleMetrics& m) { return m.pipe_s * 1e3; };
  auto energy = [](const ScheduleMetrics& m) { return m.energy_j(); };
  auto edp = [](const ScheduleMetrics& m) { return m.edp_j_ms(); };

  Table t("trunk configurations (paper: OS / WS / Het(2) / Het(4))");
  t.set_header({"Metric", "OS", "WS", "Het(2)", "Het(4)", "d(2)", "d(4)"});
  auto row = [&](const std::string& name, auto metric, int digits) {
    t.add_row({name, format_fixed(col(os, metric), digits),
               format_fixed(col(ws, metric), digits),
               format_fixed(col(het2, metric), digits),
               format_fixed(col(het4, metric), digits),
               delta_percent(col(het2, metric), col(os, metric)),
               delta_percent(col(het4, metric), col(os, metric))});
  };
  row("E2E Lat(ms)", e2e, 2);
  row("Pipe Lat(ms)", pipe, 2);
  row("Energy(J)", energy, 4);
  row("EDP(ms*J)", edp, 3);
  std::printf("%s", t.to_string().c_str());
  std::printf("paper: E2E 91.2/605.7/91.3/91.3; pipe 87.9/605.7/71.7/71.7;\n"
              "       energy 0.185/0.139/0.183/0.174 (d: -1.1%%/-6.2%%);\n"
              "       EDP 16.89/59.35/14.38/15.1 (d: -17.4%%/-12.0%%)\n");
  std::printf("chosen configs: OS [%s] WS [%s] Het2 [%s] Het4 [%s]\n",
              os.config_desc.c_str(), ws.config_desc.c_str(),
              het2.config_desc.c_str(), het4.config_desc.c_str());
  std::printf("candidates evaluated: OS %d, WS %d, Het2 %d, Het4 %d\n",
              os.evaluated, ws.evaluated, het2.evaluated, het4.evaluated);
  std::printf("note: our DSE balances the OS baseline harder than the paper's, "
              "so the heterogeneous pipe gain concentrates in energy/EDP "
              "(see EXPERIMENTS.md).\n\n");
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
