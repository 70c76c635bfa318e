// Fig. 3: latency and energy breakdown per perception component on a single
// 256-PE Shidiannao-like (OS) vs NVDLA-like (WS) chiplet, plus the headline
// claims: OS ~6.85x latency advantage; WS energy advantage off-fusion.
#include "bench_common.h"
#include "dataflow/cost_model.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

struct ComponentCost {
  std::string name;
  CostReport os;
  CostReport ws;
};

std::vector<ComponentCost> component_costs() {
  const PeArrayConfig os = make_pe_array(DataflowKind::kOutputStationary);
  const PeArrayConfig ws = make_pe_array(DataflowKind::kWeightStationary);
  const PerceptionPipeline pipe = build_autopilot_pipeline();

  std::vector<ComponentCost> out;
  for (const auto& stage : pipe.stages) {
    for (const auto& sm : stage.models) {
      // Fig. 3 reports one FE+BFPN instance ("to be multiplied by 8").
      if (stage.name == "FE_BFPN" && sm.model.name != "FE_BFPN_CAM0") continue;
      out.push_back(ComponentCost{sm.model.name,
                                  analyze_layers(sm.model.layers, os),
                                  analyze_layers(sm.model.layers, ws)});
    }
  }
  return out;
}

void print_tables() {
  bench::print_header("Fig. 3 - per-component latency/energy, OS vs WS chiplet",
                      "DATE'25 chiplet-NPU perception paper, Fig. 3");
  const auto costs = component_costs();

  double os_total = 0.0;
  double ws_total = 0.0;
  double os_fusion = 0.0;
  double os_all = 0.0;
  double os_e_nf = 0.0;
  double ws_e_nf = 0.0;
  double os_e_f = 0.0;
  double ws_e_f = 0.0;

  Table t("per-component breakdown (single 256-PE chiplet)");
  t.set_header({"Component", "OS Lat(ms)", "WS Lat(ms)", "OS Energy(mJ)",
                "WS Energy(mJ)", "Lat share(OS)"});
  double total_os_lat = 0.0;
  for (const auto& c : costs) total_os_lat += c.os.latency_s;
  for (const auto& c : costs) {
    t.add_row({c.name, format_fixed(c.os.latency_s * 1e3, 2),
               format_fixed(c.ws.latency_s * 1e3, 2),
               format_fixed(c.os.energy_j() * 1e3, 2),
               format_fixed(c.ws.energy_j() * 1e3, 2),
               format_fixed(c.os.latency_s / total_os_lat * 100, 1) + "%"});
    os_total += c.os.latency_s;
    ws_total += c.ws.latency_s;
    const bool fusion = c.name == "S_FUSE" || c.name == "T_FUSE";
    if (fusion) {
      os_fusion += c.os.latency_s;
      os_e_f += c.os.energy_j();
      ws_e_f += c.ws.energy_j();
    } else {
      os_e_nf += c.os.energy_j();
      ws_e_nf += c.ws.energy_j();
    }
    os_all += c.os.latency_s;
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("OS speedup over WS (all components): %.2fx  (paper: 6.85x)\n",
              ws_total / os_total);
  std::printf("fusion (S+T) share of OS latency:    %.1f%% (paper: S 25-28%%, T 52-54%%)\n",
              os_fusion / os_all * 100.0);
  std::printf("WS energy advantage off-fusion:      %.2fx  (paper: 1.55x)\n",
              os_e_nf / ws_e_nf);
  std::printf("OS energy advantage on fusion:       %.2fx  (paper: fusion is OS-affine)\n\n",
              ws_e_f / os_e_f);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
