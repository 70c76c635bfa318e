// Fig. 4: per-layer affinities toward the OS and WS dataflows.
// Delta = Value(OS) - Value(WS); negative -> OS affinity, positive -> WS.
#include <cmath>

#include "bench_common.h"
#include "dataflow/cost_model.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

struct LayerAffinity {
  std::string layer;
  double dlat_ms;   // OS - WS latency
  double dergy_mj;  // OS - WS energy
};

std::vector<LayerAffinity> affinities(const Model& model) {
  const PeArrayConfig os = make_pe_array(DataflowKind::kOutputStationary);
  const PeArrayConfig ws = make_pe_array(DataflowKind::kWeightStationary);
  std::vector<LayerAffinity> out;
  for (const auto& l : model.layers) {
    const CostReport ros = analyze_layer(l, os);
    const CostReport rws = analyze_layer(l, ws);
    out.push_back(LayerAffinity{
        l.name, (ros.latency_s - rws.latency_s) * 1e3,
        (ros.energy_j() - rws.energy_j()) * 1e3});
  }
  return out;
}

void print_group(const std::string& title, const std::vector<Model>& models) {
  Table t(title + "  (Delta = OS - WS; negative -> OS affinity)");
  t.set_header({"Layer", "dLat(ms)", "dEnergy(mJ)", "affinity(lat)",
                "affinity(ergy)"});
  int os_lat = 0;
  int ws_lat = 0;
  int os_e = 0;
  int ws_e = 0;
  for (const auto& m : models) {
    for (const auto& a : affinities(m)) {
      t.add_row({a.layer, format_fixed(a.dlat_ms, 3), format_fixed(a.dergy_mj, 4),
                 a.dlat_ms <= 0 ? "OS" : "WS", a.dergy_mj <= 0 ? "OS" : "WS"});
      (a.dlat_ms <= 0 ? os_lat : ws_lat) += 1;
      (a.dergy_mj <= 0 ? os_e : ws_e) += 1;
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("layers OS-affine: latency %d/%d, energy %d/%d\n\n", os_lat,
              os_lat + ws_lat, os_e, os_e + ws_e);
}

void print_tables() {
  bench::print_header("Fig. 4 - per-layer OS/WS affinities",
                      "DATE'25 chiplet-NPU perception paper, Fig. 4");
  const AutopilotConfig cfg;

  print_group("FE+BFPN (top)", {build_fe_bfpn_model("FE", cfg.fe, cfg.bifpn)});
  print_group("S+T attention fusion (mid)",
              {build_spatial_fusion_model(cfg.fusion),
               build_temporal_fusion_model(cfg.fusion)});
  std::vector<Model> trunks{build_occupancy_trunk(cfg.trunks),
                            build_lane_trunk(cfg.trunks, cfg.lane_context)};
  for (auto& det : build_detection_heads(cfg.trunks)) trunks.push_back(det);
  print_group("Trunks (bot)", trunks);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
