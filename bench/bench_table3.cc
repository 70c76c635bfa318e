// Table III: input-scaling effects on the occupancy trunk - latency versus
// the number of 2x upsampling stages ([2X,2Y] .. [16X,16Y]).
#include "bench_common.h"
#include "dataflow/cost_model.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/trunks.h"

namespace cnpu {
namespace {

struct OccPoint {
  int factor;       // upsampling factor (2^stages)
  double e2e_ms;    // chain latency on one chiplet
  double pipe_ms;   // max layer latency (layerwise pipelining)
};

std::vector<OccPoint> occupancy_sweep() {
  const PeArrayConfig os = make_pe_array(DataflowKind::kOutputStationary);
  std::vector<OccPoint> out;
  for (int stages = 1; stages <= 4; ++stages) {
    const Model occ = build_occupancy_trunk(TrunkConfig{}, stages);
    double e2e = 0.0;
    double pipe = 0.0;
    for (const auto& l : occ.layers) {
      const double ms = analyze_layer(l, os).latency_s * 1e3;
      e2e += ms;
      pipe = std::max(pipe, ms);
    }
    out.push_back(OccPoint{1 << stages, e2e, pipe});
  }
  return out;
}

void print_tables() {
  bench::print_header("Table III - occupancy trunk upsampling scaling",
                      "DATE'25 chiplet-NPU perception paper, Table III");
  const auto sweep = occupancy_sweep();
  const double base_e2e = sweep.front().e2e_ms;
  const double base_pipe = sweep.front().pipe_ms;

  Table t("OCUP_TR latency vs upsampling factor (single OS chiplet)");
  t.set_header({"Upsampling", "E2E Lat(ms)", "E2E ratio", "Pipe Lat(ms)",
                "Pipe ratio"});
  for (const auto& p : sweep) {
    const std::string f = std::to_string(p.factor);
    t.add_row({"[" + f + "X," + f + "Y]", format_fixed(p.e2e_ms, 2),
               format_fixed(p.e2e_ms / base_e2e, 2) + "x",
               format_fixed(p.pipe_ms, 2),
               format_fixed(p.pipe_ms / base_pipe, 2) + "x"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("paper: E2E 0.97 / 4.97 (4.10x) / 21.16 (20.72x) / 86.29 (87.59x);\n"
              "       pipe 0.97 / 3.99 (3.11x) / 16.18 (15.64x) / 65.13 (66.00x)\n");
  const Model occ = build_occupancy_trunk(TrunkConfig{}, 4);
  const PeArrayConfig os = make_pe_array(DataflowKind::kOutputStationary);
  const double last =
      analyze_layer(occ.layers.back(), os).latency_s * 1e3;
  std::printf("final upsampling layer share of E2E: %.0f%% (paper: ~75%%)\n\n",
              last / sweep.back().e2e_ms * 100.0);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
