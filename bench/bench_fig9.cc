// Fig. 9: NoP data-movement costs (latency, energy) through the first three
// perception stages under the throughput-matched mapping, and the claim that
// NoP overheads sit orders of magnitude below compute.
#include "bench_common.h"
#include "core/throughput_matching.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/autopilot.h"

namespace cnpu {
namespace {

struct NopRow {
  std::string label;
  NopCost cost;
  double compute_ms = 0.0;
};

// Outbound NoP cost of every shard-gather + forward edge of `layer_name`'s
// output under the matched schedule.
NopCost outbound_cost(const Schedule& s, int item_idx) {
  const PackageConfig& pkg = s.package();
  const Placement& from = s.placement(item_idx);
  // Find the consumer: the next item in the same model (chain edge), if any.
  const Schedule::Item& it = s.item(item_idx);
  const auto& items = s.items_of_model(it.stage, it.model);
  int next = -1;
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    if (items[i] == item_idx) next = items[i + 1];
  }
  const double bytes = it.desc->output_bytes();
  if (next < 0) {
    // Last layer: ship to the centroid of the next stage (approximate with
    // 2 hops, the mean quadrant-to-quadrant distance).
    return nop_transfer(pkg.nop(), bytes, 2);
  }
  return nop_gather_cost(pkg, from, s.placement(next), bytes);
}

void print_tables() {
  bench::print_header("Fig. 9 - NoP data movement costs (stages 1-3)",
                      "DATE'25 chiplet-NPU perception paper, Fig. 9");
  const PerceptionPipeline pipe = build_autopilot_front();
  const PackageConfig pkg = make_simba_package();
  const MatchResult r = throughput_matching(pipe, pkg);
  const Schedule& s = r.schedule;

  // The figure's x-axis components.
  const std::vector<std::pair<std::string, std::string>> probes{
      {"FE+BFPN", "BFPN_GRID_EMBED"}, {"S_QKV_Proj", "S_QKV_Proj"},
      {"S_ATTN", "S_ATTN_AV"},        {"S_FFN", "S_FFN2"},
      {"T_QKV_Proj", "T_QKV_Proj"},   {"T_ATTN", "T_ATTN_AV"},
      {"T_FFN", "T_FFN2"}};

  // The paper compares NoP costs against Fig. 3's single-chiplet compute
  // latencies; mirror that reference here.
  const PeArrayConfig os = make_pe_array(DataflowKind::kOutputStationary);
  const Model fe = build_fe_bfpn_model("FE");

  Table t("per-component NoP transfer cost (matched 6x6 mapping)");
  t.set_header({"Component", "NoP Lat(ms)", "NoP Energy(mJ)",
                "Compute Lat(ms, Fig.3)", "NoP/Compute"});
  for (const auto& [label, layer] : probes) {
    for (int i = 0; i < s.num_items(); ++i) {
      if (s.item(i).desc->name != layer) continue;
      const NopCost c = outbound_cost(s, i);
      const double compute =
          label == "FE+BFPN"
              ? analyze_layers(fe.layers, os).latency_s
              : analyze_layer(*s.item(i).desc, os).latency_s;
      t.add_row({label, format_fixed(c.latency_s * 1e3, 4),
                 format_fixed(c.energy_j * 1e3, 4),
                 format_fixed(compute * 1e3, 2),
                 format_fixed(c.latency_s / compute * 100.0, 2) + "%"});
      break;
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("total NoP latency %.3f ms vs pipeline E2E %.1f ms (%.2f%%)\n",
              r.metrics.nop.latency_s * 1e3, r.metrics.e2e_s * 1e3,
              r.metrics.nop.latency_s / r.metrics.e2e_s * 100.0);
  std::printf("paper: NoP well below compute (their Fig. 9 peaks ~5 ms vs "
              "hundreds of ms of compute); same holds here.\n\n");
}

void BM_NopEvaluation(benchmark::State& state) {
  const PerceptionPipeline pipe = build_autopilot_front();
  const PackageConfig pkg = make_simba_package();
  const MatchResult r = throughput_matching(pipe, pkg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_schedule(r.schedule));
  }
}
BENCHMARK(BM_NopEvaluation)->Unit(benchmark::kMillisecond)->Iterations(10);

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  return cnpu::bench::run(argc, argv, cnpu::print_tables);
}
