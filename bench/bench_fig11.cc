// Fig. 11: lane trunk latency (line) and energy (bars) under context-aware
// computing; the dashed 82 ms line is the pipelining budget.
#include "bench_common.h"
#include "core/context_gating.h"
#include "util/strings.h"
#include "util/table.h"

namespace cnpu {
namespace {

constexpr double kThresholdS = 0.082;
const std::vector<double> kFractions{1.0, 0.9, 0.75, 0.6, 0.5, 0.4, 0.25, 0.1};

std::vector<ContextSweepPoint> sweep() {
  return lane_context_sweep(TrunkConfig{},
                            make_pe_array(DataflowKind::kOutputStationary),
                            kFractions, kThresholdS);
}

void print_tables() {
  bench::print_header(
      "Fig. 11 - lane trunk under context-aware computing (82 ms budget)",
      "DATE'25 chiplet-NPU perception paper, Fig. 11");
  const auto points = sweep();

  Table t("LANE_TR latency/energy vs % context retained");
  t.set_header({"Context(%)", "Lat(ms)", "Energy(mJ)", "Meets 82 ms?"});
  for (const auto& p : points) {
    t.add_row({format_fixed(p.context * 100, 0), format_fixed(p.latency_s * 1e3, 2),
               format_fixed(p.energy_j * 1e3, 2),
               p.meets_threshold ? "yes" : "no"});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("largest feasible context: %.0f%% (paper: around 60%%)\n\n",
              max_feasible_context(points) * 100.0);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
