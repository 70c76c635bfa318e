// Fig. 10: Algorithm 1's progression when two Simba NPUs (72 chiplets) are
// active: sharding extends until the FE chains split into two pipeline
// sub-stages, halving the base pipelining latency (~82 -> ~41 ms).
#include "bench_common.h"
#include "core/scaling.h"
#include "util/strings.h"
#include "util/table.h"

namespace cnpu {
namespace {

void print_tables() {
  bench::print_header("Fig. 10 - Algorithm 1 trace on 2 NPUs (72 chiplets)",
                      "DATE'25 chiplet-NPU perception paper, Fig. 10");
  const ScaleOutResult r = scale_out_two_npus();

  Table t("algorithm steps (trunks frozen as fixed overhead, Sec. V-B)");
  t.set_header({"Step", "Action", "Pipe Lat(ms)", "Base(ms)", "Chiplets free"});
  int step = 0;
  for (const auto& s : r.match.trace) {
    t.add_row({std::to_string(step++), s.action, format_fixed(s.pipe_ms, 2),
               format_fixed(s.latbase_ms, 2), std::to_string(s.chiplets_free)});
  }
  std::printf("%s", t.to_string().c_str());

  const auto& stages = r.match.metrics.stages;
  std::printf("final stage pipes: FE %.2f ms, S %.2f ms, T %.2f ms\n",
              stages[0].pipe_s * 1e3, stages[1].pipe_s * 1e3,
              stages[2].pipe_s * 1e3);
  std::printf("final pipelining latency (stages 1-3): %.2f ms\n",
              r.match.trace.back().pipe_ms);
  std::printf("paper: 82.2 -> 81.7 -> 79.6 -> 78.7 -> 41.4 ms; final 41.1 ms "
              "(~2x the 36-chiplet case), chiplets remaining 27 -> 10\n\n");
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::bench::read_args(argc, argv);
  cnpu::print_tables();
}
