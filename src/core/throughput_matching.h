// Algorithm 1: Nested Greedy Throughput Matching (paper Sec. IV).
//
// Outer loop: find the stage whose pipelining latency exceeds the base
// latency (the FE+BFPN stage's pipe latency) by more than the tolerance.
// Inner loop: shard that stage's bottleneck layer one way further onto the
// least-busy chiplet of the stage's pool, reallocating surplus chiplets to
// the bottleneck stage when the pool runs dry. Repeats until all stage pipe
// latencies match the base or no further sharding is possible.
//
// With `allow_base_split` (the 2-NPU scale-out of Sec. V-B), once every
// stage has converged to the current base and enough chiplets remain free,
// each FE chain is split into two pipeline sub-stages, halving the base
// latency, and matching resumes at the new base.
#pragma once

#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/schedule.h"

namespace cnpu {

struct MatchOptions {
  double tolerance = 0.10;  // stage pipe may exceed base by this fraction
  bool allow_base_split = false;
  // Stages never treated as bottlenecks (the 2-NPU study freezes the trunk
  // stage: "a fixed performance overhead, not the latency bottleneck").
  std::vector<int> frozen_stages;
};

// One algorithm step, recorded for Fig. 10-style traces.
struct TraceStep {
  std::string action;       // e.g. "shard T_FFN1 x3", "split FE_BFPN_CAM2"
  double pipe_ms = 0.0;     // package pipe latency after the step
  double latbase_ms = 0.0;  // base latency at this step
  int chiplets_free = 0;    // unassigned chiplets remaining
};

struct MatchResult {
  Schedule schedule;
  ScheduleMetrics metrics;
  std::vector<TraceStep> trace;
  double latbase_s = 0.0;
  bool converged = false;
};

// Runs Algorithm 1 on `pipeline` over `package` (quadrant-initialized).
// Throws std::invalid_argument when the initial assignment finds no weight
// room, or when the final placement overflows a chiplet's memory (the
// message lists the overflowing chiplets).
MatchResult throughput_matching(const PerceptionPipeline& pipeline,
                                const PackageConfig& package,
                                const MatchOptions& options = {});

// Same, but with explicit per-stage chiplet pools (pools beyond the stage
// count form the free reserve).
MatchResult throughput_matching_with_pools(
    const PerceptionPipeline& pipeline, const PackageConfig& package,
    const std::vector<std::vector<int>>& pools, const MatchOptions& options);

// Initial quadrant assignment only (step 1-2 of the method): parallel-model
// stages place one model per chiplet; single-model fusion stages place one
// layer per chiplet (elementwise/pool ops ride with their predecessor).
void initial_quadrant_assignment(Schedule& schedule,
                                 const std::vector<std::vector<int>>& pools);

// Splits a single-chiplet chain model into two balanced pipeline sub-stages,
// moving the suffix onto `new_chiplet`. Returns the split layer index.
int split_model_chain(Schedule& schedule, int stage, int model,
                      int new_chiplet);

}  // namespace cnpu
