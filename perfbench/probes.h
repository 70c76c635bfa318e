// Layer probes: time the layers that run inside larger public calls by
// replaying them alone, outside the timed units so they cannot distort
// the units' own timings. Traced runs only.
#pragma once

#include <vector>

#include "core/schedule.h"
#include "sim/arrivals.h"
#include "sim/event_sim.h"

namespace perfbench {

// analyze_layer replayed over every (shard, chiplet) pair of the
// schedules, exactly as the evaluator prices them: ns per call.
double probe_analyze_layer_ns(const std::vector<const cnpu::Schedule*>& schedules);

struct ArrivalShape {
  cnpu::ArrivalSpec spec;
  int frames = 0;
};
// generate_arrivals at the workload's frame counts: ns per frame.
double probe_arrivals_ns(const std::vector<ArrivalShape>& shapes);

struct FaultShape {
  const cnpu::Schedule* schedule = nullptr;
  int chiplet = -1;
  std::vector<int> pool;  // allowed survivors; empty = any
};
// remap_schedule onto the degraded package of each fault shape: us per call.
double probe_remap_us(const std::vector<FaultShape>& shapes);

// Median host time of a SweepRunner::run whose evaluation does nothing,
// over `points` points on `threads` workers: the fan-out cost alone (one
// ThreadPool spawn and join per run). Microseconds.
double probe_noop_sweep_us(int points, int threads);

struct SimShape {
  const cnpu::Schedule* schedule = nullptr;
  cnpu::SimOptions options;
};
// Program compilation cost: per shape, the median of a fresh engine's
// first run minus the median of the same engine's second run, averaged
// over the shapes. Microseconds. Records sim.run_cold / sim.run_warm spans.
double probe_program_build_us(const std::vector<SimShape>& shapes);

// Calls every traced library entry point a few times on reference designs
// (the 6x6 Autopilot match and a 4-tenant fleet on 4x4), so each span has
// a measured duration even on a workload whose loop never calls it.
void run_census();

}  // namespace perfbench
