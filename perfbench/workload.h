// The benchmark's workload interface and the helpers the three workloads
// share.
//
// A workload is built by its factory (that construction is the timed
// set-up), then runs whole cycles: one cycle evaluates every distinct unit
// of the workload once, on a fixed number of workers, closed loop. The
// units of every cycle are identical, so each cycle must reproduce the
// first cycle's output digests bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_sim.h"

namespace perfbench {

// The traced spans, one per public entry point the benchmark calls.
namespace span {
inline constexpr const char* kBuildPipeline = "workloads.build_pipeline";
inline constexpr const char* kMakePackage = "arch.make_package";
inline constexpr const char* kMatch = "core.throughput_matching";
inline constexpr const char* kEvaluate = "core.evaluate_schedule";
inline constexpr const char* kValidate = "analysis.validate";
inline constexpr const char* kBounds = "analysis.compute_bounds";
inline constexpr const char* kRunCold = "sim.run_cold";  // first run of a schedule on an engine
inline constexpr const char* kRunWarm = "sim.run_warm";
inline constexpr const char* kPlanBuild = "serving.plan_build";
inline constexpr const char* kProbe = "serving.probe";
inline constexpr const char* kSearch = "serving.max_sustainable_load";
inline constexpr const char* kSweepRun = "exp.sweep_run";
inline constexpr const char* kPoint = "exp.point";
inline constexpr const char* kAll[] = {
    kBuildPipeline, kMakePackage, kMatch,     kEvaluate, kValidate,
    kBounds,        kRunCold,     kRunWarm,   kPlanBuild, kProbe,
    kSearch,        kSweepRun,    kPoint};
}  // namespace span

struct RunConfig {
  std::uint64_t seed = 1;
  int workers = 1;  // sweep workers (capacity_search: search threads)
};

// splitmix64: the benchmark's only source of randomness. Inputs the
// library receives (deadlines, fault instants, arrival seeds) are drawn
// from it, so one --seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform(double lo, double hi);  // [lo, hi)
  int below(int n);                      // [0, n)

 private:
  std::uint64_t state_;
};

struct UnitResult {
  double cpu_s = 0.0;        // host CPU time of the unit
  std::uint64_t digest = 0;  // digest of the unit's simulated outputs
  std::string error;         // empty when the unit ran and passed its checks
};

// Named per-layer counters a workload reports (see perfbench/README.md).
using Counters = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Distinct units per cycle.
  virtual int units_per_cycle() const = 0;
  // Name of the span that brackets one unit.
  virtual const char* unit_span() const = 0;
  // The sweep fan-out a unit pays: SweepRunner::run calls per unit and
  // points per call (replayed with a no-op evaluation by the probes).
  virtual double sweeps_per_unit() const = 0;
  virtual int points_per_sweep() const = 0;

  // Runs one cycle; out[i] receives distinct unit i. `unit_base` numbers
  // this cycle's units in the trace.
  virtual void run_cycle(long long unit_base, std::vector<UnitResult>& out) = 0;
  // Post-loop correctness checks; appends one message per failed check.
  virtual void verify(std::vector<std::string>& failures) = 0;
  // Simulated tasks of distinct unit i; valid after verify().
  virtual long long unit_tasks(int i) const = 0;
  // Counters gathered by the loop and verify().
  virtual void counters(Counters& c) const = 0;
  // Layer probes, run outside the timed units (traced runs only).
  virtual void probe(Counters& c) = 0;
};

// Per-unit invariants; each returns an empty string when it holds.
// Every tenant: frames == completed + dropped + shed.
std::string check_conservation(const cnpu::SimResult& r);
// Every completed frame of tenant k takes at least bound_s[k] (the static
// critical-path bound), up to float rounding.
std::string check_latency_bound(const cnpu::SimResult& r,
                                const std::vector<double>& bound_s);
// Host seconds on the steady clock since an arbitrary epoch.
double host_now_s();
// CPU seconds the calling thread has run. Time the host gives to other
// processes does not advance it, so it measures the work, not the load.
double thread_cpu_s();
// CPU seconds every thread of the process has run.
double process_cpu_s();

// The factories are the timed set-up of each workload.
std::unique_ptr<Workload> make_dse_design(const RunConfig& cfg);
std::unique_ptr<Workload> make_sim_sweep(const RunConfig& cfg);
std::unique_ptr<Workload> make_capacity_search(const RunConfig& cfg);

}  // namespace perfbench
