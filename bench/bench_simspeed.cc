// Simulation-engine throughput: the points/sec a DSE sweep sustains, and
// the speedup the warm-startable engine buys over per-point fresh
// construction.
//
// The arena-backed SimEngine exists so million-point design-space sweeps
// are routine: the design is built once, compiled programs and routes are
// cached, and every per-run buffer is reset instead of reallocated. This
// bench measures that claim and FAILS (exit 1) when it stops holding.
//
//  1. DSE grid — a frames x interval x NoP-mode option grid at the
//     paper's Fig. 5-8 operating point, evaluated three ways:
//       stateless  - the pre-engine sweep idiom (cf. bench_fig5to8's
//                    acceptance grid): each point is a stateless function
//                    that reconstructs its design from scratch — pipeline,
//                    package, throughput-matched placement — then runs the
//                    one-shot simulator. For a simulation-axis grid every
//                    bit of that construction is redundant re-work.
//       one-shot   - the placement hoisted out of the loop (built once),
//                    but each point still pays simulate_schedule's fresh
//                    program build + per-run allocations.
//       warm       - the hoisted placement through one reused SimEngine.
//     The warm path must clear kGridSpeedupFloor x the one-shot
//     points/sec: what engine reuse buys (the engine acceptance floor,
//     docs/METRICS.md). The warm-vs-stateless ratio is reported alongside;
//     it also counts design construction, mostly Algorithm 1, and so moves
//     whenever the matcher gets faster. The same grid then runs through
//     SweepRunner with one engine per worker slot — the parallel
//     points/sec a real sweep sees.
//  2. Serving probes — a max_sustainable_load-style ladder of injection
//     rates through one warm ServingPlan vs a fresh plan per probe
//     (placement + programs rebuilt every rate: the pre-engine probe
//     loop). Probe runs are event-loop-dominated, so the honest floor is
//     modest (kServingSpeedupFloor); the sharp check is bitwise identity
//     of every warm probe against a fresh plan.
//
// Both sections also read the warm engine's event-loop counters
// (EngineStats): event-heap pushes and no-op dispatch wake-ups per executed
// task. These are counts, not timings, so their gate is deterministic: the
// bench FAILS when pushes per task exceed kPushesPerTaskCeiling.
//
// Artifacts: bench_simspeed.csv / bench_simspeed.json (points, elapsed,
// points/sec, speedups and loop counts per section; the JSON is uploaded
// by the Release and ASan CI jobs). --smoke runs reduced grids for CTest.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "exp/thread_pool.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "util/csv.h"
#include "util/json.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

// Engine acceptance (docs/METRICS.md): a warm engine over a hoisted
// design must sustain at least this many times the one-shot simulator's
// points/sec on the same design. Measured 1.9-2.3x in Release and 1.5-2.2x
// under ASan on these short streams (the event loop both paths run is
// irreducible). The floor was 5x warm vs stateless until Algorithm 1
// priced incrementally and made the stateless point's rebuild ~4x cheaper.
constexpr double kGridSpeedupFloor = 1.3;
// Serving probes simulate 4 tenants x many frames per probe, so the
// event loop (identical in both paths) dominates; plan reuse must still
// be a measurable win, never a regression.
constexpr double kServingSpeedupFloor = 1.1;
// Event-heap pushes per executed task, warm engine, either section. The
// loop pushes one finish per task plus the dispatch wake-ups it cannot
// serve at the current instant: 1.06 (grid) and 1.31 (serving) here,
// against 3.0 and 3.1 when every admission and every wake-up was an event.
constexpr double kPushesPerTaskCeiling = 1.4;

// Every timed run stores its makespan here, so the compiler cannot drop a
// run whose result is otherwise unused.
volatile double g_sink = 0.0;

struct Timing {
  long long points = 0;
  double elapsed_s = 0.0;
  double pps() const { return elapsed_s > 0.0 ? points / elapsed_s : 0.0; }
};

// Runs `pass` (one full sweep over `points_per_pass` points) repeatedly
// until the measurement is long enough to trust, and returns the timing.
template <typename Fn>
Timing measure(int points_per_pass, double min_elapsed_s, Fn&& pass) {
  using clock = std::chrono::steady_clock;
  Timing t;
  const auto t0 = clock::now();
  do {
    pass();
    t.points += points_per_pass;
    t.elapsed_s = std::chrono::duration<double>(clock::now() - t0).count();
  } while (t.elapsed_s < min_elapsed_s);
  return t;
}

// Event-loop work per executed task, from a warm engine's EngineStats.
struct LoopCounts {
  double pushes_per_task = 0.0;
  double busy_per_task = 0.0;  // dispatches that found the chiplet busy
  double idle_per_task = 0.0;  // dispatches that found nothing ready
  double noop_per_task() const { return busy_per_task + idle_per_task; }
};

// Computes the section's loop counts and prints them with the raw ledger.
LoopCounts report_loop_counts(const EngineStats& s) {
  LoopCounts c;
  if (s.tasks_executed > 0) {
    const double tasks = static_cast<double>(s.tasks_executed);
    c.pushes_per_task = static_cast<double>(s.pushes.total()) / tasks;
    c.busy_per_task = static_cast<double>(s.busy_dispatches) / tasks;
    c.idle_per_task = static_cast<double>(s.idle_dispatches) / tasks;
  }
  std::printf("  event loop: %.3f heap pushes/task (finish %lld, dispatch "
              "%lld), %.3f no-op dispatches/task (busy %.3f, idle %.3f), "
              "%lld stale finishes, heap peak %lld\n",
              c.pushes_per_task, s.pushes.finish, s.pushes.dispatch,
              c.noop_per_task(), c.busy_per_task, c.idle_per_task,
              s.stale_finishes, s.event_heap_peak);
  return c;
}

struct SectionResult {
  std::string name;
  Timing stateless;  // per-point fresh construction
  Timing oneshot;    // hoisted design, one-shot simulator (grid only)
  Timing warm;       // hoisted design, reused engine
  Timing parallel;   // SweepRunner, warm engine per slot (grid only)
  double floor = 0.0;
  LoopCounts loop;  // warm engine
  // The floor applies to warm vs one-shot (grid) or warm vs stateless.
  bool floor_vs_oneshot = false;
  double speedup() const {
    return stateless.pps() > 0.0 ? warm.pps() / stateless.pps() : 0.0;
  }
  double speedup_vs_oneshot() const {
    return oneshot.pps() > 0.0 ? warm.pps() / oneshot.pps() : 0.0;
  }
  double enforced_speedup() const {
    return floor_vs_oneshot ? speedup_vs_oneshot() : speedup();
  }
};

// ---------------------------------------------------------------------------
// Section 1: the DSE option grid.

// Short streams over the throughput-matched Fig. 5-8 placement: the shape
// a wide simulation-axis sweep actually has. frames=1 is the end-to-end
// frame-latency measurement the paper's figures report per design point;
// frames=2 adds the pipelined steady-state rate.
std::vector<SimOptions> make_grid(bool smoke) {
  const std::vector<int> frames = {1, 2};
  const std::vector<double> intervals =
      smoke ? std::vector<double>{0.0} : std::vector<double>{0.0, 2e-3};
  const std::vector<double> deadlines =
      smoke ? std::vector<double>{0.0} : std::vector<double>{0.0, 0.25};
  std::vector<SimOptions> grid;
  for (const NopMode mode : {NopMode::kAnalytical, NopMode::kContended}) {
    for (const int f : frames) {
      for (const double interval : intervals) {
        for (const double deadline : deadlines) {
          SimOptions opt;
          opt.frames = f;
          opt.frame_interval_s = interval;
          opt.deadline_s = deadline;
          opt.nop_mode = mode;
          grid.push_back(opt);
        }
      }
    }
  }
  return grid;
}

SectionResult run_grid_section(bool smoke) {
  const std::vector<SimOptions> grid = make_grid(smoke);
  const int n = static_cast<int>(grid.size());
  const double min_s = smoke ? 0.2 : 1.0;

  SectionResult sec;
  sec.name = "dse_grid";
  sec.floor = kGridSpeedupFloor;
  sec.floor_vs_oneshot = true;

  // Stateless: the bench_fig5to8 sweep-point idiom — reconstruct the whole
  // design (pipeline, package, matched placement) inside the point.
  sec.stateless = measure(n, min_s, [&] {
    for (const SimOptions& opt : grid) {
      const PerceptionPipeline pipe = build_autopilot_pipeline();
      const PackageConfig pkg = make_simba_package();
      const MatchResult m = throughput_matching(pipe, pkg);
      const SimResult r = simulate_schedule(m.schedule, opt);
      g_sink = r.makespan_s;
    }
  });

  // Hoisted design, shared by the one-shot and warm paths.
  const PerceptionPipeline pipe = build_autopilot_pipeline();
  const PackageConfig pkg = make_simba_package();
  const MatchResult matched = throughput_matching(pipe, pkg);
  const Schedule& sched = matched.schedule;

  sec.oneshot = measure(n, min_s, [&] {
    for (const SimOptions& opt : grid) {
      const SimResult r = simulate_schedule(sched, opt);
      g_sink = r.makespan_s;
    }
  });

  SimEngine engine;
  SimResult out;
  sec.warm = measure(n, min_s, [&] {
    for (const SimOptions& opt : grid) {
      engine.run_into(sched, opt, out);
      g_sink = out.makespan_s;
    }
  });
  const EngineStats stats = engine.stats();

  // The parallel path a real sweep uses: one engine per worker slot. One
  // sweep of the grid alone would mostly time worker start-up and each
  // slot's first program build; kParallelPasses copies of the grid per
  // sweep amortise both, as the repeated passes above do.
  constexpr int kParallelPasses = 32;
  const SweepRunner runner;
  std::vector<SimEngine> engines(
      static_cast<std::size_t>(runner.worker_slots()));
  std::vector<SimResult> outs(engines.size());
  SweepSpec spec("simspeed_grid");
  std::vector<ParamValue> idx;
  for (int i = 0; i < n * kParallelPasses; ++i) idx.push_back(i);
  spec.axis("opt", std::move(idx));
  sec.parallel = measure(n * kParallelPasses, min_s, [&] {
    const SweepResult sweep = runner.run(spec, [&](const SweepPoint& p) {
      const std::size_t slot =
          static_cast<std::size_t>(ThreadPool::current_worker_index() + 1);
      const SimOptions& opt =
          grid[static_cast<std::size_t>(p.int_at("opt") % n)];
      engines[slot].run_into(sched, opt, outs[slot]);
      SweepRecord rec;
      rec.set("makespan_s", outs[slot].makespan_s);
      return rec;
    });
    bench::require_all_ok(sweep);
  });

  std::printf("DSE grid: %d simulation-option points at the matched Fig. "
              "5-8 operating point\n",
              n);
  std::printf("  stateless point (rebuild design): %9.1f points/sec "
              "(%lld points, %.2f s)\n",
              sec.stateless.pps(), sec.stateless.points,
              sec.stateless.elapsed_s);
  std::printf("  hoisted design, one-shot sim    : %9.1f points/sec "
              "(%lld points, %.2f s)\n",
              sec.oneshot.pps(), sec.oneshot.points, sec.oneshot.elapsed_s);
  std::printf("  hoisted design, warm engine     : %9.1f points/sec "
              "(%lld points, %.2f s)\n",
              sec.warm.pps(), sec.warm.points, sec.warm.elapsed_s);
  std::printf("  speedup: %.1fx vs one-shot (floor %.1fx), %.1fx vs "
              "stateless\n",
              sec.speedup_vs_oneshot(), sec.floor, sec.speedup());
  std::printf("  parallel, warm engine per slot  : %9.1f points/sec "
              "(%lld points, %.2f s, SweepRunner, %d worker slots)\n",
              sec.parallel.pps(), sec.parallel.points, sec.parallel.elapsed_s,
              runner.worker_slots());
  std::printf("  engine ledger: %lld runs, %lld program builds, %lld cache "
              "hits, %lld warm starts\n",
              stats.runs, stats.program_builds, stats.program_cache_hits,
              stats.warm_starts);
  sec.loop = report_loop_counts(stats);
  std::printf("\n");
  return sec;
}

// ---------------------------------------------------------------------------
// Section 2: the serving-probe ladder.

bool tenants_equal(const SimResult& a, const SimResult& b) {
  if (a.tenants.size() != b.tenants.size()) return false;
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    // Completion vectors are NaN-free here (no fault), so == is bitwise.
    if (!(a.tenants[t].frame_completion_s ==
          b.tenants[t].frame_completion_s)) {
      return false;
    }
    if (a.tenants[t].p99_latency_s != b.tenants[t].p99_latency_s) {
      return false;
    }
  }
  return true;
}

SectionResult run_serving_section(bool smoke) {
  const PackageConfig pkg = make_simba_package(4, 4);
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  std::vector<TenantWorkload> fleet(4);
  for (std::size_t t = 0; t < fleet.size(); ++t) {
    fleet[t].name = "tenant" + std::to_string(t);
    fleet[t].pipeline = &pipe;
    fleet[t].frames = smoke ? 8 : 16;
    fleet[t].deadline_s = 1.0;
  }
  ServingOptions opt;
  opt.policy = PlacementPolicy::kShared;

  // A bisection-style probe ladder: rates spanning under- to overload.
  std::vector<double> rates;
  const int n_rates = smoke ? 6 : 12;
  for (int i = 0; i < n_rates; ++i) {
    rates.push_back(20.0 * (i + 1));
  }
  const double min_s = smoke ? 0.2 : 1.0;

  SectionResult sec;
  sec.name = "serving_probes";
  sec.floor = kServingSpeedupFloor;
  sec.stateless = measure(n_rates, min_s, [&] {
    for (const double fps : rates) {
      ServingPlan fresh(pkg, fleet, opt);  // pre-engine behavior: rebuild
      const SimResult r = fresh.run_at_rate(fps);
      g_sink = r.makespan_s;
    }
  });

  ServingPlan plan(pkg, fleet, opt);
  SimResult out;
  sec.warm = measure(n_rates, min_s, [&] {
    for (const double fps : rates) {
      plan.run_at_rate_into(fps, out);
      g_sink = out.makespan_s;
    }
  });

  // Identity: the warm plan's probes must match fresh plans bit for bit.
  int mismatches = 0;
  for (const double fps : rates) {
    ServingPlan fresh(pkg, fleet, opt);
    plan.run_at_rate_into(fps, out);
    if (!tenants_equal(fresh.run_at_rate(fps), out)) ++mismatches;
  }

  std::printf("serving probes: %d injection rates x 4 tenants on the 4x4 "
              "package\n",
              n_rates);
  std::printf("  fresh plan per probe: %9.1f probes/sec (%lld probes, "
              "%.2f s)\n",
              sec.stateless.pps(), sec.stateless.points,
              sec.stateless.elapsed_s);
  std::printf("  one warm plan       : %9.1f probes/sec (%lld probes, "
              "%.2f s) -> %.2fx (floor %.1fx)\n",
              sec.warm.pps(), sec.warm.points, sec.warm.elapsed_s,
              sec.speedup(), sec.floor);
  std::printf("  warm bitwise == fresh at every rate: %s\n",
              mismatches == 0 ? "yes" : "NO - BUG");
  sec.loop = report_loop_counts(plan.engine_stats());
  std::printf("\n");
  if (mismatches != 0) {
    std::fprintf(stderr, "bench_simspeed: warm ServingPlan diverged from "
                         "fresh plans at %d rates\n",
                 mismatches);
    std::exit(1);
  }
  return sec;
}

// ---------------------------------------------------------------------------
// Artifacts + floor enforcement.

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_artifacts(const std::vector<SectionResult>& sections, bool pass) {
  CsvWriter csv;
  csv.set_header({"section", "stateless_points_per_sec",
                  "oneshot_points_per_sec", "warm_points_per_sec",
                  "speedup_vs_stateless", "speedup_vs_oneshot",
                  "parallel_points_per_sec", "speedup_floor",
                  "heap_pushes_per_task", "noop_dispatches_per_task"});
  for (const SectionResult& s : sections) {
    csv.add_row({s.name, fmt(s.stateless.pps()), fmt(s.oneshot.pps()),
                 fmt(s.warm.pps()), fmt(s.speedup()),
                 fmt(s.speedup_vs_oneshot()), fmt(s.parallel.pps()),
                 fmt(s.floor), fmt(s.loop.pushes_per_task),
                 fmt(s.loop.noop_per_task())});
  }
  const bool csv_ok = csv.write_file(bench::artifact_path("bench_simspeed.csv"));

  JsonWriter w;
  w.begin_object();
  w.key("bench").value("simspeed");
  w.key("pass").value(pass);
  w.key("sections").begin_array();
  for (const SectionResult& s : sections) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("stateless_points_per_sec").value(s.stateless.pps());
    w.key("oneshot_points_per_sec").value(s.oneshot.pps());
    w.key("warm_points_per_sec").value(s.warm.pps());
    w.key("speedup_vs_stateless").value(s.speedup());
    w.key("speedup_vs_oneshot").value(s.speedup_vs_oneshot());
    w.key("parallel_points_per_sec").value(s.parallel.pps());
    w.key("speedup_floor").value(s.floor);
    w.key("heap_pushes_per_task").value(s.loop.pushes_per_task);
    w.key("heap_pushes_per_task_ceiling").value(kPushesPerTaskCeiling);
    w.key("noop_dispatches_per_task").value(s.loop.noop_per_task());
    w.key("busy_dispatches_per_task").value(s.loop.busy_per_task);
    w.key("idle_dispatches_per_task").value(s.loop.idle_per_task);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream json(bench::artifact_path("bench_simspeed.json"));
  bool json_ok = static_cast<bool>(json);
  if (json_ok) {
    json << w.str() << '\n';
    json_ok = static_cast<bool>(json);
  }

  std::printf("artifacts: bench_simspeed.csv (%s), bench_simspeed.json "
              "(%s)\n\n",
              csv_ok ? "ok" : "WRITE FAILED", json_ok ? "ok" : "WRITE FAILED");
  if (!csv_ok || !json_ok) std::exit(1);
}

void print_tables(bool smoke) {
  bench::print_header(
      "Simulation-engine throughput - DSE points/sec and engine-reuse "
      "speedup",
      "engine acceptance: warm sweeps >= 1.3x the one-shot simulator "
      "(docs/METRICS.md)");
  std::vector<SectionResult> sections;
  sections.push_back(run_grid_section(smoke));
  sections.push_back(run_serving_section(smoke));

  bool pass = true;
  for (const SectionResult& s : sections) {
    const bool ok = s.enforced_speedup() >= s.floor;
    std::printf("%s: %.2fx speedup over %s (floor %.1fx) - %s\n",
                s.name.c_str(), s.enforced_speedup(),
                s.floor_vs_oneshot ? "the one-shot simulator"
                                   : "per-point fresh construction",
                s.floor, ok ? "pass" : "FAIL");
    const bool lean = s.loop.pushes_per_task <= kPushesPerTaskCeiling;
    std::printf("%s: %.3f event-heap pushes per task (ceiling %.2f) - %s\n",
                s.name.c_str(), s.loop.pushes_per_task, kPushesPerTaskCeiling,
                lean ? "pass" : "FAIL");
    if (!ok || !lean) pass = false;
  }
  std::printf("\n");
  write_artifacts(sections, pass);
  if (!pass) {
    std::fprintf(stderr, "bench_simspeed: engine-reuse speedup fell below "
                         "its floor, or event-heap pushes per task rose "
                         "above their ceiling\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::print_tables(cnpu::bench::read_args(argc, argv, /*smoke_run=*/true));
}
