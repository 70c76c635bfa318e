// Static-bound soundness gate + bound-guided sweep pruning.
//
// Part 1 (the CI gate): for every point of the Fig. 5-8 acceptance grid
// (tolerance x cameras x queue, 90 throughput-matched mappings), the
// analysis::compute_bounds critical-path bound must sit at or below the
// SIMULATED latency of every completed frame, under both the analytical
// and the contended NoP model. Any violation exits 1 — the bound's
// soundness claim (docs/METRICS.md) is enforced, not assumed.
//
// Part 2 (the payoff): a deadline-constrained demo sweep evaluated twice —
// full simulation at every point vs. a SweepPruneFn that statically
// discards points whose latency bound already exceeds the deadline (P001:
// every frame must miss). Every pruned point is then spot-checked against
// the full simulation: a single completed frame meeting the deadline at a
// pruned point is a false prune and exits 1. Both sweeps run serially and
// are timed as the median of alternating repetitions over >= 400 ms; the
// pruned sweep must be >= 1.25x faster in points/sec (enforced in the full
// run; --smoke times one pair and prints it only, CTest boxes are too
// noisy for wall-clock gates).
//
// Artifacts: bench_bounds.csv/json (soundness grid, per-point bound vs.
// sim margin) and bench_bounds_prune.csv/json (the pruned demo sweep,
// "pruned: ..." verdicts included) via CNPU_ARTIFACT_DIR.
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "bench_common.h"
#include "core/baselines.h"
#include "core/throughput_matching.h"
#include "exp/sweep_runner.h"
#include "sim/event_sim.h"
#include "util/stats.h"
#include "workloads/autopilot.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

bool g_smoke = false;

// Relative slack for the bound <= sim comparison: the bound's critical
// path accumulates the SAME double-precision terms the simulator does, so
// only rounding-order noise separates a tight bound from the simulated
// frame.
constexpr double kRelEps = 1e-9;

double min_finite_latency(const std::vector<double>& latencies) {
  double best = std::numeric_limits<double>::infinity();
  for (double v : latencies) {
    if (!std::isnan(v) && v < best) best = v;
  }
  return best;
}

// --- Part 1: soundness over the Fig. 5-8 acceptance grid ---

SweepSpec soundness_spec() {
  if (g_smoke) {
    return SweepSpec("bounds_soundness_smoke")
        .axis("tolerance", {0.10})
        .axis("cameras", {4, 8})
        .axis("queue", {6, 12});
  }
  return SweepSpec("bounds_soundness")
      .axis("tolerance", {0.02, 0.05, 0.10, 0.15, 0.20, 0.30})
      .axis("cameras", {4, 6, 8, 10, 12})
      .axis("queue", {6, 12, 18});
}

SweepRecord soundness_point(const SweepPoint& p) {
  AutopilotConfig cfg;
  cfg.num_cameras = static_cast<int>(p.int_at("cameras"));
  cfg.fusion.num_cameras = cfg.num_cameras;
  cfg.fusion.queue_frames = static_cast<int>(p.int_at("queue"));
  MatchOptions mopt;
  mopt.tolerance = p.double_at("tolerance");
  const PerceptionPipeline pipe = build_autopilot_pipeline(cfg);
  const PackageConfig pkg = make_simba_package();
  const MatchResult r = throughput_matching(pipe, pkg, mopt);

  SimOptions analytical;
  analytical.frames = 4;
  SimOptions contended = analytical;
  contended.nop_mode = NopMode::kContended;

  // One bound per mode (the contended report additionally prices links,
  // but the latency bound itself is mode-independent by construction).
  const analysis::BoundsReport ba =
      analysis::compute_bounds(r.schedule, analytical);
  const analysis::BoundsReport bc =
      analysis::compute_bounds(r.schedule, contended);
  const SimResult sa = simulate_schedule(r.schedule, analytical);
  const SimResult sc = simulate_schedule(r.schedule, contended);
  const double min_a = min_finite_latency(sa.frame_latency_s);
  const double min_c = min_finite_latency(sc.frame_latency_s);
  const double bound_a = ba.streams.front().latency_bound_s;
  const double bound_c = bc.streams.front().latency_bound_s;
  const bool sound = bound_a <= min_a * (1.0 + kRelEps) &&
                     bound_c <= min_c * (1.0 + kRelEps);

  SweepRecord rec;
  rec.set("bound_ms", bound_a * 1e3)
      .set("sim_min_analytical_ms", min_a * 1e3)
      .set("sim_min_contended_ms", min_c * 1e3)
      .set("margin_analytical_ms", (min_a - bound_a) * 1e3)
      .set("margin_contended_ms", (min_c - bound_c) * 1e3)
      .set("sound", sound ? 1.0 : 0.0);
  return rec;
}

void run_soundness_gate() {
  const SweepSpec spec = soundness_spec();
  const SweepResult sweep = SweepRunner().run(spec, soundness_point);
  bench::require_all_ok(sweep);
  int violations = 0;
  for (const SweepPointResult& p : sweep.points) {
    if (p.record.get("sound") != 1.0) {
      ++violations;
      std::fprintf(stderr,
                   "BOUND VIOLATION at %s: bound %.9f ms > simulated "
                   "analytical %.9f ms / contended %.9f ms\n",
                   p.point.label().c_str(), p.record.get("bound_ms"),
                   p.record.get("sim_min_analytical_ms"),
                   p.record.get("sim_min_contended_ms"));
    }
  }
  double worst_margin_ms = std::numeric_limits<double>::infinity();
  for (const SweepPointResult& p : sweep.points) {
    worst_margin_ms =
        std::min(worst_margin_ms, p.record.get("margin_analytical_ms"));
  }
  std::printf("soundness gate: %d-point grid, bound <= simulated latency in "
              "both NoP modes at every point: %s (tightest analytical "
              "margin %.3g ms)\n",
              spec.num_points(), violations == 0 ? "yes" : "NO - BUG",
              worst_margin_ms);
  bench::write_sweep_artifacts(sweep, "bench_bounds");
  if (violations != 0) {
    std::fprintf(stderr,
                 "bench_bounds: the static lower bound exceeded the "
                 "simulated latency at %d grid point(s)\n",
                 violations);
    std::exit(1);
  }
}

// --- Part 2: bound-guided pruning of a deadline-constrained sweep ---

// The demo sweep: fan-in perception at cameras x deadline. The evaluation
// is a 30-frame contended simulation; the prune predicate is one
// compute_bounds call (no simulated second). Deadlines straddle the
// pipelines' critical-path bounds (~1.7-2.2 ms on the 6x6 SiMBA package),
// so roughly half the grid is statically dead.
SweepSpec prune_spec() {
  return SweepSpec("bounds_prune_demo")
      .axis("deadline_ms", {1.0, 1.5, 2.0, 2.5, 6.0})
      .axis("cameras", {2, 4, 8});
}

SimOptions prune_point_options(const SweepPoint& p) {
  SimOptions opt;
  opt.frames = g_smoke ? 10 : 30;
  opt.frame_interval_s = 1.0 / 120.0;
  opt.deadline_s = p.double_at("deadline_ms") * 1e-3;
  opt.nop_mode = NopMode::kContended;
  return opt;
}

// One demo point's design. The schedule references the pipeline and the
// package, so a design is built in place and never moved.
struct PruneDesign {
  explicit PruneDesign(const SweepPoint& p)
      : pipe(build_fanin_pipeline(static_cast<int>(p.int_at("cameras")))),
        pkg(make_simba_package()),
        sched(build_fanin_schedule(pipe, pkg)) {}
  const PerceptionPipeline pipe;
  const PackageConfig pkg;
  const Schedule sched;
};

// One slot per point index. In the pruned sweep the predicate builds the
// point's design and the evaluation reuses it and then releases it, so a
// surviving point is built once; the full sweep has no predicate, and its
// evaluation builds the design itself. A point's predicate and evaluation
// run on one worker, and each index is its own slot. Sized by
// run_prune_demo.
std::vector<std::unique_ptr<PruneDesign>> g_prune_designs;

SweepRecord prune_point_eval(const SweepPoint& p) {
  std::unique_ptr<PruneDesign> design =
      std::move(g_prune_designs[static_cast<std::size_t>(p.index)]);
  if (design == nullptr) design = std::make_unique<PruneDesign>(p);
  const SimResult sim =
      simulate_schedule(design->sched, prune_point_options(p));
  SweepRecord rec;
  rec.set("p99_ms", sim.p99_latency_s * 1e3)
      .set("deadline_misses", static_cast<double>(sim.deadline_miss_frames))
      .set("frames_completed", static_cast<double>(sim.frames_completed));
  return rec;
}

std::string prune_predicate(const SweepPoint& p) {
  std::unique_ptr<PruneDesign>& design =
      g_prune_designs[static_cast<std::size_t>(p.index)];
  design = std::make_unique<PruneDesign>(p);
  const analysis::BoundsReport bounds =
      analysis::compute_bounds(design->sched, prune_point_options(p));
  const analysis::StreamBound& s = bounds.streams.front();
  if (s.deadline_infeasible) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "bound %.4g ms > deadline %.4g ms (P001)",
                  s.latency_bound_s * 1e3, s.deadline_s * 1e3);
    design.reset();  // pruned: the evaluation never runs
    return buf;
  }
  return "";
}

// Pruning must buy at least this much points/sec in the full run.
constexpr double kMinPruneSpeedup = 1.25;
// Each sweep takes 1-3 ms, so one timing per side swings several-fold with
// machine noise; the full run repeats the (full, pruned) pair until both
// sides together have run this long and compares medians.
constexpr double kMinTimingMs = 400.0;

void run_prune_demo() {
  using clock = std::chrono::steady_clock;
  const SweepSpec spec = prune_spec();
  g_prune_designs.resize(static_cast<std::size_t>(spec.num_points()));
  // Serial: the ratio compares per-point work, not thread-pool start-up.
  const SweepRunner runner(SweepOptions{1});

  SweepResult full;
  SweepResult pruned;
  std::vector<double> full_samples;
  std::vector<double> pruned_samples;
  double timed_ms = 0.0;
  do {
    const auto t0 = clock::now();
    full = runner.run(spec, prune_point_eval);
    const auto t1 = clock::now();
    pruned = runner.run(spec, prune_point_eval, prune_predicate);
    const auto t2 = clock::now();
    full_samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    pruned_samples.push_back(
        std::chrono::duration<double, std::milli>(t2 - t1).count());
    timed_ms += full_samples.back() + pruned_samples.back();
  } while (!g_smoke && timed_ms < kMinTimingMs);
  bench::require_all_ok(full);
  bench::require_all_ok(pruned);

  const double full_ms = percentile(full_samples, 50.0);
  const double pruned_ms = percentile(pruned_samples, 50.0);
  const double speedup = pruned_ms > 0.0 ? full_ms / pruned_ms : 0.0;

  // Zero-false-prune audit: a pruned point claims EVERY frame must miss
  // its deadline; the full simulation of the same point must agree. A
  // single completed on-deadline frame falsifies the bound.
  int false_prunes = 0;
  for (std::size_t i = 0; i < pruned.points.size(); ++i) {
    const SweepPointResult& p = pruned.points[i];
    if (!p.pruned) continue;
    const SweepPointResult& f = full.points[i];
    const int completed = static_cast<int>(f.record.get("frames_completed"));
    const int misses = static_cast<int>(f.record.get("deadline_misses"));
    if (misses != completed) {
      ++false_prunes;
      std::fprintf(stderr,
                   "FALSE PRUNE at %s: %d of %d completed frames met the "
                   "deadline (%s)\n",
                   p.point.label().c_str(), completed - misses, completed,
                   p.error.c_str());
    }
  }

  std::printf("bound-guided pruning (%d-point deadline x cameras grid, "
              "contended sim per surviving point):\n",
              spec.num_points());
  std::printf("  full sweep   : %8.2f ms median of %zu (%d points "
              "evaluated)\n",
              full_ms, full_samples.size(), spec.num_points());
  std::printf("  pruned sweep : %8.2f ms median of %zu (%d pruned "
              "statically, %d evaluated)\n",
              pruned_ms, pruned_samples.size(), pruned.num_pruned(),
              spec.num_points() - pruned.num_pruned());
  std::printf("  speedup: %.2fx points/sec, false prunes: %d (every pruned "
              "point re-checked against full simulation)\n\n",
              speedup, false_prunes);
  bench::write_sweep_artifacts(pruned, "bench_bounds_prune");

  if (false_prunes != 0) {
    std::fprintf(stderr, "bench_bounds: %d false prune(s) — the static "
                         "verdict contradicted the simulator\n",
                 false_prunes);
    std::exit(1);
  }
  if (pruned.num_pruned() == 0) {
    std::fprintf(stderr, "bench_bounds: the demo grid pruned nothing — the "
                         "deadline axis no longer straddles the bounds\n");
    std::exit(1);
  }
  // Wall-clock gate only in the full run; --smoke runs in noisy CTest
  // boxes where a timing assertion would flake.
  if (!g_smoke && speedup < kMinPruneSpeedup) {
    std::fprintf(stderr, "bench_bounds: pruning speedup %.2fx < %.2fx\n",
                 speedup, kMinPruneSpeedup);
    std::exit(1);
  }
}

void print_tables() {
  bench::print_header(
      "Static performance bounds - soundness gate and sweep pruning",
      "DATE'25 chiplet-NPU perception paper (analysis layer; no figure)");
  run_soundness_gate();
  run_prune_demo();
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::g_smoke = cnpu::bench::read_args(argc, argv, /*smoke_run=*/true);
  cnpu::print_tables();
}
