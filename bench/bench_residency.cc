// Capacity-aware weight residency: what finite per-chiplet memory costs
// when a fault forces weights to move.
//
// The placement layers treat chiplet SRAM as infinite by default; with the
// memory model active (arch/chiplet.h MemorySpec, core/residency.h) every
// shard's weights occupy real capacity and a fault-driven remap must
// re-replicate the moved tensors over the NoP ingress before the survivor
// can serve them (SimResult::reload_bytes / reload_time_s). Three
// experiments:
//
//  1. Cold-start spike demo — the fault-probe stream loses its busiest
//     non-I/O chiplet with no recovery; the same fault is priced under
//     infinite and finite reload bandwidth. The bench FAILS (exit 1) if
//     the finite-bandwidth peak latency is not strictly above the
//     infinite-bandwidth baseline, or if the bytes the simulator charged
//     do not match RemapStats::weights_moved_bytes — the remap planner and
//     the event simulator disagreeing on what moved means the reload
//     accounting is broken.
//  2. Placement-capacity acceptance — two tenants whose interleaved shared
//     placement stacks chains past a capacity that the partitioned
//     placement (same total footprint) fits. FAILS when the shared
//     placement is not rejected with a diagnostic or partitioned is.
//  3. Capacity x tenant-count sweep (CSV/JSON artifacts) — which fleet
//     sizes fit at which per-chiplet weight capacities, and what the
//     fault-reload tail costs where they do.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/remap.h"
#include "core/report.h"
#include "core/residency.h"
#include "exp/sweep_runner.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

constexpr double kFiniteReloadBw = 2.0e9;  // bytes/s, deliberately lean

// Fault-probe stream on a 2x4 mesh, one chain per chiplet; chiplet 5 dies
// for good. The memory spec is the only variable.
SimResult run_fault_stream(const PerceptionPipeline& pipe,
                           const PackageConfig& base, const MemorySpec& mem,
                           int frames, bool with_fault) {
  PackageConfig pkg = base;
  pkg.set_memory(mem);
  const Schedule sched = build_chainwise_schedule(pipe, pkg);
  SimOptions burst;
  burst.frames = 8;
  const double steady = simulate_schedule(sched, burst).steady_interval_s;
  SimOptions opt;
  opt.frames = frames;
  opt.frame_interval_s = steady * 1.3;
  if (with_fault) {
    opt.fault.chiplet_id = 5;  // mid-mesh, away from the I/O router
    opt.fault.fail_time_s = (frames / 3) * opt.frame_interval_s;
    opt.fault.recover_time_s = -1.0;  // never: pure cold-start migration
    opt.fault.reschedule_penalty_s = opt.frame_interval_s;
  }
  return simulate_schedule(sched, opt);
}

void print_reload_demo(bool smoke) {
  const int frames = smoke ? 48 : 96;
  const PerceptionPipeline pipe = build_fault_probe_pipeline(7);
  const PackageConfig pkg = make_simba_package(2, 4);

  MemorySpec infinite_bw;
  infinite_bw.weight_capacity_bytes = 1e12;  // bounded -> model active
  MemorySpec finite_bw = infinite_bw;
  finite_bw.reload_bandwidth_bytes_per_s = kFiniteReloadBw;

  const SimResult healthy =
      run_fault_stream(pipe, pkg, finite_bw, frames, false);
  const SimResult fast = run_fault_stream(pipe, pkg, infinite_bw, frames, true);
  const SimResult slow = run_fault_stream(pipe, pkg, finite_bw, frames, true);

  std::printf(
      "fault-probe stream on 2x4, %d frames; chiplet 5 dies at frame %d and "
      "never recovers; reload bandwidth %s vs infinite\n",
      frames, frames / 3, format_si(kFiniteReloadBw, 1).c_str());
  Table t("cold-start weight migration after a fatal chiplet loss");
  t.set_header({"Scenario", "p50(ms)", "p99(ms)", "Peak(ms)", "Reload(KiB)",
                "Reload(us)"});
  const auto row = [&](const char* name, const SimResult& r) {
    t.add_row({name, format_fixed(r.p50_latency_s * 1e3, 2),
               format_fixed(r.p99_latency_s * 1e3, 2),
               format_fixed(r.peak_latency_s * 1e3, 2),
               format_fixed(r.reload_bytes / 1024.0, 1),
               format_fixed(r.reload_time_s * 1e6, 1)});
  };
  row("healthy", healthy);
  row("fault, reload bw=inf", fast);
  row("fault, reload bw finite", slow);
  std::printf("%s", t.to_string().c_str());

  // What the remap planner says moved; the simulator must charge exactly
  // this (no recovery -> fault reloads are the only transfers).
  RemapStats stats;
  {
    PackageConfig active = pkg;
    active.set_memory(finite_bw);
    const Schedule sched = build_chainwise_schedule(pipe, active);
    remap_schedule(sched, active.without_chiplet(5), 5, &stats);
  }
  std::printf(
      "remap moved %d shard(s), %.0f B of weights; sim charged %.0f B over "
      "%.1f us\n",
      stats.moved_shards, stats.weights_moved_bytes, slow.reload_bytes,
      slow.reload_time_s * 1e6);
  const double spike = slow.peak_latency_s / fast.peak_latency_s;
  std::printf("cold-start spike: %.3fx peak over the infinite-bandwidth "
              "baseline\n\n",
              spike);

  if (!(slow.peak_latency_s > fast.peak_latency_s)) {
    std::fprintf(stderr,
                 "bench_residency: finite reload bandwidth produced NO "
                 "cold-start spike (peak %.6f ms vs %.6f ms baseline)\n",
                 slow.peak_latency_s * 1e3, fast.peak_latency_s * 1e3);
    std::exit(1);
  }
  const double drift =
      std::abs(slow.reload_bytes - stats.weights_moved_bytes);
  if (drift > stats.weights_moved_bytes * 1e-9) {
    std::fprintf(stderr,
                 "bench_residency: sim charged %.0f B but the remap moved "
                 "%.0f B - reload accounting diverged\n",
                 slow.reload_bytes, stats.weights_moved_bytes);
    std::exit(1);
  }
}

void print_capacity_acceptance() {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  const PackageConfig pkg = make_simba_package(4, 4);
  std::vector<TenantWorkload> fleet(2);
  fleet[0].name = "t0";
  fleet[0].pipeline = &pipe;
  fleet[1].name = "t1";
  fleet[1].pipeline = &pipe;

  const auto max_weight = [&](PlacementPolicy policy) {
    const TenantPlacement placed = place_tenants(fleet, pkg, policy);
    std::vector<const Schedule*> scheds;
    for (const Schedule& s : placed.schedules) scheds.push_back(&s);
    double mx = 0.0;
    for (const ChipletResidency& c :
         compute_residency(scheds, pkg).per_chiplet) {
      mx = std::max(mx, c.weight_bytes);
    }
    return mx;
  };
  const double shared_max = max_weight(PlacementPolicy::kShared);
  const double part_max = max_weight(PlacementPolicy::kPartitioned);
  const double cap = (shared_max + part_max) / 2.0;
  std::printf(
      "two identical tenants on 4x4: shared stacking peaks at %.0f B per "
      "chiplet, partitioned at %.0f B; capacity set to %.0f B\n",
      shared_max, part_max, cap);

  PackageConfig capped = pkg;
  MemorySpec mem;
  mem.weight_capacity_bytes = cap;
  mem.reload_bandwidth_bytes_per_s = kFiniteReloadBw;
  capped.set_memory(mem);

  bool partitioned_fits = true;
  try {
    place_tenants(fleet, capped, PlacementPolicy::kPartitioned);
  } catch (const std::invalid_argument& e) {
    partitioned_fits = false;
    std::fprintf(stderr, "bench_residency: partitioned REJECTED: %s\n",
                 e.what());
  }
  bool shared_rejected = false;
  std::string diagnostic;
  try {
    place_tenants(fleet, capped, PlacementPolicy::kShared);
  } catch (const std::invalid_argument& e) {
    shared_rejected = true;
    diagnostic = e.what();
  }
  if (shared_rejected) {
    std::printf("shared placement rejected as expected:\n  %s\n",
                diagnostic.c_str());
  }
  std::printf("partitioned placement at the same capacity: %s\n\n",
              partitioned_fits ? "fits" : "REJECTED");

  if (!shared_rejected || !partitioned_fits) {
    std::fprintf(stderr,
                 "bench_residency: capacity contract broken (shared "
                 "rejected=%d, partitioned fits=%d)\n",
                 shared_rejected ? 1 : 0, partitioned_fits ? 1 : 0);
    std::exit(1);
  }
}

// One sweep point: `tenants` identical fault-probe tenants under the shared
// policy with per-chiplet weight capacity cap_x * (heaviest single chain).
SweepRecord sweep_point(const SweepPoint& p, const PerceptionPipeline& pipe,
                        double unit_bytes, int frames) {
  const double cap_x = p.double_at("cap_x");
  const int tenants = static_cast<int>(p.double_at("tenants"));
  PackageConfig pkg = make_simba_package(4, 4);
  MemorySpec mem;
  mem.weight_capacity_bytes = cap_x * unit_bytes;
  mem.reload_bandwidth_bytes_per_s = kFiniteReloadBw;
  pkg.set_memory(mem);

  std::vector<TenantWorkload> fleet(static_cast<std::size_t>(tenants));
  SimOptions burst;
  burst.frames = 8;
  const double healthy =
      simulate_schedule(build_chainwise_schedule(pipe, pkg), burst)
          .steady_interval_s;
  for (int t = 0; t < tenants; ++t) {
    TenantWorkload& w = fleet[static_cast<std::size_t>(t)];
    w.name = "t" + std::to_string(t);
    w.pipeline = &pipe;
    w.frames = frames;
    w.frame_interval_s = healthy * (1.0 + 0.7 * tenants);
  }
  ServingOptions opt;
  opt.policy = PlacementPolicy::kShared;
  opt.fault.chiplet_id = 2;  // hosts chains of every tenant, not the I/O hop
  opt.fault.fail_time_s = (frames / 3) * fleet[0].frame_interval_s;
  opt.fault.recover_time_s = -1.0;
  opt.fault.reschedule_penalty_s = fleet[0].frame_interval_s;

  SweepRecord rec;
  try {
    const SimResult r = serve_tenants(pkg, fleet, opt);
    rec.set("feasible", 1.0)
        .set("p99_us", r.p99_latency_s * 1e6)
        .set("peak_us", r.peak_latency_s * 1e6)
        .set("reload_kib", r.reload_bytes / 1024.0)
        .set("reload_us", r.reload_time_s * 1e6);
  } catch (const std::invalid_argument&) {
    // Over capacity: rejection IS the data point.
    rec.set("feasible", 0.0)
        .set("p99_us", 0.0)
        .set("peak_us", 0.0)
        .set("reload_kib", 0.0)
        .set("reload_us", 0.0);
  }
  return rec;
}

void print_sweep(bool smoke) {
  const PerceptionPipeline pipe = build_fault_probe_pipeline(3);
  // Capacity unit: the heaviest single chain (weights of its layers) — the
  // smallest capacity at which any chiplet can host any one chain.
  double unit_bytes = 0.0;
  for (const Stage& st : pipe.stages) {
    for (const auto& sm : st.models) {
      double chain = 0.0;
      for (const LayerDesc& l : sm.model.layers) {
        chain += layer_weight_bytes(l);
      }
      unit_bytes = std::max(unit_bytes, chain);
    }
  }

  SweepSpec spec = smoke ? SweepSpec("residency_smoke")
                               .axis("cap_x", {1.1, 8.0})
                               .axis("tenants", {1.0, 3.0})
                         : SweepSpec("residency_grid")
                               .axis("cap_x", {1.1, 2.2, 4.4, 8.0})
                               .axis("tenants", {1.0, 2.0, 3.0, 4.0});
  const int frames = smoke ? 24 : 48;
  const SweepResult sweep = SweepRunner().run(spec, [&](const SweepPoint& p) {
    return sweep_point(p, pipe, unit_bytes, frames);
  });
  bench::require_all_ok(sweep);

  Table t("per-chiplet weight capacity x tenant count (shared policy, fatal "
          "fault)");
  t.set_header({"Cap(xchain)", "Tenants", "Fits", "p99(us)", "Peak(us)",
                "Reload(KiB)", "Reload(us)"});
  int feasible = 0;
  int infeasible = 0;
  for (const SweepPointResult& p : sweep.points) {
    const bool fits = p.record.get("feasible") > 0.5;
    (fits ? feasible : infeasible) += 1;
    t.add_row({format_fixed(p.point.double_at("cap_x"), 1),
               format_fixed(p.point.double_at("tenants"), 0),
               fits ? "yes" : "NO",
               fits ? format_fixed(p.record.get("p99_us"), 0) : "-",
               fits ? format_fixed(p.record.get("peak_us"), 0) : "-",
               fits ? format_fixed(p.record.get("reload_kib"), 1) : "-",
               fits ? format_fixed(p.record.get("reload_us"), 1) : "-"});
  }
  std::printf("%s", t.to_string().c_str());
  bench::write_sweep_artifacts(sweep, "bench_residency_sweep");
  // The frontier must actually appear: generous capacity fits a lone
  // tenant, and some capacity x fleet combination is over budget.
  if (feasible == 0 || infeasible == 0) {
    std::fprintf(stderr,
                 "bench_residency: capacity frontier degenerate (%d "
                 "feasible, %d infeasible) - capacity checks are inert\n",
                 feasible, infeasible);
    std::exit(1);
  }
}

void print_tables(bool smoke) {
  bench::print_header(
      "Capacity-aware weight residency - cold-start migration cost and "
      "placement admission under finite per-chiplet memory",
      "extends the Sec. I chiplet-modularity argument with a per-chiplet "
      "memory model (src/core/residency.h, src/sim/event_sim.h reload "
      "charging)");
  print_reload_demo(smoke);
  print_capacity_acceptance();
  print_sweep(smoke);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::print_tables(cnpu::bench::read_args(argc, argv, /*smoke_run=*/true));
}
