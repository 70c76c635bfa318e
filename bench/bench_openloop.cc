// Open-loop serving: offered load vs sustained goodput under arrival
// processes, continuous-batching dispatch, and admission control — beyond
// the paper's closed-loop (fixed frame interval) evaluation.
//
// A deployed perception stack does not admit frames on the simulator's
// schedule: sensors and upstream stages push them, and an overloaded
// package must shed work or watch its queue (and every latency) diverge.
// bench_openloop drives src/sim/arrivals.h + the admission-control path of
// src/sim/event_sim.h through three experiments:
//
//  1. Offered-load ladder — partitioned 4-tenant fleet under Poisson
//     arrivals at 0.5x..2.0x of each tenant's isolated capacity, with and
//     without a bounded queue (drop-oldest). Emits the
//     bench_openloop_sweep.{csv,json} artifacts with per-point goodput,
//     shed counts, deadline misses, and queue-delay attribution.
//  2. Shed-policy comparison at 1.5x overload — reject-new, drop-oldest,
//     drop-newest, and deadline-expiry eviction against the unbounded
//     no-shed baseline. The bench FAILS (exit 1) unless load shedding
//     keeps the deadline-miss count strictly below the no-shed baseline:
//     turning overload into bounded loss instead of unbounded lateness is
//     the phenomenon this subsystem exists to model.
//  3. Closed-loop isolation guard — one warm SimEngine runs closed-loop,
//     then open-loop with shedding, then closed-loop again; the bench
//     FAILS (exit 1) unless both closed-loop runs are bitwise identical
//     (open-loop state must not leak into the legacy path).
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/baselines.h"
#include "core/partition.h"
#include "sim/arrivals.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/zoo.h"

namespace cnpu {
namespace {

constexpr int kTenants = 4;
constexpr int kCamerasPerTenant = 3;

// Capacity anchor: the steady interval of ONE tenant alone on its
// quadrant pool. Offered load is expressed as a multiple of 1/anchor, so
// "1.0x" is each partitioned tenant's saturation rate by construction.
double quadrant_steady_s(const PerceptionPipeline& pipe,
                         const PackageConfig& pkg) {
  const auto pools = partition_tenant_pools(pkg, kTenants);
  const Schedule sched = build_pool_schedule(pipe, pkg, pools.front(), 0);
  SimOptions burst;
  burst.frames = 8;
  return simulate_schedule(sched, burst).steady_interval_s;
}

struct Scenario {
  PackageConfig pkg = make_simba_package(4, 4);
  PerceptionPipeline pipe = build_fault_probe_pipeline(kCamerasPerTenant);
  double healthy = quadrant_steady_s(pipe, pkg);
};

std::vector<TenantWorkload> make_open_fleet(const PerceptionPipeline& pipe,
                                            int frames, double rate_fps,
                                            double deadline_s,
                                            const AdmissionControl& ac) {
  std::vector<TenantWorkload> fleet;
  for (int t = 0; t < kTenants; ++t) {
    TenantWorkload w;
    w.name = "cam" + std::to_string(t);
    w.pipeline = &pipe;
    w.frames = frames;
    w.deadline_s = deadline_s;
    w.arrivals.kind = ArrivalKind::kPoisson;
    w.arrivals.rate_fps = rate_fps;
    w.arrivals.seed = 1000u + static_cast<std::uint64_t>(t);
    w.admission = ac;
    fleet.push_back(w);
  }
  return fleet;
}

struct FleetStats {
  int completed = 0;
  int shed = 0;
  int misses = 0;
  double worst_p99_s = 0.0;
  double worst_mean_qd_s = 0.0;
  double worst_peak_qd_s = 0.0;
};

FleetStats fleet_stats(const SimResult& r) {
  FleetStats s;
  for (const TenantResult& tr : r.tenants) {
    s.completed += tr.frames_completed;
    s.shed += tr.shed_frames;
    s.misses += tr.deadline_miss_frames;
    if (!std::isnan(tr.p99_latency_s)) {
      s.worst_p99_s = std::max(s.worst_p99_s, tr.p99_latency_s);
    }
    if (!std::isnan(tr.mean_queue_delay_s)) {
      s.worst_mean_qd_s = std::max(s.worst_mean_qd_s, tr.mean_queue_delay_s);
      s.worst_peak_qd_s = std::max(s.worst_peak_qd_s, tr.peak_queue_delay_s);
    }
  }
  return s;
}

// Section 1: offered-load ladder, shedding on/off, CSV/JSON artifacts.
void print_load_ladder(const Scenario& s, bool smoke) {
  const int frames = smoke ? 16 : 48;
  const double deadline = s.healthy * 4.0;
  std::vector<ParamValue> loads =
      smoke ? std::vector<ParamValue>{0.5, 1.0, 1.5}
            : std::vector<ParamValue>{0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
  SweepSpec spec = SweepSpec(smoke ? "openloop_smoke" : "openloop_grid")
                       .axis("load", std::move(loads))
                       .axis("shed", {"none", "drop_oldest"});
  const SweepResult sweep = SweepRunner().run(spec, [&](const SweepPoint& p) {
    const double mult = p.double_at("load");
    AdmissionControl ac;
    if (p.str_at("shed") == "drop_oldest") {
      ac.queue_capacity = 4;
      ac.policy = ShedPolicy::kDropOldest;
    }
    const std::vector<TenantWorkload> fleet = make_open_fleet(
        s.pipe, frames, mult / s.healthy, deadline, ac);
    ServingOptions opt;
    opt.policy = PlacementPolicy::kPartitioned;
    const FleetStats st = fleet_stats(serve_tenants(s.pkg, fleet, opt));
    SweepRecord rec;
    rec.set("offered_fps", mult / s.healthy)
        .set("completed", st.completed)
        .set("shed_frames", st.shed)
        .set("deadline_misses", st.misses)
        .set("worst_p99_ms", st.worst_p99_s * 1e3)
        .set("mean_queue_delay_us", st.worst_mean_qd_s * 1e6)
        .set("peak_queue_delay_us", st.worst_peak_qd_s * 1e6);
    return rec;
  });
  bench::require_all_ok(sweep);

  std::printf("offered-load ladder: %d partitioned tenants, Poisson "
              "arrivals, load = multiple of the isolated-quadrant capacity "
              "(%.1f fps), %d frames per tenant\n",
              kTenants, 1.0 / s.healthy, frames);
  Table t("offered load x shed policy (4x4 package, partitioned)");
  t.set_header({"Load", "Shed policy", "Done", "Shed", "Miss", "p99(ms)",
                "Mean qd(us)", "Peak qd(us)"});
  for (const SweepPointResult& p : sweep.points) {
    t.add_row({format_fixed(p.point.double_at("load"), 2),
               p.point.str_at("shed"),
               format_fixed(p.record.get("completed"), 0),
               format_fixed(p.record.get("shed_frames"), 0),
               format_fixed(p.record.get("deadline_misses"), 0),
               format_fixed(p.record.get("worst_p99_ms"), 3),
               format_fixed(p.record.get("mean_queue_delay_us"), 1),
               format_fixed(p.record.get("peak_queue_delay_us"), 1)});
  }
  std::printf("%s", t.to_string().c_str());
  bench::write_sweep_artifacts(sweep, "bench_openloop_sweep");
}

// Section 2: shed policies at 1.5x overload + the acceptance check.
void print_shed_comparison(const Scenario& s, bool smoke) {
  const int frames = smoke ? 24 : 48;
  const double rate = 1.5 / s.healthy;  // 1.5x each tenant's capacity
  const double deadline = s.healthy * 4.0;
  ServingOptions opt;
  opt.policy = PlacementPolicy::kPartitioned;

  std::printf("shed-policy comparison at 1.5x-overload Poisson arrivals "
              "(deadline %.1f us)\n",
              deadline * 1e6);
  struct Row {
    const char* name;
    AdmissionControl ac;
  };
  std::vector<Row> rows;
  rows.push_back({"none (baseline)", AdmissionControl{}});
  AdmissionControl reject;
  reject.queue_capacity = 4;
  reject.policy = ShedPolicy::kRejectNew;
  rows.push_back({"reject_new", reject});
  AdmissionControl oldest = reject;
  oldest.policy = ShedPolicy::kDropOldest;
  rows.push_back({"drop_oldest", oldest});
  AdmissionControl newest = reject;
  newest.policy = ShedPolicy::kDropNewest;
  rows.push_back({"drop_newest", newest});
  AdmissionControl expiry = oldest;
  expiry.shed_expired = true;
  rows.push_back({"drop_oldest+expiry", expiry});

  Table t("shed policy at 1.5x overload (4 tenants, partitioned)");
  t.set_header({"Policy", "Done", "Shed", "Miss", "p99(ms)", "Peak qd(us)"});
  int baseline_misses = -1;
  int shedding_misses = -1;
  int shedding_shed = 0;
  for (const Row& row : rows) {
    const std::vector<TenantWorkload> fleet =
        make_open_fleet(s.pipe, frames, rate, deadline, row.ac);
    const FleetStats st = fleet_stats(serve_tenants(s.pkg, fleet, opt));
    t.add_row({row.name, std::to_string(st.completed),
               std::to_string(st.shed), std::to_string(st.misses),
               format_fixed(st.worst_p99_s * 1e3, 3),
               format_fixed(st.worst_peak_qd_s * 1e6, 1)});
    if (std::string_view(row.name) == "none (baseline)") {
      baseline_misses = st.misses;
    }
    if (std::string_view(row.name) == "drop_oldest+expiry") {
      shedding_misses = st.misses;
      shedding_shed = st.shed;
    }
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("no-shed baseline misses %d deadlines; drop_oldest+expiry "
              "misses %d (shedding %d frames)\n\n",
              baseline_misses, shedding_misses, shedding_shed);
  // Acceptance: under 1.5x overload, continuous batching WITH load
  // shedding must keep the deadline-miss count strictly below the no-shed
  // baseline — otherwise admission control is not converting overload
  // into bounded loss.
  if (!(shedding_misses < baseline_misses) || shedding_shed <= 0) {
    std::fprintf(stderr,
                 "bench_openloop: shedding did NOT reduce deadline misses "
                 "under 1.5x overload (baseline %d vs shed %d, %d shed "
                 "frames) - admission control is not biting\n",
                 baseline_misses, shedding_misses, shedding_shed);
    std::exit(1);
  }
}

bool vec_bits_equal(const std::vector<double>& a,
                    const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

// Section 3: one warm engine, closed -> open -> closed; the closed-loop
// runs must be bitwise identical.
void print_closed_loop_guard(const Scenario& s, bool smoke) {
  const int frames = smoke ? 24 : 48;
  const Schedule sched = build_chainwise_schedule(s.pipe, s.pkg);

  SimOptions closed;
  closed.frames = frames;
  closed.frame_interval_s = s.healthy * 1.5;
  closed.deadline_s = s.healthy * 4.0;

  SimOptions open = closed;
  open.arrivals.kind = ArrivalKind::kPoisson;
  open.arrivals.rate_fps = 1.5 / s.healthy;
  open.arrivals.seed = 7;
  open.admission.queue_capacity = 4;
  open.admission.policy = ShedPolicy::kDropOldest;

  SimEngine engine;
  SimResult before, mid, after;
  engine.run_into(sched, closed, before);
  engine.run_into(sched, open, mid);
  engine.run_into(sched, closed, after);

  const bool identical =
      vec_bits_equal(before.frame_completion_s, after.frame_completion_s) &&
      vec_bits_equal(before.frame_latency_s, after.frame_latency_s) &&
      std::bit_cast<std::uint64_t>(before.steady_interval_s) ==
          std::bit_cast<std::uint64_t>(after.steady_interval_s) &&
      before.tasks_executed == after.tasks_executed &&
      before.deadline_miss_frames == after.deadline_miss_frames;
  std::printf("closed-loop isolation guard: closed -> open(shed %d) -> "
              "closed on one warm engine: %s\n\n",
              mid.shed_frames, identical ? "bitwise identical" : "DRIFT");
  if (!identical) {
    std::fprintf(stderr,
                 "bench_openloop: closed-loop results drifted after an "
                 "open-loop run on the same engine - arrival state is "
                 "leaking into the legacy path\n");
    std::exit(1);
  }
}

void print_tables(bool smoke) {
  bench::print_header(
      "Open-loop arrivals - offered load, shedding, and queue delay",
      "beyond the paper: trace/process-driven admission "
      "(src/sim/arrivals.h)");
  const Scenario s;
  print_load_ladder(s, smoke);
  print_shed_comparison(s, smoke);
  print_closed_loop_guard(s, smoke);
}

}  // namespace
}  // namespace cnpu

int main(int argc, char** argv) {
  cnpu::print_tables(cnpu::bench::read_args(argc, argv, /*smoke_run=*/true));
}
