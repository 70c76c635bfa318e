#include "analysis/validate.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/evaluator.h"
#include "core/remap.h"
#include "core/report.h"
#include "core/residency.h"
#include "sim/arrivals.h"

namespace cnpu::analysis {
namespace {

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", s);
  return std::string(buf) + " s";
}

std::string item_locus(const std::string& locus, const Schedule& s, int idx) {
  const Schedule::Item& it = s.item(idx);
  return locus + " / item " + std::to_string(idx) + " (stage " +
         std::to_string(it.stage) + " model " + std::to_string(it.model) +
         " layer " + it.desc->name + ")";
}

// True when `chiplet_id` resolves on `pkg`; classifies the miss.
enum class ChipletRef { kPresent, kDead, kDangling };
ChipletRef classify_chiplet(const PackageConfig& pkg, int chiplet_id) {
  for (const ChipletSpec& c : pkg.chiplets()) {
    if (c.id == chiplet_id) return ChipletRef::kPresent;
  }
  for (const FailedSite& f : pkg.failed_sites()) {
    if (f.chiplet_id == chiplet_id) return ChipletRef::kDead;
  }
  return ChipletRef::kDangling;
}

// Per-item structural walk, mirroring build_program's item loop
// (sim/event_sim.cc): unassigned first, then every shard's chiplet
// reference, in item order. Returns true when the stream is structurally
// clean (every item assigned, every reference resolves) — the gate for the
// route / residency / deadline analyses, which would throw on a broken
// structure.
bool collect_structure(const Schedule& s, const std::string& locus,
                       Diagnostics& out) {
  const PackageConfig& pkg = s.package();
  bool clean = true;
  for (int i = 0; i < s.num_items(); ++i) {
    const Placement& p = s.placement(i);
    if (!p.assigned()) {
      out.add(kRuleSchedUnassigned, item_locus(locus, s, i),
              "unassigned layer: " + s.item(i).desc->name);
      clean = false;
      continue;
    }
    double sum = 0.0;
    bool bad_fraction = false;
    for (const ShardAssignment& sh : p.shards) {
      switch (classify_chiplet(pkg, sh.chiplet_id)) {
        case ChipletRef::kPresent:
          break;
        case ChipletRef::kDead:
          out.add(kRuleSchedDeadChiplet, item_locus(locus, s, i),
                  "shard references chiplet " + std::to_string(sh.chiplet_id) +
                      ", which without_chiplet removed from the package");
          clean = false;
          break;
        case ChipletRef::kDangling:
          out.add(kRuleSchedDanglingChiplet, item_locus(locus, s, i),
                  "shard references chiplet " + std::to_string(sh.chiplet_id) +
                      ", which the package never had");
          clean = false;
          break;
      }
      if (!(sh.fraction > 0.0) || !std::isfinite(sh.fraction)) {
        bad_fraction = true;
      }
      sum += sh.fraction;
    }
    if (bad_fraction || std::abs(sum - 1.0) > 1e-6) {
      out.add(kRuleSchedShardFraction, item_locus(locus, s, i),
              "shard fractions sum to " + std::to_string(sum) +
                  (bad_fraction ? " with a non-positive fraction" : ""));
    }
  }
  return clean;
}

// Route reachability of every priced edge of `sched` on `sched.package()`.
// A healthy mesh is always fully connected, so this only runs against a
// package with failed sites (a degraded copy, or a without_chiplet package
// handed in directly). `enforced` is model_nop_delays: with NoP delays off
// the runtime never resolves a route, so an unroutable edge is lint-only.
// Returns true when every edge routed.
bool collect_routes(const std::string& locus, const Schedule& sched,
                    bool enforced, Diagnostics& out) {
  const PackageConfig& pkg = sched.package();
  if (pkg.failed_sites().empty()) return true;
  bool ok = true;
  for_each_schedule_edge(
      sched,
      [&](int item) {
        const int dst = sched.placement(item).primary_chiplet();
        try {
          (void)pkg.hops_from_io(dst);
        } catch (const std::runtime_error& e) {
          out.add(kRuleRouteIoSevered,
                  locus + " / ingress -> item " + std::to_string(item) +
                      " (chiplet " + std::to_string(dst) + ")",
                  e.what(), enforced);
          ok = false;
        }
      },
      [&](int producer, int consumer, double /*bytes*/) {
        const int dst = sched.placement(consumer).primary_chiplet();
        for (const ShardAssignment& sh : sched.placement(producer).shards) {
          try {
            (void)pkg.hops_between(sh.chiplet_id, dst);
          } catch (const std::runtime_error& e) {
            out.add(kRuleRouteUnreachable,
                    locus + " / edge item " + std::to_string(producer) +
                        " -> item " + std::to_string(consumer) + " (chiplet " +
                        std::to_string(sh.chiplet_id) + " -> " +
                        std::to_string(dst) + ")",
                    e.what(), enforced);
            ok = false;
          }
        }
      });
  return ok;
}

// Rule evaluation over the simulate_schedule input shape. Findings are
// inserted in the legacy throw-site order of SimEngine's run_into ->
// build_program -> degraded_for -> generate_arrivals sequence, so
// throw_if_enforced surfaces the same violation the runtime would have.
void collect_sim(const Schedule& schedule, const SimOptions& options,
                 Diagnostics& out) {
  const PackageConfig& pkg = schedule.package();
  const bool nop = options.model_nop_delays;

  if (schedule.num_items() == 0) {
    out.add(kRuleSchedEmpty, "schedule",
            "schedule has no items (empty pipeline)");
  }

  // The streams the simulator would admit, with their diagnostics loci. A
  // tenant on another package or with an empty schedule is reported and
  // left out: every deeper check would compare apples to oranges.
  std::vector<StreamView> streams;
  resolve_streams(schedule, options, streams);
  std::vector<std::string> loci;
  std::size_t kept = 0;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const StreamView v = streams[t];
    std::string locus = stream_locus(options, t);
    if (&v.schedule->package() != &pkg) {
      out.add(kRuleTenantForeignPackage, locus,
              "tenant \"" + *v.name +
                  "\" is scheduled on a different package");
      continue;
    }
    if (!options.tenants.empty() && v.schedule->num_items() == 0) {
      out.add(kRuleSchedEmpty, locus,
              "tenant \"" + *v.name + "\" has an empty schedule");
      continue;
    }
    streams[kept++] = v;
    loci.push_back(std::move(locus));
  }
  streams.resize(kept);

  for (std::size_t t = 0; t < streams.size(); ++t) {
    const StreamView& v = streams[t];
    if (v.admission->policy != ShedPolicy::kNone &&
        v.admission->queue_capacity <= 0) {
      out.add(kRuleAdmissionCapacity, loci[t] + " / admission",
              "stream \"" + *v.name +
                  "\" sets a ShedPolicy without a positive queue_capacity");
    }
    if (v.admission->shed_expired && !(v.deadline_s > 0.0)) {
      out.add(kRuleAdmissionInertExpiry, loci[t] + " / admission",
              "shed_expired is set but the stream has no deadline, so the "
              "knob is inert");
    }
  }

  const FaultPlan& fault = options.fault;
  if (fault.active()) {
    if (fault.fail_time_s < 0.0) {
      out.add(kRuleFaultOrder, "options.fault", "negative fail_time_s");
    }
    if (fault.recover_time_s >= 0.0 &&
        fault.recover_time_s < fault.fail_time_s) {
      out.add(kRuleFaultOrder, "options.fault",
              "recover_time_s precedes fail_time_s");
    }
    if (fault.reschedule_penalty_s < 0.0) {
      out.add(kRuleFaultPenaltySign, "options.fault",
              "reschedule_penalty_s is negative (a backwards-in-time "
              "reconfiguration stall)");
    }
  }

  // Program-build order: per stream, structure first, then the priced
  // routes (which only a package with failed sites can break).
  std::vector<bool> clean(streams.size(), false);
  for (std::size_t t = 0; t < streams.size(); ++t) {
    clean[t] = collect_structure(*streams[t].schedule, loci[t], out);
    if (clean[t]) {
      clean[t] = collect_routes(loci[t], *streams[t].schedule, nop, out);
    }
  }

  if (fault.active()) {
    const bool known =
        classify_chiplet(pkg, fault.chiplet_id) == ChipletRef::kPresent;
    if (!known) {
      out.add(kRuleFaultUnknownChiplet, "options.fault",
              "FaultPlan chiplet " + std::to_string(fault.chiplet_id) +
                  " is not in the package");
    } else if (fault.fail_time_s >= 0.0) {
      // Mirror degraded_for: remap every structurally-clean stream onto the
      // degraded package, then check the remapped routes (which include the
      // ingress re-route around the dead router). remap failure order
      // matches the runtime: no-survivor fires before the severed-I/O-port
      // route error.
      const PackageConfig degraded = pkg.without_chiplet(fault.chiplet_id);
      for (std::size_t t = 0; t < streams.size(); ++t) {
        if (!clean[t]) continue;
        const StreamView& v = streams[t];
        try {
          const Schedule remapped = remap_schedule(
              *v.schedule, degraded, fault.chiplet_id, nullptr,
              *v.allowed_chiplets);
          collect_routes(loci[t], remapped, nop, out);
        } catch (const std::invalid_argument& e) {
          out.add(kRuleFaultNoSurvivor, loci[t] + " / fault remap", e.what());
        }
      }
      if (pkg.io_port_attached_to(fault.chiplet_id) &&
          !out.has_rule(kRuleRouteIoSevered)) {
        // Belt-and-braces: the remap itself may park every placement on
        // survivors, but ingress still has no route into ANY of them when
        // the dead router carries the I/O port.
        out.add(kRuleRouteIoSevered, "options.fault",
                "chiplet " + std::to_string(fault.chiplet_id) +
                    " hosts the west-edge I/O port router; removing it "
                    "severs ingress",
                nop);
      }
    }
  }

  for (std::size_t t = 0; t < streams.size(); ++t) {
    const StreamView& v = streams[t];
    if (!v.arrivals->active()) continue;
    const std::string err = describe_arrival_spec_error(*v.arrivals, v.frames);
    if (!err.empty()) {
      out.add(kRuleArrivalSpecInvalid, loci[t] + " / arrivals", err);
    }
  }

  // Lint-only analyses from here on: the simulate_schedule path accepts
  // these at run time, so nothing below is enforced.
  if (pkg.memory_model_active()) {
    std::vector<const Schedule*> scheds;
    scheds.reserve(streams.size());
    bool all_clean = !streams.empty();
    for (std::size_t t = 0; t < streams.size(); ++t) {
      scheds.push_back(streams[t].schedule);
      all_clean = all_clean && clean[t];
    }
    if (all_clean) {
      const ResidencyReport r = compute_residency(scheds, pkg);
      if (r.overflow) {
        out.add(kRuleResidencyOverflow, "package",
                "co-resident streams overflow chiplet memory — " +
                    r.describe_overflow(),
                /*enforced=*/false);
      }
    }
  }

  if (nop) {
    // The analytical evaluator's E2E is an uncongested lower bound on any
    // frame's latency (contention and queueing only add); a deadline below
    // it cannot be met by a single frame. Metrics are cached per schedule:
    // N identical tenants evaluate once.
    std::vector<std::pair<const Schedule*, double>> e2e_cache;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      const StreamView& v = streams[t];
      if (!(v.deadline_s > 0.0) || !clean[t]) continue;
      double bound = -1.0;
      for (const auto& [sched, e2e] : e2e_cache) {
        if (sched == v.schedule) bound = e2e;
      }
      if (bound < 0.0) {
        try {
          bound = evaluate_schedule(*v.schedule).e2e_s;
        } catch (...) {
          continue;  // structurally fine but unpriceable: nothing to bound
        }
        e2e_cache.emplace_back(v.schedule, bound);
      }
      if (v.deadline_s < bound) {
        out.add(kRuleDeadlineInfeasible, loci[t],
                "deadline " + fmt_seconds(v.deadline_s) +
                    " is below the analytical E2E lower bound " +
                    fmt_seconds(bound) + ": every frame must miss");
      }
    }
  }
}

}  // namespace

std::string stream_locus(const SimOptions& options, std::size_t index) {
  if (options.tenants.empty()) return "schedule";
  return "tenant " + std::to_string(index) + " \"" +
         options.tenants[index].name + "\"";
}

Diagnostics validate(const Schedule& schedule, const SimOptions& options) {
  Diagnostics out;
  collect_sim(schedule, options, out);
  return out;
}

void validate_or_throw(const Schedule& schedule, const SimOptions& options) {
  validate(schedule, options).throw_if_enforced();
}

Diagnostics validate(const PackageConfig& package,
                     const std::vector<TenantWorkload>& tenants,
                     const ServingOptions& options) {
  Diagnostics out;
  if (tenants.empty()) {
    out.add(kRuleFleetEmpty, "tenants", "no tenant workloads");
    return out;
  }
  bool have_pipelines = true;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (tenants[t].pipeline == nullptr) {
      out.add(kRuleTenantNoPipeline, "tenant " + std::to_string(t),
              "tenant " + std::to_string(t) + " has no pipeline");
      have_pipelines = false;
    }
  }
  if (!have_pipelines) return out;

  // Placement is part of what is validated: a capacity-infeasible fleet
  // surfaces the placement layer's own diagnostic as M001 (enforced — the
  // serving path rejects it at run time with the same invalid_argument).
  TenantPlacement placement;
  try {
    placement = place_tenants(tenants, package, options.policy);
  } catch (const std::invalid_argument& e) {
    out.add(kRuleResidencyOverflow, "placement", e.what());
    return out;
  }

  // The simulate_schedule validators over the SimOptions the ServingPlan
  // would run.
  collect_sim(placement.schedules.front(),
              fleet_sim_options(tenants, placement, options), out);
  return out;
}

void validate_or_throw(const PackageConfig& package,
                       const std::vector<TenantWorkload>& tenants,
                       const ServingOptions& options) {
  validate(package, tenants, options).throw_if_enforced();
}

Diagnostics validate(const SweepSpec& spec) {
  Diagnostics out;
  const std::string spec_locus = "sweep \"" + spec.name() + "\"";
  for (std::size_t a = 0; a < spec.axes().size(); ++a) {
    const SweepAxis& axis = spec.axes()[a];
    const std::string locus = spec_locus + " / axis \"" + axis.name + "\"";
    for (std::size_t b = 0; b < a; ++b) {
      if (spec.axes()[b].name == axis.name) {
        out.add(kRuleSweepDuplicateAxis, locus,
                "axis name \"" + axis.name +
                    "\" repeats; point lookups resolve to the first");
        break;
      }
    }
    if (axis.values.empty()) {
      out.add(kRuleSweepEmptyAxis, locus,
              "axis has no values: the sweep enumerates zero points");
    }
  }
  if (spec.combine() == SweepCombine::kZipped && !spec.axes().empty()) {
    const std::size_t len = spec.axes().front().values.size();
    for (const SweepAxis& axis : spec.axes()) {
      if (axis.values.size() != len) {
        out.add(kRuleSweepZipMismatch,
                spec_locus + " / axis \"" + axis.name + "\"",
                "zipped axes must have equal lengths (axis \"" + axis.name +
                    "\" has " + std::to_string(axis.values.size()) +
                    ", expected " + std::to_string(len) + ")");
      }
    }
  }
  if (spec.combine() == SweepCombine::kCartesian) {
    constexpr std::size_t kMax = 2147483647;  // INT_MAX: point indices are int
    std::size_t n = 1;
    for (const SweepAxis& axis : spec.axes()) {
      if (!axis.values.empty() && n > kMax / axis.values.size()) {
        out.add(kRuleSweepOverflow, spec_locus,
                "cartesian product exceeds INT_MAX points");
        break;
      }
      n *= axis.values.size();
    }
  }
  return out;
}

void validate_or_throw(const SweepSpec& spec) {
  validate(spec).throw_if_enforced();
}

Diagnostics check_csv_contract(const std::vector<std::string>& header,
                               const std::vector<std::vector<std::string>>& rows,
                               const std::string& locus) {
  Diagnostics out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != header.size()) {
      out.add(kRuleReportWidth, locus + " / row " + std::to_string(r),
              "row is " + std::to_string(rows[r].size()) +
                  " cells wide, header has " + std::to_string(header.size()));
    }
  }
  return out;
}

Diagnostics validate_report_contracts(const PackageConfig& package) {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(package.chiplets().size());
  for (const ChipletSpec& c : package.chiplets()) {
    ChipletResidency r;
    r.chiplet_id = c.id;
    rows.push_back(residency_csv_row(r, package));
  }
  return check_csv_contract(residency_csv_header(), rows, "residency_csv");
}

}  // namespace cnpu::analysis
