#include "analysis/validate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "analysis/bounds.h"
#include "core/evaluator.h"
#include "core/remap.h"
#include "core/residency.h"
#include "sim/arrivals.h"
#include "util/strings.h"

namespace cnpu::analysis {
namespace {

std::string item_locus(const std::string& locus, const Schedule& s, int idx) {
  const Schedule::Item& it = s.item(idx);
  return locus + " / item " + std::to_string(idx) + " (stage " +
         std::to_string(it.stage) + " model " + std::to_string(it.model) +
         " layer " + it.desc->name + ")";
}

// Structure of one stream: every placement build_program would reject
// (S002-S004, in its order), then shard fractions that do not sum to 1
// (S005, lint-only). Returns true when every placement resolves — the gate
// for the route / residency / deadline analyses, which would throw on a
// broken structure.
bool collect_structure(const Schedule& s, const std::string& locus,
                       Diagnostics& out) {
  bool clean = true;
  for_each_unplaced(s, [&](int i, const ShardAssignment* sh) {
    clean = false;
    if (sh == nullptr) {
      out.add(kRuleSchedUnassigned, item_locus(locus, s, i),
              "unassigned layer: " + s.item(i).desc->name);
      return;
    }
    const std::vector<FailedSite>& failed = s.package().failed_sites();
    const bool dead =
        std::any_of(failed.begin(), failed.end(), [&](const FailedSite& f) {
          return f.chiplet_id == sh->chiplet_id;
        });
    out.add(dead ? kRuleSchedDeadChiplet : kRuleSchedDanglingChiplet,
            item_locus(locus, s, i),
            "shard references chiplet " + std::to_string(sh->chiplet_id) +
                (dead ? ", which without_chiplet removed from the package"
                      : ", which the package never had"));
  });
  for (int i = 0; i < s.num_items(); ++i) {
    const Placement& p = s.placement(i);
    if (!p.assigned()) continue;
    double sum = 0.0;
    bool bad_fraction = false;
    for (const ShardAssignment& sh : p.shards) {
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
// handed in directly). `enforced` is whether the NoP is on: with
// NopMode::kOff the runtime never resolves a route, so an unroutable edge
// is lint-only.
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

// Diagnostics locus of a check_run failure.
std::string run_check_locus(const SimOptions& options, std::string_view rule,
                            int stream) {
  if (stream >= 0) {
    std::string locus =
        stream_locus(options, static_cast<std::size_t>(stream));
    return rule == kRuleAdmissionCapacity ? locus + " / admission" : locus;
  }
  if (rule == kRuleSchedEmpty) return "schedule";
  if (rule == kRuleNopParams) return "package.nop";
  return "options.fault";
}

// Rule evaluation over the simulate_schedule input shape: the engine's own
// check_run first, then the deep checks in the order SimEngine meets them
// (build_program per stream, degraded_for, generate_arrivals), so
// throw_if_enforced surfaces the violation the engine would have thrown.
void collect_sim(const Schedule& schedule, const SimOptions& options,
                 Diagnostics& out) {
  const PackageConfig& pkg = schedule.package();
  const bool nop = options.nop_mode != NopMode::kOff;
  const FaultPlan& fault = options.fault;

  // A stream on another package or with an empty schedule is reported
  // and left out: every deeper check would compare apples to oranges.
  std::vector<StreamView> streams;
  resolve_streams(schedule, options, streams);
  std::vector<char> left_out(streams.size(), 0);
  check_run(schedule, options, streams,
            [&](const char* rule, int stream, const std::string& what) {
              const std::string_view id = rule;
              if (stream >= 0 && id != kRuleAdmissionCapacity) {
                left_out[static_cast<std::size_t>(stream)] = 1;
              }
              out.add(rule, run_check_locus(options, id, stream), what);
            });
  std::vector<std::string> loci;
  std::size_t kept = 0;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    if (left_out[t]) continue;
    streams[kept++] = streams[t];
    loci.push_back(stream_locus(options, t));
  }
  streams.resize(kept);

  for (std::size_t t = 0; t < streams.size(); ++t) {
    const StreamView& v = streams[t];
    if (v.admission->shed_expired && !(v.deadline_s > 0.0)) {
      out.add(kRuleAdmissionInertExpiry, loci[t] + " / admission",
              "shed_expired is set but the stream has no deadline, so the "
              "knob is inert");
    }
  }
  if (fault.active() && fault.reschedule_penalty_s < 0.0) {
    out.add(kRuleFaultPenaltySign, "options.fault",
            "reschedule_penalty_s is negative (a backwards-in-time "
            "reconfiguration stall)");
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

  if (fault.active() && fault.fail_time_s >= 0.0 &&
      !out.has_rule(kRuleFaultUnknownChiplet)) {
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
        const Schedule remapped =
            remap_schedule(*v.schedule, degraded, fault.chiplet_id, nullptr,
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
    // The static critical path (bounds.h) is a lower bound on every
    // frame's latency: contention and queueing only add. A deadline below
    // it cannot be met by any frame. Bounds are cached per schedule: N
    // identical tenants price once.
    std::vector<std::pair<const Schedule*, double>> bound_cache;
    std::vector<double> item_latency;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      const StreamView& v = streams[t];
      if (!(v.deadline_s > 0.0) || !clean[t]) continue;
      const Schedule& s = *v.schedule;
      auto it = std::find_if(bound_cache.begin(), bound_cache.end(),
                             [&](const auto& e) { return e.first == &s; });
      if (it == bound_cache.end()) {
        try {
          item_latency.clear();
          for (int i = 0; i < s.num_items(); ++i) {
            item_latency.push_back(item_latency_s(s, i));
          }
          it = bound_cache.emplace(bound_cache.end(), &s,
                                   critical_path_s(s, item_latency, nop));
        } catch (...) {
          continue;  // structurally fine but unpriceable: nothing to bound
        }
      }
      if (v.deadline_s < it->second) {
        out.add(kRuleDeadlineInfeasible, loci[t],
                "deadline " + format_g(v.deadline_s, 6) +
                    " s is below the static critical-path latency bound " +
                    format_g(it->second, 6) + " s: every frame must miss");
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

}  // namespace cnpu::analysis
