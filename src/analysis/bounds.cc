#include "analysis/bounds.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "analysis/validate.h"
#include "core/evaluator.h"
#include "dataflow/cost_model.h"
#include "util/strings.h"
#include "util/table.h"

namespace cnpu::analysis {
namespace {

// Bounds require a structurally sound stream (every item assigned, every
// shard chiplet present, every fraction positive): anything the S/T
// structural rules would flag is skipped rather than re-diagnosed here.
bool structurally_clean(const Schedule& s) {
  bool clean = s.num_items() > 0;
  for_each_unplaced(s, [&](int, const ShardAssignment*) { clean = false; });
  for (int i = 0; clean && i < s.num_items(); ++i) {
    for (const ShardAssignment& sh : s.placement(i).shards) {
      if (!(sh.fraction > 0.0) || !std::isfinite(sh.fraction)) return false;
    }
  }
  return clean;
}

// Everything one stream contributes, accumulated locally so a stream that
// turns out unpriceable (analyze_layer throws on a malformed bundle layer)
// is dropped whole instead of half-merged.
struct StreamContribution {
  StreamBound bound;
  std::map<NopLink, double> link_bytes;       // per-frame bytes per link
  std::map<int, double> chiplet_busy;         // chiplet id -> busy s/frame
};

StreamContribution price_stream(const StreamView& v, std::string locus,
                                const PackageConfig& pkg, bool nop) {
  const Schedule& s = *v.schedule;
  const int n = s.num_items();
  StreamContribution out;
  out.bound.name = *v.name;
  out.bound.locus = std::move(locus);
  out.bound.deadline_s = v.deadline_s;
  out.bound.rate_known =
      mean_arrival_rate_fps(*v.arrivals, v.frame_interval_s,
                            out.bound.rate_fps);

  // Per-item compute roofline (max over shards — exactly the simulator's
  // per-shard task cost) and per-chiplet busy accumulation.
  std::vector<double> lat(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < n; ++i) {
    const LayerDesc* desc = s.item(i).desc;
    double item_lat = 0.0;
    for (const ShardAssignment& sh : s.placement(i).shards) {
      const double shard_lat = analyze_shard(pkg, *desc, sh).latency_s;
      item_lat = std::max(item_lat, shard_lat);
      out.chiplet_busy[sh.chiplet_id] += shard_lat;
    }
    lat[static_cast<std::size_t>(i)] = item_lat;
  }

  out.bound.latency_bound_s = critical_path_s(s, lat, nop);

  // Per-link byte injection, matching the contended simulator's
  // one-message-per-shard fraction-scaled routing. Every pair routes here:
  // route and hop count come from one walk, so critical_path_s above has
  // already thrown for an unroutable one.
  auto add_route = [&](const std::vector<NopLink>& route, double bytes) {
    for (const NopLink& l : route) out.link_bytes[l] += bytes;
  };
  if (nop) {
    for_each_schedule_edge(
        s,
        [&](int item) {
          add_route(pkg.route_from_io(s.placement(item).primary_chiplet()),
                    kCameraInputBytes);
        },
        [&](int producer, int consumer, double bytes) {
          const int dst = s.placement(consumer).primary_chiplet();
          for (const ShardAssignment& sh : s.placement(producer).shards) {
            add_route(pkg.route_between(sh.chiplet_id, dst),
                      sh.fraction * bytes);
          }
        });
  }

  for (const auto& [link, bytes] : out.link_bytes) {
    (void)link;
    out.bound.bytes_per_frame += bytes;
  }
  out.bound.deadline_infeasible =
      v.deadline_s > 0.0 && out.bound.latency_bound_s > v.deadline_s;
  return out;
}

}  // namespace

double critical_path_s(const Schedule& schedule,
                       const std::vector<double>& item_latency, bool nop) {
  const PackageConfig& pkg = schedule.package();
  const auto n = static_cast<std::size_t>(schedule.num_items());
  // The dependency DAG with analytical edge delays, matching
  // build_program's e.delay_s.
  std::vector<std::vector<std::pair<int, double>>> preds(n);
  std::vector<double> ingress_delay(n, 0.0);
  for_each_schedule_edge(
      schedule,
      [&](int item) {
        if (!nop) return;
        ingress_delay[static_cast<std::size_t>(item)] =
            nop_ingress_cost(pkg, schedule.placement(item).primary_chiplet())
                .latency_s;
      },
      [&](int producer, int consumer, double bytes) {
        const double delay =
            nop ? nop_gather_cost(pkg, schedule.placement(producer),
                                  schedule.placement(consumer), bytes)
                      .latency_s
                : 0.0;
        preds[static_cast<std::size_t>(consumer)].emplace_back(producer, delay);
      });

  // Longest path: complete(i) = ready(i) + latency(i), ready(i) =
  // max(ingress delay, max over deps of complete(p) + edge delay). Every
  // edge runs from an earlier stage, an earlier item of the same model, or
  // a stage's prefix model into its other models, so visiting stages in
  // order, each stage's prefix models before the rest, finds every
  // producer complete.
  std::vector<double> complete(n, 0.0);
  double bound = 0.0;
  const auto visit = [&](const std::vector<int>& items) {
    for (const int i : items) {
      const auto ti = static_cast<std::size_t>(i);
      double ready = ingress_delay[ti];
      for (const auto& [p, delay] : preds[ti]) {
        ready = std::max(ready, complete[static_cast<std::size_t>(p)] + delay);
      }
      complete[ti] = ready + item_latency[ti];
      bound = std::max(bound, complete[ti]);
    }
  };
  const PerceptionPipeline& pipe = schedule.pipeline();
  for (int st = 0; st < pipe.num_stages(); ++st) {
    const Stage& stage = pipe.stages[static_cast<std::size_t>(st)];
    for (const bool prefix : {true, false}) {
      for (int m = 0; m < stage.num_models(); ++m) {
        if (stage.models[static_cast<std::size_t>(m)].prefix == prefix) {
          visit(schedule.items_of_model(st, m));
        }
      }
    }
  }
  return bound;
}

bool mean_arrival_rate_fps(const ArrivalSpec& arrivals,
                           double frame_interval_s, double& rate_fps) {
  rate_fps = 0.0;
  if (!arrivals.active()) {
    if (frame_interval_s > 0.0) {
      rate_fps = 1.0 / frame_interval_s;
      return true;
    }
    return false;  // t=0 burst: no steady admission rate exists
  }
  if (arrivals.kind == ArrivalKind::kTrace) return false;
  if (!(arrivals.rate_fps > 0.0)) return false;
  double scale = 1.0;
  if (!arrivals.profile.empty()) {
    double duration = 0.0;
    double weighted = 0.0;
    for (const RatePhase& ph : arrivals.profile) {
      if (!(ph.duration_s > 0.0) || ph.scale < 0.0) return false;
      duration += ph.duration_s;
      weighted += ph.duration_s * ph.scale;
    }
    scale = weighted / duration;
  }
  if (arrivals.kind == ArrivalKind::kBursty) {
    if (!(arrivals.on_mean_s > 0.0) || !(arrivals.off_mean_s > 0.0)) {
      return false;
    }
    scale *= (arrivals.on_mean_s * arrivals.on_scale +
              arrivals.off_mean_s * arrivals.off_scale) /
             (arrivals.on_mean_s + arrivals.off_mean_s);
  }
  rate_fps = arrivals.rate_fps * scale;
  if (!(rate_fps > 0.0)) {
    rate_fps = 0.0;
    return false;
  }
  return true;
}

BoundsReport compute_bounds(const Schedule& schedule,
                            const SimOptions& options) {
  const PackageConfig& pkg = schedule.package();
  BoundsReport report;
  report.nop_mode = options.nop_mode;

  std::vector<StreamView> streams;
  resolve_streams(schedule, options, streams);

  const bool nop = options.nop_mode != NopMode::kOff;
  const bool link_binding = options.nop_mode == NopMode::kContended;
  std::map<NopLink, LinkBound> links;
  std::map<int, ChipletBound> chiplets;
  std::vector<const Schedule*> priced_scheds;
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const StreamView& v = streams[t];
    if (&v.schedule->package() != &pkg) continue;  // T003's job, not ours
    if (!structurally_clean(*v.schedule)) continue;
    StreamContribution c;
    try {
      c = price_stream(v, stream_locus(options, t), pkg, nop);
    } catch (const std::exception&) {
      continue;  // unpriceable (malformed bundle layer): skip the stream
    }
    priced_scheds.push_back(v.schedule);
    for (const auto& [link, bytes] : c.link_bytes) {
      LinkBound& lb = links[link];
      lb.link = link;
      lb.bytes_per_frame += bytes;
      if (c.bound.rate_known) {
        lb.demand_bytes_per_s += c.bound.rate_fps * bytes;
      }
    }
    for (const auto& [id, busy] : c.chiplet_busy) {
      ChipletBound& cb = chiplets[id];
      cb.chiplet_id = id;
      cb.busy_s_per_frame += busy;
      if (c.bound.rate_known) cb.demand += c.bound.rate_fps * busy;
    }
    report.streams.push_back(std::move(c.bound));
  }

  const double capacity = pkg.nop().bandwidth_bytes_per_s;
  double uniform = 0.0;
  bool any_constraint = false;
  report.links.reserve(links.size());
  for (auto& [link, lb] : links) {
    (void)link;
    lb.capacity_bytes_per_s = capacity;
    lb.utilization =
        capacity > 0.0 ? lb.demand_bytes_per_s / capacity : 0.0;
    lb.oversubscribed = link_binding && lb.demand_bytes_per_s > capacity;
    if (link_binding && lb.bytes_per_frame > 0.0 && capacity > 0.0) {
      const double cap_fps = capacity / lb.bytes_per_frame;
      uniform = any_constraint ? std::min(uniform, cap_fps) : cap_fps;
      any_constraint = true;
    }
    report.links.push_back(lb);
  }
  // Emit chiplet bounds in package order, idle chiplets included, so the
  // vector indexes like SimResult::chiplet_busy_s.
  report.chiplets.reserve(pkg.chiplets().size());
  for (const ChipletSpec& spec : pkg.chiplets()) {
    ChipletBound cb;
    cb.chiplet_id = spec.id;
    const auto it = chiplets.find(spec.id);
    if (it != chiplets.end()) cb = it->second;
    cb.oversubscribed = cb.demand > 1.0;
    if (cb.busy_s_per_frame > 0.0) {
      const double cap_fps = 1.0 / cb.busy_s_per_frame;
      uniform = any_constraint ? std::min(uniform, cap_fps) : cap_fps;
      any_constraint = true;
    }
    report.chiplets.push_back(cb);
  }
  report.uniform_rate_bound_fps = any_constraint ? uniform : 0.0;

  if (pkg.memory_model_active() && !priced_scheds.empty()) {
    report.residency = compute_residency(priced_scheds, pkg);
    report.residency_checked = true;
  }
  return report;
}

BoundsReport compute_bounds(const PackageConfig& package,
                            const std::vector<TenantWorkload>& tenants,
                            const ServingOptions& options) {
  // Place exactly like serve_tenants (same exceptions), then bound the
  // placed fleet through the SimOptions the ServingPlan would run.
  const TenantPlacement placement =
      place_tenants(tenants, package, options.policy);
  return compute_bounds(placement.schedules.front(),
                        fleet_sim_options(tenants, placement, options));
}

void collect_bound_diagnostics(const BoundsReport& report, Diagnostics& out) {
  for (const StreamBound& s : report.streams) {
    if (!s.deadline_infeasible) continue;
    out.add(kRuleBoundDeadline, s.locus,
            "static critical-path lower bound " +
                format_g(s.latency_bound_s, 6) + " s exceeds the deadline " +
                format_g(s.deadline_s, 6) + " s: every frame must miss");
  }
  for (const LinkBound& l : report.links) {
    if (!l.oversubscribed) continue;
    out.add(kRuleBoundLinkOversubscribed, "link " + l.link.describe(),
            format_g(l.demand_bytes_per_s / 1e9, 4) + " GB/s demanded of a " +
                format_g(l.capacity_bytes_per_s / 1e9, 4) +
                " GB/s link (utilization " + format_g(l.utilization, 3) +
                "): the FIFO queue diverges at the admitted rate");
  }
  for (const ChipletBound& c : report.chiplets) {
    if (!c.oversubscribed) continue;
    out.add(kRuleBoundComputeOversubscribed,
            "chiplet " + std::to_string(c.chiplet_id),
            format_g(c.demand, 3) +
                " chiplet-seconds demanded per second (busy " +
                format_g(c.busy_s_per_frame, 6) +
                " s per frame): the queue diverges at the admitted rate");
  }
  if (report.residency_checked && report.residency.overflow) {
    out.add(kRuleBoundResidency, "package",
            "co-resident streams overflow chiplet memory — " +
                report.residency.describe_overflow());
  }
}

Diagnostics bound_diagnostics(const BoundsReport& report) {
  Diagnostics out;
  collect_bound_diagnostics(report, out);
  return out;
}

std::string BoundsReport::table() const {
  std::string out;
  {
    Table t;
    t.set_header({"stream", "bound (ms)", "rate (fps)", "deadline (ms)",
                  "verdict"});
    for (const StreamBound& s : streams) {
      t.add_row({s.name, format_fixed(s.latency_bound_s * 1e3, 4),
                 s.rate_known ? format_g(s.rate_fps, 3) : "?",
                 s.deadline_s > 0.0 ? format_fixed(s.deadline_s * 1e3, 4)
                                    : "-",
                 s.deadline_infeasible ? "statically dead" : "feasible"});
    }
    out += t.to_string();
  }
  // Hottest links / chiplets only: a 6x6 mesh easily touches dozens.
  constexpr std::size_t kTop = 8;
  if (!links.empty()) {
    std::vector<LinkBound> hot = links;
    std::sort(hot.begin(), hot.end(),
              [](const LinkBound& a, const LinkBound& b) {
                if (a.demand_bytes_per_s != b.demand_bytes_per_s) {
                  return a.demand_bytes_per_s > b.demand_bytes_per_s;
                }
                return a.bytes_per_frame > b.bytes_per_frame;
              });
    if (hot.size() > kTop) hot.resize(kTop);
    Table t;
    t.set_header({"link", "bytes/frame", "demand", "utilization",
                  "verdict"});
    for (const LinkBound& l : hot) {
      t.add_row({l.link.describe(), format_g(l.bytes_per_frame, 3),
                 format_g(l.demand_bytes_per_s / 1e9, 4) + " GB/s",
                 format_g(l.utilization, 3),
                 l.oversubscribed ? "oversubscribed" : "ok"});
    }
    out += t.to_string();
    if (links.size() > kTop) {
      out += "(" + std::to_string(links.size() - kTop) +
             " cooler link(s) elided)\n";
    }
  }
  {
    std::vector<ChipletBound> hot;
    for (const ChipletBound& c : chiplets) {
      if (c.busy_s_per_frame > 0.0) hot.push_back(c);
    }
    std::sort(hot.begin(), hot.end(),
              [](const ChipletBound& a, const ChipletBound& b) {
                if (a.demand != b.demand) return a.demand > b.demand;
                return a.busy_s_per_frame > b.busy_s_per_frame;
              });
    const std::size_t total = hot.size();
    if (hot.size() > kTop) hot.resize(kTop);
    if (!hot.empty()) {
      Table t;
      t.set_header({"chiplet", "busy/frame (ms)", "demand", "verdict"});
      for (const ChipletBound& c : hot) {
        t.add_row({std::to_string(c.chiplet_id),
                   format_fixed(c.busy_s_per_frame * 1e3, 4),
                   format_g(c.demand, 3),
                   c.oversubscribed ? "oversubscribed" : "ok"});
      }
      out += t.to_string();
      if (total > kTop) {
        out += "(" + std::to_string(total - kTop) +
               " cooler chiplet(s) elided)\n";
      }
    }
  }
  out += "uniform-rate bound: " +
         (uniform_rate_bound_fps > 0.0 ? format_g(uniform_rate_bound_fps, 3) +
                                             std::string(" fps")
                                       : std::string("none")) +
         "\n";
  if (residency_checked) {
    out += residency.overflow
               ? "residency: OVERFLOW — " + residency.describe_overflow() +
                     "\n"
               : "residency: fits\n";
  }
  return out;
}

void BoundsReport::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("nop_modeled").value(nop_mode != NopMode::kOff);
  w.key("nop_mode").value(nop_mode == NopMode::kContended    ? "contended"
                          : nop_mode == NopMode::kAnalytical ? "analytical"
                                                             : "off");
  w.key("uniform_rate_bound_fps").value(uniform_rate_bound_fps);
  w.key("streams").begin_array();
  for (const StreamBound& s : streams) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("locus").value(s.locus);
    w.key("latency_bound_s").value_precise(s.latency_bound_s);
    w.key("rate_known").value(s.rate_known);
    w.key("rate_fps").value(s.rate_fps);
    w.key("deadline_s").value(s.deadline_s);
    w.key("deadline_infeasible").value(s.deadline_infeasible);
    w.key("bytes_per_frame").value(s.bytes_per_frame);
    w.end_object();
  }
  w.end_array();
  w.key("links").begin_array();
  for (const LinkBound& l : links) {
    w.begin_object();
    w.key("link").value(l.link.describe());
    w.key("bytes_per_frame").value(l.bytes_per_frame);
    w.key("demand_bytes_per_s").value(l.demand_bytes_per_s);
    w.key("capacity_bytes_per_s").value(l.capacity_bytes_per_s);
    w.key("utilization").value(l.utilization);
    w.key("oversubscribed").value(l.oversubscribed);
    w.end_object();
  }
  w.end_array();
  w.key("chiplets").begin_array();
  for (const ChipletBound& c : chiplets) {
    w.begin_object();
    w.key("chiplet").value(c.chiplet_id);
    w.key("busy_s_per_frame").value(c.busy_s_per_frame);
    w.key("demand").value(c.demand);
    w.key("oversubscribed").value(c.oversubscribed);
    w.end_object();
  }
  w.end_array();
  w.key("residency_checked").value(residency_checked);
  if (residency_checked) {
    w.key("residency_overflow").value(residency.overflow);
  }
  w.end_object();
}

std::string BoundsReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("bounds");
  write_json(w);
  w.end_object();
  return w.str();
}

}  // namespace cnpu::analysis
