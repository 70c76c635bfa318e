// Static performance bounds: a roofline-style analyzer that prices a
// Schedule (or a placed tenant fleet) WITHOUT running the event loop.
//
// Three provable statements per configuration:
//  * Latency: the critical path of the shard DAG — per-item compute
//    latency (max over shards of analyze_layer, exactly the simulator's
//    task cost) chained through the analytical NoP delay of every
//    scheduled edge, camera ingress included. Every simulated frame runs
//    this DAG with the same task costs and at least these edge delays;
//    queueing, contention, cross-tenant interference, and reschedule
//    stalls only ADD, so the bound is a lower bound on EVERY frame's
//    admission-to-completion latency (soundness is gated in CI by
//    bench_bounds on the fig5to8 grid and fuzzed in
//    tests/test_fuzz_properties.cc).
//  * Bandwidth: per-directed-link steady-state byte demand at the admitted
//    rate, mirroring the contended simulator's injection exactly (one
//    message per producer shard over its XY route, fraction-scaled bytes;
//    one kCameraInputBytes ingress message per frame per stage-0 model).
//    demand > NopParams::bandwidth_bytes_per_s means the link cannot drain
//    one frame's bytes before the next frame's arrive: the open-loop queue
//    provably diverges. Binding only under NopMode::kContended — the
//    analytical fabric is infinitely parallel by construction.
//  * Compute: per-chiplet busy seconds per frame times the admitted rate;
//    demand > 1 chiplet-second per second diverges the same way.
//
// Findings surface as the P-rule family (P001..P004) of the diagnostics
// registry — severity warning/note, ThrowKind::kNone, NEVER enforced:
// bounds advise, the sim decides. compute_bounds does not re-run the
// structural validators; streams that would fail the S/T structural rules
// are skipped here (run validate() first — cnpu_lint --bounds does).
//
// What the latency bound deliberately ignores (and therefore stays below):
// FIFO link queueing, chiplet calendar contention between items/frames/
// tenants, fault flushes and reschedule stalls, weight-reload charges, and
// admission queue delay. Fault runs are excluded from the soundness claim:
// a fault-remapped schedule executes a DIFFERENT placement whose critical
// path need not dominate the primary's.
#pragma once

#include <string>
#include <vector>

#include "analysis/rules.h"
#include "core/residency.h"
#include "core/schedule.h"
#include "sim/event_sim.h"
#include "sim/serving.h"
#include "util/json.h"

namespace cnpu::analysis {

// One admitted stream's latency bound and deadline verdict.
struct StreamBound {
  std::string name;   // runtime stream name ("stream" / tenant name)
  std::string locus;  // diagnostics locus ("schedule" / "tenant 1 \"vit\"")
  // Critical-path lower bound on any frame's admission-to-completion
  // latency (seconds): compute roofline per item + analytical NoP delay
  // per edge, camera ingress included. 0 NoP delay when
  // SimOptions::nop_mode is NopMode::kOff, matching the simulator.
  double latency_bound_s = 0.0;
  // Resolved mean admission rate (frames/s). rate_known is false — and
  // rate_fps 0 — for a t=0 closed-loop burst (frame_interval_s == 0) and
  // for kTrace arrivals, where no rate knob exists to resolve.
  double rate_fps = 0.0;
  bool rate_known = false;
  double deadline_s = 0.0;  // the stream's own deadline; 0 = none
  // deadline_s > 0 && latency_bound_s > deadline_s: statically dead (P001).
  bool deadline_infeasible = false;
  // Total NoP payload this stream injects per frame, summed over every
  // link crossing (contended-injection accounting; 0 with NoP off).
  double bytes_per_frame = 0.0;
};

// Steady-state demand vs capacity of one directed NoP link.
struct LinkBound {
  NopLink link;
  // Bytes per frame crossing this link, summed over streams (each stream
  // contributes its per-frame injection once — rates rescale it below).
  double bytes_per_frame = 0.0;
  // Sum over streams of rate_fps x that stream's bytes per frame on this
  // link; streams with unknown rates contribute 0 (demand is a lower
  // bound on the true offered load).
  double demand_bytes_per_s = 0.0;
  double capacity_bytes_per_s = 0.0;
  double utilization = 0.0;  // demand / capacity
  // demand > capacity AND the link model is binding (kContended): the FIFO
  // queue on this link provably diverges (P002).
  bool oversubscribed = false;
};

// Steady-state compute demand of one chiplet.
struct ChipletBound {
  int chiplet_id = -1;
  // Sum over streams of the chiplet's per-frame busy seconds (every shard
  // latency it serves for one frame of each stream).
  double busy_s_per_frame = 0.0;
  // Sum over streams of rate_fps x per-frame busy seconds: chiplet-seconds
  // demanded per second. > 1 diverges (P003).
  double demand = 0.0;
  bool oversubscribed = false;
};

struct BoundsReport {
  std::vector<StreamBound> streams;
  std::vector<LinkBound> links;        // touched links, NopLink sort order
  std::vector<ChipletBound> chiplets;  // package chiplet order
  // compute_residency over the admitted schedules; only populated (and
  // checked, P004) when the package's memory model is active.
  ResidencyReport residency;
  bool residency_checked = false;
  // The NoP mode the bound was computed under (controls which components
  // bind: links need kContended; NoP edge delays need any mode but kOff).
  NopMode nop_mode = NopMode::kAnalytical;
  // Largest uniform per-stream admission rate (FPS) no static bound
  // rejects: min over chiplets of 1 / busy_s_per_frame and — when the
  // link model binds — over links of capacity / bytes_per_frame. This is
  // the per-tenant uniform-rate cap max_sustainable_load probes against
  // (run_at_rate drives every tenant at the same rate). 0 when no
  // constraint binds (no work was priced).
  double uniform_rate_bound_fps = 0.0;

  // Human rendering: stream table, hottest links/chiplets, residency and
  // uniform-rate summary lines.
  [[nodiscard]] std::string table() const;
  // Machine rendering. write_json emits one "bounds" object value into an
  // open writer (cnpu_lint composes it with the diagnostics document);
  // to_json wraps it as a standalone document.
  void write_json(JsonWriter& w) const;
  [[nodiscard]] std::string to_json() const;
};

// Mean admission rate (frames/s) of a stream: 1/frame_interval_s
// closed-loop; ArrivalSpec::rate_fps scaled by the profile's mean scale
// for kPeriodic/kPoisson (and additionally by the ON/OFF duty mean for
// kBursty). Returns false — the rate is unknown, not zero — for a t=0
// burst (interval 0, no process), kTrace replay, or a non-positive rate.
bool mean_arrival_rate_fps(const ArrivalSpec& arrivals,
                           double frame_interval_s, double& rate_fps);

// Critical path of one frame through `schedule` (seconds): item i costs
// item_latency[i], chained through the analytical NoP delay of every
// for_each_schedule_edge edge, camera ingress included (no delays when
// `nop` is false). With the simulator's task costs (item_latency_s in
// core/evaluator.h) it is a lower bound on every fault-free frame's
// latency, the one P001 and D001 judge deadlines against. Allocates four
// arrays (one CSR predecessor list and per-item delays), never per edge.
[[nodiscard]] double critical_path_s(const Schedule& schedule,
                                     const std::vector<double>& item_latency,
                                     bool nop);

// Static bounds for the simulate_schedule input shape. Streams resolve
// exactly like SimEngine::run_into (implicit single stream vs explicit
// tenants); structurally broken streams are skipped (see file comment).
// Never throws on lintable input; advisory only. Its arrays are sized once
// per call: nothing is allocated per chiplet, link or edge.
[[nodiscard]] BoundsReport compute_bounds(const Schedule& schedule,
                                          const SimOptions& options = {});

// Serving-fleet shape: places the tenants exactly like serve_tenants
// (same placement, same exceptions — a capacity-infeasible fleet throws
// std::invalid_argument here too) and bounds the placed fleet.
[[nodiscard]] BoundsReport compute_bounds(
    const PackageConfig& package, const std::vector<TenantWorkload>& tenants,
    const ServingOptions& options = {});

// Appends the P-rule findings of `report` to `out` (P001 per statically
// dead stream, P002 per oversubscribed link, P003 per oversubscribed
// chiplet, P004 on residency overflow). Every P rule is ThrowKind::kNone:
// throw_if_enforced can never raise for them.
void collect_bound_diagnostics(const BoundsReport& report, Diagnostics& out);
[[nodiscard]] Diagnostics bound_diagnostics(const BoundsReport& report);

}  // namespace cnpu::analysis
