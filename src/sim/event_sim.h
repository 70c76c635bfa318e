// Discrete-event pipeline simulator.
//
// Replays a Schedule over a stream of camera frames and measures what the
// analytical evaluator predicts in closed form:
//  * first-frame latency  ~ pipeline E2E (fill latency)
//  * steady-state frame interval ~ pipe latency (initiation interval)
//
// Mechanics: every layer shard is a task served non-preemptively by its
// chiplet (FIFO by frame, then program order). A task becomes ready when its
// intra-model predecessor, cross-stage producers, and stage prefix (all of
// the same frame) have completed, plus the NoP transfer delay on each edge.
// Each frame additionally pays the sensor/DRAM ingress transfer from the
// package I/O port into every stage-0 model — the same edge the analytical
// evaluator prices — so sim first-frame latency cross-validates against the
// evaluator's E2E exactly on an uncongested schedule.
//
// Three NoP modes:
//  * kOff — every transfer is free: no ingress or edge delay, no route.
//  * kAnalytical — every transfer is an independent fixed delay on an
//    infinitely-parallel fabric (the paper's closed-form assumption).
//  * kContended — transfers are messages injected onto the directed links
//    of their XY route; each link is a FIFO-arbitrated shared resource at
//    NopParams::bandwidth_bytes_per_s (see src/sim/nop_sim.h). With
//    infinite link bandwidth it is bitwise-identical to kAnalytical; with
//    finite bandwidth, hot links queue and the measured interval can exceed
//    the analytical prediction.
//
// Runtime fault injection (SimOptions::fault): a FaultPlan kills one
// chiplet mid-stream and measures what the perception pipeline experiences
// at that moment — the safety-critical scenario for AV chiplet platforms.
// The fault model:
//  * At fail_time_s the chiplet dies together with its mesh router.
//    Frames already completed keep their results. Every other admitted
//    frame is flushed: its in-flight and pending tasks are revoked
//    (partial work is wasted — activations resident on the failed die are
//    lost, so affected frames restart from their camera tensor), and a
//    remapped schedule (core/remap.h onto without_chiplet) replaces the
//    original while the chiplet is down. No chiplet dispatches work during
//    the reconfiguration stall [fail, fail + reschedule_penalty_s).
//  * A flushed frame whose deadline (admission + deadline_s) has already
//    expired by the end of the stall is dropped, never re-executed: its
//    completion and latency are NaN and it counts in dropped_frames.
//  * Frames admitted while the chiplet is down run the remapped schedule;
//    in contended mode their messages route against the degraded package,
//    so no message traverses the failed chiplet's router.
//  * At recover_time_s (optional) the chiplet rejoins: frames admitted at
//    or after recovery run the original schedule again. Frames still in
//    flight keep their degraded placement — recovery is non-disruptive,
//    there is no second flush.
//
// Multi-tenant serving (SimOptions::tenants): N concurrent frame streams —
// multiple cameras, vehicles, or tenant models — admitted onto ONE package.
// Each TenantStream carries its own Schedule (a placement of its pipeline
// on the shared package, see src/sim/serving.h for the policy-driven
// builders), frame interval, deadline, and priority. All tenants share the
// chiplet calendars and (in contended mode) one NopFabric, so cross-tenant
// link and chiplet interference emerges naturally rather than being
// modeled. Dispatch order is FIFO by admission instant across tenants
// (ties: tenant order, then frame); under PlacementPolicy::kPriority a
// higher-priority tenant's ready work preempts that admission order
// (running tasks are never preempted — admission-order preemption only).
// A single stream is not a special case: resolve_streams turns the
// implicit stream (empty `tenants`) and an explicit list alike into one
// stream list, and every run goes through the same event loop, the same
// conservation check and the same tail reduction (single-stream outputs
// are hexfloat-pinned in tests/test_sim.cc). A FaultPlan composes with
// multi-tenancy: every tenant's schedule is independently remapped
// (restricted to the tenant's allowed_chiplets when set, so the REMAP
// cannot leak work across a partition). The fault TRANSIENT itself is
// package-wide by design — the reconfiguration stall halts every chiplet
// and flushes every tenant's incomplete frames (a pool-clean tenant's
// remapped schedule equals its primary, so its placements are untouched,
// but it still restarts the flushed frames and can deadline-drop them).
// Partitioned isolation is a steady-state load guarantee, not a
// fault-transient one.
//
// Open-loop arrivals (StreamSpec::arrivals): a stream with an active
// ArrivalSpec (src/sim/arrivals.h) admits its frames at the process's
// generated instants — Poisson, bursty, trace-replayed, or rate-profiled —
// instead of the closed-loop f * frame_interval_s schedule. Frame latency is measured from the REALIZED admission instant;
// steady_interval_s is NaN for open-loop streams (the estimator assumes
// periodic admission, see SimResult). When no process is set, frame f is
// admitted at exactly f * frame_interval_s.
//
// Continuous-batching dispatch + admission control (AdmissionControl):
// the dispatch set is re-formed at every task completion from the
// currently-queued requests — eligible work is re-ranked against what is
// queued NOW (admission-order FIFO, priority preemption under kPriority),
// shed frames are evicted, and with shed_expired a queued frame whose
// deadline has already passed is evicted at dispatch-set re-formation
// instead of burning chiplet time on a guaranteed miss. A bounded queue
// (queue_capacity) applies one of three load-shedding policies when a
// frame arrives to a full per-tenant queue: reject the arrival, evict the
// newest queued frame, or evict the oldest (head drop — the right policy
// for perception, where the freshest camera frame matters most). Shed
// frames carry NaN completion/latency and count in shed_frames, never in
// deadline_miss_frames; conservation is frames == completed + dropped +
// shed, per tenant (fuzz-enforced). Queue delay (admission -> first
// dispatch) is attributed per tenant in TenantResult.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/schedule.h"
#include "sim/arrivals.h"
#include "sim/nop_sim.h"

namespace cnpu {

enum class NopMode {
  kAnalytical,  // fixed per-edge delays, infinitely-parallel fabric
  kContended,   // FIFO link arbitration on the XY route of every edge
  kOff,         // every NoP transfer is free and no route is resolved
};

// A runtime chiplet failure. Inactive (chiplet_id < 0) by default, in which
// case no chiplet fails, no program is remapped and no frame is dropped.
struct FaultPlan {
  int chiplet_id = -1;     // chiplet (package id) that dies; < 0 = no fault
  double fail_time_s = 0.0;
  // Time the chiplet (and its router) comes back; < 0 = never recovers.
  // Must be >= fail_time_s when non-negative.
  double recover_time_s = -1.0;
  // Fault detection + pipeline flush + schedule reconfiguration stall: no
  // chiplet dispatches work for this long after the fault fires.
  double reschedule_penalty_s = 0.0;

  bool active() const { return chiplet_id >= 0; }
};

// How the serving layer maps tenants onto chiplets, and how the event loop
// breaks dispatch ties between them (see src/sim/serving.h for placement):
//  * kShared      — every tenant may run anywhere; tenants interleave over
//                   all chiplets and contend freely.
//  * kPartitioned — each tenant is confined to a static chiplet set
//                   (partition_tenant_pools); spatial isolation.
//  * kPriority    — shared placement, but a higher-priority tenant's ready
//                   work dispatches before lower-priority work regardless
//                   of admission order.
// Inside the event loop kShared and kPartitioned behave identically (the
// placement difference lives in the schedules); only kPriority changes the
// dispatch comparator.
enum class PlacementPolicy {
  kShared,
  kPartitioned,
  kPriority,
};

// What happens when a frame arrives to a full per-tenant queue (see
// AdmissionControl). "Queued" means admitted but not yet dispatched: once
// any of a frame's shards starts executing, the frame can no longer be
// shed by a bounded-queue eviction.
enum class ShedPolicy {
  kNone,        // unbounded queue, nothing is ever shed
  kRejectNew,   // the arriving frame is refused (tail drop)
  kDropNewest,  // the newest queued frame is evicted to admit the arrival
  kDropOldest,  // the oldest queued frame is evicted (head drop: keep the
                // freshest data — the perception-serving default)
};

// Per-tenant admission control for the continuous-batching dispatcher.
// Inactive by default: with neither knob set no frame is ever shed.
struct AdmissionControl {
  // Maximum queued (admitted, not yet started) frames; <= 0 = unbounded.
  // A ShedPolicy other than kNone requires a positive capacity.
  int queue_capacity = 0;
  ShedPolicy policy = ShedPolicy::kNone;
  // Evict a queued frame whose deadline has already expired when the
  // dispatch set is re-formed (it could only complete late — shedding it
  // frees the machine for frames that can still meet their deadline).
  // Inert when the stream has no deadline.
  bool shed_expired = false;

  bool active() const {
    return (policy != ShedPolicy::kNone && queue_capacity > 0) ||
           shed_expired;
  }
};

// The description of one frame stream, declared once: the implicit stream
// of SimOptions, every TenantStream and every TenantWorkload
// (src/sim/serving.h) carry it.
struct StreamSpec {
  int frames = 8;
  // Seconds between camera frame admissions. 0 admits every frame at t=0
  // (a back-to-back burst that measures the pipeline's sustained rate);
  // > 0 models a periodic sensor, e.g. 1/30 for a 30 FPS camera.
  double frame_interval_s = 0.0;
  // Per-frame latency deadline; 0 disables deadline accounting. Completed
  // frames over the deadline count as deadline_miss_frames; at a fault
  // flush, frames that can no longer meet it are dropped outright.
  double deadline_s = 0.0;
  // Open-loop admission: when active, the stream's frames are admitted at
  // the process's generated instants and frame_interval_s is ignored.
  ArrivalSpec arrivals;
  // Bounded-queue load shedding (inactive by default).
  AdmissionControl admission;
};

// One tenant's frame stream in a multi-tenant run.
struct TenantStream : StreamSpec {
  std::string name = "tenant";
  // Placement of this tenant's pipeline on the SHARED package; must outlive
  // the simulate_schedule call and reference the same PackageConfig as the
  // top-level schedule argument. nullptr uses the top-level schedule (N
  // identical tenants differing only in rate/priority).
  const Schedule* schedule = nullptr;
  // Dispatch priority under PlacementPolicy::kPriority (higher wins); inert
  // under the other policies.
  int priority = 0;
  // Chiplet ids a fault remap may re-home this tenant's work onto (empty =
  // any survivor). The partitioned placement policy sets this to the
  // tenant's static pool so a mid-stream fault cannot leak work across the
  // partition (falls back to all survivors only when the whole pool died).
  std::vector<int> allowed_chiplets;
};

// The inherited StreamSpec is the implicit single stream (tenants empty).
struct SimOptions : StreamSpec {
  NopMode nop_mode = NopMode::kAnalytical;
  FaultPlan fault;
  // Dispatch tie-break policy between tenants; inert with a single stream.
  PlacementPolicy policy = PlacementPolicy::kShared;
  // Multi-tenant serving: when non-empty, these streams are admitted
  // concurrently and the inherited StreamSpec is ignored (each stream
  // carries its own). Empty = one implicit stream described by the
  // inherited StreamSpec (see resolve_streams).
  std::vector<TenantStream> tenants;
};

// One frame stream of a run, resolved from SimOptions: an explicit
// TenantStream, or the implicit stream of the top-level fields. The
// pointers refer into the SimOptions (or to static defaults), so a view
// costs no string or vector copy and lives as long as the options do.
struct StreamView {
  const Schedule* schedule = nullptr;
  const std::string* name = nullptr;
  int frames = 1;                 // clamped to >= 1
  double frame_interval_s = 0.0;  // clamped to >= 0
  double deadline_s = 0.0;
  int priority = 0;
  const std::vector<int>* allowed_chiplets = nullptr;
  const ArrivalSpec* arrivals = nullptr;
  const AdmissionControl* admission = nullptr;
};

// The one reading of what SimOptions' streams mean, shared by SimEngine,
// analysis::validate and analysis::compute_bounds. Clears `out`, then
// appends one view per TenantStream in order (a null TenantStream::schedule
// resolves to `schedule`) or, when `tenants` is empty, the implicit stream
// "stream" over `schedule` with no allowed-chiplet restriction and the
// options' own StreamSpec.
// Checks nothing: a tenant on another package or with an empty schedule
// is resolved as given. Allocation-free once `out` has the capacity.
void resolve_streams(const Schedule& schedule, const SimOptions& options,
                     std::vector<StreamView>& out);

// Receives each failed check_run check: its rule ID (analysis/rules.h),
// the index into `streams` of the stream it concerns (-1 for the
// schedule, the fault plan and the NoP parameters), and a message.
using RunCheckFail = std::function<void(const char* rule_id, int stream,
                                         const std::string& what)>;

// The engine's cheap input checks, one implementation each: SimEngine runs
// them before it builds a program and throws std::invalid_argument on the
// first failure; analysis::validate records every failure, then adds the
// deep checks. In order: S001 (empty top-level schedule); per stream, T003
// (another package) or, for a TenantStream, S001 (empty) — either skips
// the stream's last check — then A002 (a ShedPolicy without a positive
// queue_capacity); for an active fault plan, F002 (fails before t = 0,
// recovers before it fails) and F001 (names a chiplet the package lacks);
// unless nop_mode is NopMode::kOff, R003 (bandwidth not > 0 or hop latency
// not >= 0). `streams` is resolve_streams(schedule, options).
void check_run(const Schedule& schedule, const SimOptions& options,
               const std::vector<StreamView>& streams,
               const RunCheckFail& fail);

// Per-tenant slice of a multi-tenant run (also filled, with one entry, for
// single-stream runs). Aggregates cover the tenant's completed frames;
// dropped and shed frames carry NaN and are filtered out before ranking
// (see docs/METRICS.md).
// Conservation: frames == frames_completed + dropped_frames + shed_frames.
struct TenantResult {
  std::string name;
  int frames = 0;  // offered (generated arrivals / configured stream length)
  int frames_completed = 0;
  int dropped_frames = 0;  // fault-flush deadline drops
  // Frames evicted by admission control: bounded-queue shedding or
  // expired-deadline eviction at dispatch. Never counted as deadline
  // misses (they did not complete).
  int shed_frames = 0;
  int deadline_miss_frames = 0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double mean_latency_s = 0.0;
  double peak_latency_s = 0.0;
  // Mean inter-completion time over the second half of this tenant's
  // completed frames (same degradation rules as SimResult). NaN when this
  // tenant admits through an arrival process: the estimator assumes
  // periodic admission, and under open-loop arrivals it would silently
  // conflate queueing with the service interval (see docs/METRICS.md).
  double steady_interval_s = 0.0;
  // Queue-delay attribution: time from admission to the dispatch of the
  // frame's FIRST shard — the latency injected by waiting behind other
  // queued work, before any execution or NoP transfer of this frame's own.
  // Mean and peak over the frames that began execution; NaN when none did.
  double mean_queue_delay_s = 0.0;
  double peak_queue_delay_s = 0.0;
  // Critical-path FIFO link-queueing wait this tenant suffered (kContended
  // only): the per-edge wait actually added to arrival times — the max
  // across an edge's parallel shard messages, summed over the tenant's
  // edges. This is the latency the shared fabric (the other tenants plus
  // self-interference) injected into the stream; it deliberately
  // undercounts LinkStats::total_queue_wait_s, which sums EVERY message's
  // wait including ones off the critical path.
  double nop_wait_s = 0.0;
  // One per offered frame; NaN for frames dropped at a fault flush or
  // shed by admission control.
  std::vector<double> frame_completion_s;
  std::vector<double> frame_latency_s;
};

struct SimResult {
  // Latency of frame 0 specifically (a per-frame value, not an aggregate):
  // NaN when a fault flush dropped frame 0 itself.
  double first_frame_latency_s = 0.0;
  // Mean inter-completion time over the second half of the stream. Only
  // meaningful with frames >= 4: shorter streams have no steady half, so
  // the fill latency folds in and this degrades to makespan / frames.
  // Under a fault, measured over the completed (non-dropped) frames'
  // sorted completion times. NaN when any stream admits through an
  // arrival process: the estimator assumes periodic admission (see
  // TenantResult::steady_interval_s).
  double steady_interval_s = 0.0;
  double makespan_s = 0.0;
  // One per frame; NaN for frames dropped at a fault flush or shed by
  // admission control.
  std::vector<double> frame_completion_s;
  // Per-frame admission-to-completion latency (completion minus the
  // REALIZED admission instant: frame_interval_s * frame closed-loop, the
  // generated arrival instant open-loop), and its percentiles over the
  // completed frames of the stream. Dropped/shed frames are NaN and
  // excluded.
  std::vector<double> frame_latency_s;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  std::vector<double> chiplet_busy_s;  // indexed as package order
  // Per-directed-link occupancy (kContended only; empty otherwise),
  // utilization normalized by the makespan. One entry per link any of the
  // run's programs routes over (fault runs include the degraded programs'
  // links), strictly increasing by NopLink.
  std::vector<LinkStats> link_stats;
  // Tasks dispatched, including work later revoked by a fault flush.
  int tasks_executed = 0;

  // --- fault / deadline accounting ---
  int frames_completed = 0;
  // Frames abandoned at the fault flush because their deadline had already
  // expired (deadline_s > 0 only).
  int dropped_frames = 0;
  // Frames evicted by admission control, summed over tenants (bounded
  // queue or expired-deadline eviction; see AdmissionControl).
  int shed_frames = 0;
  // Completed frames whose latency exceeded deadline_s (0 when disabled).
  int deadline_miss_frames = 0;
  // Worst completed-frame latency: the fault's latency spike.
  double peak_latency_s = 0.0;
  // Time from fail_time_s until the completion of the last frame whose
  // latency exceeded 1.1x the pre-fault baseline (min completed latency
  // before the fault; falls back to the stream minimum). 0 when no fault
  // fired or no frame's latency was elevated.
  double recovery_time_s = 0.0;
  // Placements changed by the online remap (0 without a fault; summed over
  // tenants in a multi-tenant run).
  int remapped_items = 0;

  // --- weight-residency / reload accounting ---
  // Both are 0 unless the package's memory model is active
  // (PackageConfig::memory_model_active(); arch/chiplet.h MemorySpec) AND a
  // fault fired: the sim then charges DRAM->chiplet weight-reload transfers
  // whenever a shard's home chiplet changes — at the fault, every
  // destination in RemapStats::reloads (summed over tenants) refills its
  // newly-resident weights over the NoP ingress route (contended mode
  // queues the transfer on real links; analytical mode prices the route
  // hop-by-hop) plus bytes / reload_bandwidth_bytes_per_s, and at recovery
  // the revived chiplet's cold SRAM re-fills each tenant's primary-resident
  // weights the same way. reload_bytes totals the bytes charged;
  // reload_time_s sums the per-transfer delays (the cold-start stall added
  // to the destination chiplets' availability).
  double reload_bytes = 0.0;
  double reload_time_s = 0.0;

  // --- multi-tenant serving ---
  // One entry per stream (a single entry for single-stream runs). In a
  // multi-tenant run the package-level vectors above concatenate the
  // tenants' frames in tenant-major order and the scalar aggregates cover
  // all completed frames of all tenants.
  std::vector<TenantResult> tenants;
};

// Lifetime counters of one SimEngine — how much work engine reuse is
// actually skipping (surfaced by bench_simspeed and asserted in
// tests/test_sim_engine.cc).
struct EngineStats {
  long long runs = 0;
  // Programs compiled (primary + degraded): layer costing, dependency
  // graph, route resolution. The dominant per-run setup cost the cache
  // exists to amortize.
  long long program_builds = 0;
  long long program_cache_hits = 0;  // primary or degraded reused as-is
  // Runs that reused the previous dispatch-rank order outright (the
  // adjacency re-check proved it is THE stable sort of the current run's
  // admission instants, so no sort — and no sort scratch allocation — was
  // needed).
  long long warm_starts = 0;

  // Event-loop counters (docs/METRICS.md), summed over runs. They only
  // count: no result depends on them.
  long long tasks_executed = 0;  // SimResult::tasks_executed, summed
  // Event-heap pushes by event kind. Admissions and dispatches at the
  // instant being processed never enter the heap.
  struct EventPushes {
    long long finish = 0;
    long long dispatch = 0;
    long long fault = 0;
    long long recover = 0;
    long long total() const { return finish + dispatch + fault + recover; }
  } pushes;
  // Dispatch wake-ups that found the chiplet still running a task, and
  // ones that found it free but no shard ready to start.
  long long busy_dispatches = 0;
  long long idle_dispatches = 0;
  // Finish events of tasks a fault flush revoked after their dispatch.
  long long stale_finishes = 0;
  // Most events the heap held at once, over all runs.
  long long event_heap_peak = 0;
};

// Reusable simulation engine: simulate_schedule with all per-run state —
// pending/ready heaps, dependency/ready-time/shard slot arrays, event
// queue backing storage, tenant contexts, reduction scratch — held as flat
// buffers that are reset between runs instead of reallocated, plus a cache
// of compiled Programs (keyed by schedule identity × NoP mode, including
// fault-remapped degraded variants keyed by failed chiplet × allowed
// pool). Results are bitwise-identical to simulate_schedule: same event
// order, same float operation order, and link_stats sorted by link
// whatever the engine simulated before (fuzz-pinned in
// tests/test_fuzz_properties.cc). After a warm-up run on a workload shape,
// subsequent run_into() calls of that shape perform zero heap allocations
// (asserted in tests/test_sim_engine.cc), which is what makes
// million-point DSE sweeps routine (see bench_simspeed).
//
// Contract for cached state: the cache keys Schedule/PackageConfig objects
// by ADDRESS. Every schedule passed to run()/run_into() must stay alive
// and unmodified for the engine's lifetime (or until reset()); rebuilding
// a schedule in place at the same address without reset() serves stale
// programs. reset() drops every cache and restores the engine to its
// freshly-constructed state. Engines are single-threaded; use one engine
// per worker (see SweepRunner's per-slot engines).
class SimEngine {
 public:
  SimEngine();
  ~SimEngine();
  SimEngine(SimEngine&&) noexcept;
  SimEngine& operator=(SimEngine&&) noexcept;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // One simulation run; identical semantics and exceptions to
  // simulate_schedule below.
  SimResult run(const Schedule& schedule, const SimOptions& options = {});
  // Allocation-free variant: reduces into `out`, reusing its vectors'
  // capacity (the SimResult returned by an earlier run of the same shape
  // is the natural `out`). Every field of `out` is overwritten.
  void run_into(const Schedule& schedule, const SimOptions& options,
                SimResult& out);
  // Forgets every cached program/package/route and all per-run state —
  // the engine behaves as freshly constructed (stats included). Call when
  // a previously-simulated Schedule is about to be destroyed or mutated.
  void reset();
  const EngineStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Throws std::invalid_argument on a 0-item schedule (top-level or any
// tenant's), a TenantStream whose schedule references a different
// PackageConfig than `schedule`, a FaultPlan naming a chiplet not in the
// package (or with no survivor to remap onto), a negative fail time,
// recover_time_s in [0, fail_time_s), an invalid ArrivalSpec (see
// generate_arrivals), a ShedPolicy other than kNone with a
// non-positive queue_capacity, or — unless nop_mode is NopMode::kOff — NoP
// parameters with a non-positive (or NaN) link bandwidth or a negative (or
// NaN) hop latency; throws std::logic_error when any item is unassigned
// (matching evaluate_schedule). A fault on the chiplet whose router hosts
// the I/O port propagates the routing layer's std::runtime_error — ingress
// has no route around that position.
//
// One-shot convenience wrapper over SimEngine: constructs a fresh engine,
// runs once, discards it. Callers running many points should hold a
// SimEngine instead.
SimResult simulate_schedule(const Schedule& schedule,
                            const SimOptions& options = {});

}  // namespace cnpu
