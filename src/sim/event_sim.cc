#include "sim/event_sim.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "analysis/rules.h"
#include "analysis/validate.h"
#include "core/evaluator.h"
#include "core/remap.h"
#include "core/residency.h"
#include "sim/min_heap.h"
#include "util/stats.h"
#include "util/strings.h"

namespace cnpu {
// Engine internals. A named namespace (not anonymous) because these types
// are the fields of SimEngine::Impl, whose class has external linkage —
// internal-linkage members there would be a -Wsubobject-linkage violation.
namespace evsim {

constexpr double kTimeEps = 1e-15;
// A frame counts as recovered once its latency is back inside this band
// over the pre-fault baseline (see SimResult::recovery_time_s).
constexpr double kRecoveryLatencyBand = 1.1;

struct ShardTask {
  int chiplet = -1;  // dense package-order index
  double service_s = 0.0;
};

// A contended-mode message: its bytes and its route, the dense link indices
// Program::links[link_begin, link_end) in traversal order.
struct Message {
  int link_begin = 0;
  int link_end = 0;
  double bytes = 0.0;
};

// Completion fan-out: one edge from a finished producer to `consumer`.
struct Edge {
  int consumer = 0;
  // Contended mode: one message per producer shard whose route is not
  // empty, Program::msgs[msg_begin, msg_end) in shard order.
  int msg_begin = 0;
  int msg_end = 0;
  // Analytical (fraction-weighted mean hop) edge delay via nop_gather_cost —
  // the same formula evaluate_schedule prices, so the modes cross-validate.
  double delay_s = 0.0;
};

struct Ingress {
  int item = 0;
  int msg = -1;  // contended mode: the camera tensor's message, else -1
  double delay_s = 0.0;
};

// Static (frame-independent) view of one schedule, as flat arrays with
// offset ranges. Compiled once per (schedule, NoP mode) and cached by the
// engine across runs; a run holds up to two per tenant: the primary program
// and, under a FaultPlan, the remapped degraded program swapped in per frame
// while the chiplet is down.
struct Program {
  // Item i's shards are shards[shard_begin[i], shard_begin[i + 1]).
  std::vector<int> shard_begin;
  std::vector<ShardTask> shards;
  // Producer i's out-edges are outs[out_begin[i], out_begin[i + 1]), in
  // wiring order (for_each_schedule_edge), which is by consumer.
  std::vector<int> out_begin;
  std::vector<Edge> outs;
  std::vector<Message> msgs;
  std::vector<int> links;        // every message's route, back to back
  std::vector<Ingress> ingress;  // stage-0 camera edges, model order
  std::vector<int> base_deps;    // producer edges + ingress, per item
  int num_chiplets = 0;

  std::span<const Edge> outs_of(int item) const {
    const std::size_t i = static_cast<std::size_t>(item);
    return {outs.data() + out_begin[i],
            static_cast<std::size_t>(out_begin[i + 1] - out_begin[i])};
  }
  std::span<const int> route(int msg) const {
    const Message& m = msgs[static_cast<std::size_t>(msg)];
    return {links.data() + m.link_begin,
            static_cast<std::size_t>(m.link_end - m.link_begin)};
  }
};

// build_program's reused buffers. A program is assembled in `prog` and then
// copied out at its exact size, so once the buffers have grown, a build
// allocates once per non-empty array whatever the schedule's size.
struct ProgramBuilder {
  // One (source, destination) pair's route in the build numbered `build`:
  // Program::links[begin, end).
  struct Route {
    int begin = 0;
    int end = 0;
    std::uint64_t build = 0;
  };

  Program prog;
  std::vector<Edge> wired;     // every edge, wiring order
  std::vector<int> producer;   // wired[e]'s producer
  std::vector<int> cursor;     // per-producer fill position in outs
  std::vector<NopLink> route;  // the route walk's buffer
  std::vector<int> links;      // a canonical link list being assembled
  // Contended builds' route memo, source-major over dense chiplets, with
  // the I/O port as source num_chiplets; an entry is valid only in the
  // pass that stamped it, so no build clears it.
  std::vector<Route> routes;
  std::uint64_t build = 0;  // the current pass's stamp, two per build
};

// Compiles `sched` into `b.prog`. `dense_pkg` defines the dense chiplet
// index space (always the ORIGINAL package, so the primary and degraded
// programs share calendars); routes and costs come from the schedule's own
// package, which for the degraded program detours around the failed router.
// Routes are resolved (and their links registered) only when contended.
void build_program(const Schedule& sched, NopMode mode, NopFabric& fabric,
                   const PackageConfig& dense_pkg, ProgramBuilder& b) {
  const PackageConfig& pkg = sched.package();
  const bool nop = mode != NopMode::kOff;
  const bool contended = mode == NopMode::kContended;
  // The schedule's package is `dense_pkg` or a without_chiplet copy of it,
  // so every placement that passes here has a dense index.
  for_each_unplaced(sched, [&](int item, const ShardAssignment* shard) {
    if (shard != nullptr) throw std::out_of_range("chiplet id not in package");
    throw std::logic_error("unassigned layer: " + sched.item(item).desc->name);
  });

  const std::size_t n = static_cast<std::size_t>(sched.num_items());
  Program& prog = b.prog;
  prog.num_chiplets = dense_pkg.num_chiplets();
  prog.shard_begin.assign(1, 0);
  prog.shards.clear();
  for (int i = 0; i < sched.num_items(); ++i) {
    for (const auto& sh : sched.placement(i).shards) {
      prog.shards.push_back(
          ShardTask{dense_pkg.position_of(sh.chiplet_id), sh.cost.latency_s});
    }
    prog.shard_begin.push_back(static_cast<int>(prog.shards.size()));
  }

  prog.msgs.clear();
  prog.links.clear();
  prog.ingress.clear();
  b.wired.clear();
  b.producer.clear();
  const std::size_t nc = static_cast<std::size_t>(prog.num_chiplets);
  // The memo entry of the route from chiplet `src_id` (-1: the I/O port)
  // to `dst_id`.
  const auto route_of = [&](int src_id, int dst_id) -> ProgramBuilder::Route& {
    const std::size_t src =
        src_id < 0 ? nc
                   : static_cast<std::size_t>(dense_pkg.position_of(src_id));
    const std::size_t dst =
        static_cast<std::size_t>(dense_pkg.position_of(dst_id));
    return b.routes[src * nc + dst];
  };
  if (contended) {
    if (b.routes.size() < (nc + 1) * nc) b.routes.resize((nc + 1) * nc);
    fabric.reserve_for(dense_pkg);
    // Size the messages and their links before the walk, so that each
    // buffer grows at most once per build: one message per non-empty
    // route, one route (its hop count in links) per (source, destination)
    // pair.
    std::size_t num_msgs = 0;
    std::size_t num_links = 0;
    std::size_t max_hops = 0;
    ++b.build;
    const auto count = [&](int src_id, int dst_id) {
      if (src_id == dst_id) return;  // an empty route: no message
      ++num_msgs;
      ProgramBuilder::Route& r = route_of(src_id, dst_id);
      if (r.build == b.build) return;
      r.build = b.build;
      const std::size_t hops = static_cast<std::size_t>(
          src_id < 0 ? pkg.hops_from_io(dst_id)
                     : pkg.hops_between(src_id, dst_id));
      num_links += hops;
      max_hops = std::max(max_hops, hops);
    };
    for_each_schedule_edge(
        sched,
        [&](int item) { count(-1, sched.placement(item).primary_chiplet()); },
        [&](int producer, int consumer, double) {
          const int dst = sched.placement(consumer).primary_chiplet();
          for (const auto& sh : sched.placement(producer).shards) {
            count(sh.chiplet_id, dst);
          }
        });
    prog.msgs.reserve(num_msgs);
    prog.links.reserve(num_links);
    b.route.reserve(max_hops);
    ++b.build;
  }
  // A message of `bytes` from chiplet `src_id` (-1: the I/O port) to
  // `dst_id`; -1 when the route is empty. A pair's route is walked and its
  // links resolved at its first message, in walk order, so links register
  // in first-seen order; later messages of the pair reuse its range.
  const auto add_message = [&](int src_id, int dst_id, double bytes) {
    ProgramBuilder::Route& r = route_of(src_id, dst_id);
    if (r.build != b.build) {
      if (src_id < 0) {
        pkg.route_from_io(dst_id, b.route);
      } else {
        pkg.route_between(src_id, dst_id, b.route);
      }
      r.begin = static_cast<int>(prog.links.size());
      fabric.resolve(b.route, prog.links);
      r.end = static_cast<int>(prog.links.size());
      r.build = b.build;
    }
    if (r.begin == r.end) return -1;
    prog.msgs.push_back(Message{r.begin, r.end, bytes});
    return static_cast<int>(prog.msgs.size()) - 1;
  };
  for_each_schedule_edge(
      sched,
      [&](int item) {
        // Camera ingress (the edge evaluate_schedule prices as
        // nop_transfer(kCameraInputBytes, hops_from_io)).
        const int dst = sched.placement(item).primary_chiplet();
        Ingress in;
        in.item = item;
        in.delay_s = nop ? nop_ingress_cost(pkg, dst).latency_s : 0.0;
        if (contended) in.msg = add_message(-1, dst, kCameraInputBytes);
        prog.ingress.push_back(in);
      },
      [&](int producer, int consumer, double bytes) {
        const Placement& from = sched.placement(producer);
        const Placement& to = sched.placement(consumer);
        Edge e;
        e.consumer = consumer;
        e.delay_s = nop ? nop_gather_cost(pkg, from, to, bytes).latency_s : 0.0;
        e.msg_begin = static_cast<int>(prog.msgs.size());
        if (contended) {
          for (const auto& sh : from.shards) {
            add_message(sh.chiplet_id, to.primary_chiplet(),
                        sh.fraction * bytes);
          }
        }
        e.msg_end = static_cast<int>(prog.msgs.size());
        b.wired.push_back(e);
        b.producer.push_back(producer);
      });

  // Group the edges by producer, a stable counting sort. The walk wires
  // each producer's edges in increasing consumer order, so every producer's
  // fan-out stays by consumer, then wiring order.
  prog.out_begin.assign(n + 1, 0);
  for (const int p : b.producer) {
    ++prog.out_begin[static_cast<std::size_t>(p) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    prog.out_begin[i + 1] += prog.out_begin[i];
  }
  b.cursor.assign(prog.out_begin.begin(), prog.out_begin.end() - 1);
  prog.outs.resize(b.wired.size());
  for (std::size_t e = 0; e < b.wired.size(); ++e) {
    const std::size_t p = static_cast<std::size_t>(b.producer[e]);
    prog.outs[static_cast<std::size_t>(b.cursor[p]++)] = b.wired[e];
  }
  prog.base_deps.assign(n, 0);
  for (const Edge& e : b.wired) {
    ++prog.base_deps[static_cast<std::size_t>(e.consumer)];
  }
  for (const Ingress& in : prog.ingress) {
    ++prog.base_deps[static_cast<std::size_t>(in.item)];
  }
}

// Drops repeated dense link indices, then sorts the rest by the link each
// names: the order SimResult::link_stats reports in. `seen` is a per-link
// mark, all zero on entry and on return; once it covers the registry,
// nothing here allocates. Each cached program's list is canonicalized once
// at build; a run canonicalizes again only when it unions several
// programs' lists.
void canonicalize_links(std::vector<int>& links, const NopFabric& fabric,
                        std::vector<unsigned char>& seen) {
  if (seen.size() < fabric.size()) seen.resize(fabric.size());
  std::size_t kept = 0;
  for (const int l : links) {
    unsigned char& mark = seen[static_cast<std::size_t>(l)];
    if (mark == 0) {
      mark = 1;
      links[kept++] = l;
    }
  }
  links.resize(kept);
  for (const int l : links) seen[static_cast<std::size_t>(l)] = 0;
  std::sort(links.begin(), links.end(), [&](int a, int b) {
    return fabric.link(a) < fabric.link(b);
  });
}

// Event kinds, in tie-break order at equal timestamps: frame admissions
// first (so ingress messages claim links before same-instant completions),
// then shard finishes (so freed dependents are visible), then dispatches
// in chiplet order, then the fault flush (so same-instant work lands before
// the machine is flushed, keeping the boundary well-defined), then
// recovery. Only finishes, future dispatch wake-ups, the fault and the
// recovery live in the event heap; run_into merges admissions and the
// current instant's dispatches into this order (see there).
enum EvKind : int {
  kAdmit = 0,
  kFinish = 1,
  kDispatch = 2,
  kFault = 3,
  kRecover = 4,
};

// An event: its instant, its order key and its payload. The key holds the
// kind in its top bits, then, for a finish, the (job, item) slot
// (Job::slot + item) and the frame epoch at dispatch (the stale-event
// filter); for a dispatch, its chiplet. Slots are laid out tenant-major,
// then frame, then item, so slot order is (job, item) order, and a run has
// at most one fault, so an epoch is 0 or 1 and fits its bit. The key thus
// orders events by (kind, job, item, epoch), and dispatches by chiplet.
struct Ev {
  double time;
  std::uint64_t key;
  int job;      // admit, finish: the job
  int chiplet;  // finish, dispatch: dense chiplet

  static constexpr int kKindShift = 61;
  static std::uint64_t key_of(EvKind kind, std::uint64_t rest) {
    return static_cast<std::uint64_t>(kind) << kKindShift | rest;
  }
  static std::uint64_t finish_key(std::size_t slot, int epoch) {
    return key_of(kFinish, static_cast<std::uint64_t>(slot) << 1 |
                               static_cast<std::uint64_t>(epoch));
  }
  EvKind kind() const { return static_cast<EvKind>(key >> kKindShift); }
  // Finish: the slot and the epoch bit.
  std::size_t slot() const {
    return static_cast<std::size_t>(
        (key & ((std::uint64_t{1} << kKindShift) - 1)) >> 1);
  }
  int epoch() const { return static_cast<int>(key & 1); }
};
static_assert(sizeof(Ev) == 24);

// (time, key) order, as one packed integer (see pack_time_key). Two
// finishes that tie on (time, slot, epoch) are two shards of one item that
// end at one instant on different chiplets; they pop in either order with
// the same result: each only marks its chiplet due (the due set is read by
// chiplet) and counts the item's shards down, and whichever pops last
// releases the item's consumers at the same instant.
struct EvAfter {
  bool operator()(const Ev& x, const Ev& y) const {
    return pack_time_key(x.time, x.key) > pack_time_key(y.time, y.key);
  }
};

// Dispatch order key of a queued shard: its job's rank (see PendingShard)
// in the high word, then its index in the program's shard array, which
// lists shards by item, then placement order; so the key orders by (rank,
// item, shard).
inline std::uint64_t shard_key(int rank, int shard_index) {
  return static_cast<std::uint64_t>(rank) << 32 |
         static_cast<std::uint32_t>(shard_index);
}

// A shard waiting for its ready time on a chiplet's calendar. Its key
// leads with the owning job's dispatch rank — equal to its frame index for
// a single closed-loop stream (FIFO by frame), and the policy-resolved
// admission order across tenants otherwise. Ranks are a bijection over
// jobs, so the rank alone identifies the job in comparators.
struct PendingShard {
  double ready;
  std::uint64_t key;  // shard_key
  int job;
  int item;
};

struct PendingAfter {
  bool operator()(const PendingShard& a, const PendingShard& b) const {
    return pack_time_key(a.ready, a.key) > pack_time_key(b.ready, b.key);
  }
};

// A shard eligible to start now; dispatch priority is FIFO by job rank,
// then program order — the same policy the former O(queue) linear scan
// encoded, generalized from "frame" to "rank".
struct ReadyShard {
  std::uint64_t key;  // shard_key
  int job;
  int item;
  // The shard's index in its job's program.
  std::size_t index() const {
    return static_cast<std::size_t>(key & 0xffffffffu);
  }
};

struct ReadyAfter {
  bool operator()(const ReadyShard& a, const ReadyShard& b) const {
    return a.key > b.key;
  }
};

// Dispatch wake-ups at the current instant: a grow-only bitset over dense
// chiplets, read lowest-first. `first_` is the lowest word holding a bit,
// or `end_` when the set is empty; a chiplet that joins below it moves it
// back (a zero-service task's finish can wake a chiplet below the one
// dispatching).
class DueSet {
 public:
  // Empties the set and sizes it for `chiplets` dense chiplets.
  void reset(int chiplets) {
    end_ = (static_cast<std::size_t>(chiplets) + 63) / 64;
    if (words_.size() < end_) words_.resize(end_);
    std::fill_n(words_.begin(), end_, std::uint64_t{0});
    first_ = end_;
  }
  bool empty() const { return first_ == end_; }
  void insert(int c) {
    const std::size_t w = static_cast<std::size_t>(c) / 64;
    words_[w] |= std::uint64_t{1} << (c % 64);
    if (w < first_) first_ = w;
  }
  // The lowest due chiplet; the set must not be empty.
  int top() const {
    return static_cast<int>(first_ * 64) + std::countr_zero(words_[first_]);
  }
  void pop() {
    words_[first_] &= words_[first_] - 1;
    while (first_ < end_ && words_[first_] == 0) ++first_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t first_ = 0;
  std::size_t end_ = 0;
};

// Recovery metric (see SimResult::recovery_time_s), per latency/completion
// slice: baseline = best completed latency observed before the fault
// (slice minimum when nothing completed pre-fault); the spike ends when
// the last elevated frame completes. Dropped frames carry NaN and are
// skipped. `finished` is engine-owned scratch (cleared here).
double recovery_after_fault(const std::vector<double>& latency,
                            const std::vector<double>& completion,
                            double fail_time_s,
                            std::vector<double>& finished) {
  double baseline = std::numeric_limits<double>::infinity();
  finished.clear();
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (std::isnan(completion[i])) continue;
    finished.push_back(latency[i]);
    if (completion[i] <= fail_time_s) {
      baseline = std::min(baseline, latency[i]);
    }
  }
  if (!std::isfinite(baseline)) baseline = min_of(finished);
  double last_elevated = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (std::isnan(completion[i])) continue;
    if (latency[i] > baseline * kRecoveryLatencyBand) {
      last_elevated = std::max(last_elevated, completion[i]);
    }
  }
  const double r = std::max(0.0, last_elevated - fail_time_s);
  return std::isfinite(r) ? r : 0.0;
}

// Tail statistics over one completed-frames slice (NaN = dropped):
// everything the drop-exclusion convention touches — completed count,
// makespan, steady interval, percentiles (filter-then-rank: NaN latencies
// must not poison or UB-sort into the rank), mean, peak — computed in ONE
// place so per-tenant slices and the package aggregates of every run,
// single stream included, cannot diverge.
struct TailStats {
  int completed = 0;
  double makespan_s = 0.0;  // NaN when nothing completed
  double steady_interval_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double mean_s = 0.0;
  double peak_s = 0.0;
};

// `lat_scratch` / `time_scratch` are engine-owned scratch buffers
// (cleared here): one NaN filter, one in-place sort and three rank reads.
// The mean's summation runs over the finished latencies in frame order,
// BEFORE the sort; the percentiles read the sorted, NaN-free latencies.
TailStats reduce_tail(const std::vector<double>& latency,
                      const std::vector<double>& completion,
                      std::vector<double>& lat_scratch,
                      std::vector<double>& time_scratch) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  lat_scratch.clear();
  time_scratch.clear();
  for (std::size_t i = 0; i < completion.size(); ++i) {
    if (std::isnan(completion[i])) continue;
    time_scratch.push_back(completion[i]);
    lat_scratch.push_back(latency[i]);
  }
  std::sort(time_scratch.begin(), time_scratch.end());
  TailStats t;
  const int n = static_cast<int>(time_scratch.size());
  t.completed = n;
  t.makespan_s = n > 0 ? time_scratch.back() : nan;
  if (n >= 4) {
    const int half = n / 2;
    t.steady_interval_s =
        (time_scratch[static_cast<std::size_t>(n - 1)] -
         time_scratch[static_cast<std::size_t>(half - 1)]) /
        static_cast<double>(n - half);
  } else if (n > 0) {
    t.steady_interval_s = t.makespan_s / static_cast<double>(n);
  } else {
    t.steady_interval_s = nan;
  }
  t.mean_s = mean(lat_scratch);
  t.peak_s = max_of(lat_scratch);
  std::sort(lat_scratch.begin(), lat_scratch.end());
  t.p50_s = percentile_sorted(lat_scratch, 50.0);
  t.p95_s = percentile_sorted(lat_scratch, 95.0);
  t.p99_s = percentile_sorted(lat_scratch, 99.0);
  return t;
}

// Reduces one tenant's completion and latency slices (NaN = dropped or
// shed) into `tr` in place, overwriting every field and reusing its
// vectors' capacity. Latency runs from the realized admission instant: an
// open-loop stream's broken periodic assumption is why `open_loop` turns
// the steady-interval estimate into a documented NaN.
void reduce_tenant_into(const StreamView& stream, const double* completion,
                        const double* latency, int shed, bool open_loop,
                        double nop_wait_s, double queue_delay_mean_s,
                        double queue_delay_peak_s,
                        std::vector<double>& lat_scratch,
                        std::vector<double>& time_scratch, TenantResult& tr) {
  tr.name = *stream.name;
  tr.frames = stream.frames;
  tr.deadline_miss_frames = 0;
  tr.nop_wait_s = nop_wait_s;
  tr.shed_frames = shed;
  tr.mean_queue_delay_s = queue_delay_mean_s;
  tr.peak_queue_delay_s = queue_delay_peak_s;
  tr.frame_completion_s.assign(completion, completion + stream.frames);
  tr.frame_latency_s.assign(latency, latency + stream.frames);
  const TailStats tail = reduce_tail(tr.frame_latency_s, tr.frame_completion_s,
                                     lat_scratch, time_scratch);
  tr.frames_completed = tail.completed;
  tr.dropped_frames = stream.frames - tail.completed - shed;
  tr.p50_latency_s = tail.p50_s;
  tr.p95_latency_s = tail.p95_s;
  tr.p99_latency_s = tail.p99_s;
  tr.mean_latency_s = tail.mean_s;
  tr.peak_latency_s = tail.peak_s;
  tr.steady_interval_s =
      open_loop ? std::numeric_limits<double>::quiet_NaN()
                : tail.steady_interval_s;
  if (stream.deadline_s > 0.0) {
    for (const double lat : tr.frame_latency_s) {
      if (!std::isnan(lat) && lat > stream.deadline_s) {
        ++tr.deadline_miss_frames;
      }
    }
  }
}

// One DRAM->chiplet weight-reload transfer: destination chiplet (dense
// package-order index), bytes, the precomputed analytical delay (NoP
// ingress latency plus SRAM fill at the destination's reload bandwidth),
// and the resolved ingress route for contended-mode queueing (empty when
// not contended). Built only when the package's memory model is active.
struct ReloadPlan {
  int dense_chiplet = -1;
  double bytes = 0.0;
  double delay_s = 0.0;
  std::vector<int> route;
};

// One fault-remapped variant of a cached program, keyed by the failed
// chiplet and the allowed-pool restriction the remap honored (the same
// schedule remaps differently under different tenant pools).
struct DegradedEntry {
  int fault_chiplet = -1;     // package id of the chiplet that died
  std::vector<int> allowed;   // pool restriction the remap was built under
  std::optional<Schedule> remapped;
  Program prog;
  RemapStats remap_stats;
  std::vector<int> links;  // links routed over (reloads included), canonical
  // Weight reloads charged when this variant takes over (empty / zero with
  // the memory model inactive). fault_reloads re-home the remapped weights
  // onto the survivors at the fault instant (one aggregated transfer per
  // RemapStats::reloads destination, over the DEGRADED package's detoured
  // ingress routes); recover_reload restores the revived chiplet's
  // primary-resident weights at recovery (original healthy routes).
  std::vector<ReloadPlan> fault_reloads;
  ReloadPlan recover_reload;
};

// Cache value for one (schedule, NoP mode): the compiled primary program
// plus any degraded variants built for faults seen so far. unique_ptr
// entries keep DegradedEntry addresses stable while the vector grows (the
// run's TenantCtx holds raw pointers into them).
struct ProgramEntry {
  Program prog;
  std::vector<int> links;  // links routed over, canonical (contended only)
  std::vector<std::unique_ptr<DegradedEntry>> degraded;
};

// Programs depend on the schedule and on the NoP mode alone.
using ProgramKey = std::pair<const Schedule*, NopMode>;

// Per-tenant world of ONE run: cached primary program, and under a
// FaultPlan the cached remapped schedule + degraded program (each tenant
// remaps independently, restricted to its allowed pool). Plain pointers
// into the engine's caches, so the vector is reused across runs. The
// counters after `slot_base` are the tenant's admission and NoP-wait
// accounting.
struct TenantCtx {
  ProgramEntry* entry = nullptr;
  const Program* primary = nullptr;
  const DegradedEntry* degraded = nullptr;
  // Whether any frame of this tenant actually ran the remapped schedule
  // (a fault firing after the stream drained remaps nothing).
  bool degraded_used = false;
  int items = 0;
  int job_base = 0;           // first global job id of this tenant
  std::size_t slot_base = 0;  // first per-(job, item) slot
  int queued = 0;             // jobs in JobState::kQueued; see Impl::move
  int shed = 0;
  int qd_count = 0;  // frames with an attributed queue delay
  double qd_sum = 0.0;
  double qd_peak = 0.0;
  double nop_wait = 0.0;  // link-queueing wait (TenantResult::nop_wait_s)
};

// Where a job is in its life. waiting -> queued at admission, queued ->
// started at its first dispatch in the current epoch, started -> done. A
// bounded queue or shed_expired moves queued -> shed, and a rejected
// arrival goes waiting -> shed. A fault flush moves every queued or started
// job back to queued (re-admitted on the degraded program) or to dropped.
// Shed jobs' heap entries are evicted lazily: skipped when they surface at
// dispatch (binary heaps cannot remove interior elements, and the shed
// decision is made online).
enum class JobState : unsigned char {
  kWaiting,
  kQueued,
  kStarted,
  kDone,
  kShed,
  kDropped,
};

// One frame of one tenant. Jobs are tenant-major: tenant t's frame f is job
// job_base + f, so a single stream's job ids equal its frame ids.
struct Job {
  const Program* prog = nullptr;  // primary, or degraded once remapped
  double admit = 0.0;             // realized admission instant
  std::size_t slot = 0;           // first per-(job, item) slot
  int tenant = 0;
  int rank = 0;  // dispatch rank (see PendingShard)
  // Bumped when the fault flush re-admits or drops the job: a finish
  // dispatched in an older epoch is stale. A run has at most one fault, so
  // it is 0 or 1.
  int epoch = 0;
  int items_left = 0;
  JobState state = JobState::kWaiting;
  // Queue delay (admission -> first-ever dispatch) attributed; sticky
  // across the fault flush, which queues the job again.
  bool qd_done = false;
};

// One (job, item): when its inputs are all in, how many are still missing,
// and how many of its shards have not finished.
struct Slot {
  double ready_time;
  int deps_left;
  int shards_left;
};

// One chiplet, dense package order: a ready-time min-heap feeding a
// dispatch-priority min-heap, and its dispatch wake-up bookkeeping.
struct Chiplet {
  MinHeap<PendingShard, PendingAfter> pending;
  MinHeap<ReadyShard, ReadyAfter> ready;
  double free = 0.0;  // instant its running task ends
  double busy = 0.0;
  // Instant of its latest dispatch wake-up still in the event heap (-inf
  // when none), so an identical wake-up is not queued twice.
  double wake_at = -std::numeric_limits<double>::infinity();
};

}  // namespace evsim

using namespace evsim;

namespace {
const std::string kImplicitStreamName = "stream";
const std::vector<int> kNoAllowedChiplets;

// `x` where it is >= 0 (-0.0 included), else 0: std::max(x, 0.0) without
// its NaN pass-through, since the instants derived from these values reach
// the event heaps.
double nonnegative_or_zero(double x) { return x >= 0.0 ? x : 0.0; }

StreamView view_of(const Schedule& schedule, const std::string& name,
                   const StreamSpec& spec, int priority,
                   const std::vector<int>& allowed_chiplets) {
  return StreamView{&schedule, &name, std::max(spec.frames, 1),
                    nonnegative_or_zero(spec.frame_interval_s),
                    spec.deadline_s, priority, &allowed_chiplets,
                    &spec.arrivals, &spec.admission};
}
}  // namespace

void resolve_streams(const Schedule& schedule, const SimOptions& options,
                     std::vector<StreamView>& out) {
  out.clear();
  if (options.tenants.empty()) {
    out.push_back(
        view_of(schedule, kImplicitStreamName, options, 0, kNoAllowedChiplets));
    return;
  }
  for (const TenantStream& t : options.tenants) {
    out.push_back(view_of(t.schedule != nullptr ? *t.schedule : schedule,
                          t.name, t, t.priority, t.allowed_chiplets));
  }
}

void check_run(const Schedule& schedule, const SimOptions& options,
               const std::vector<StreamView>& streams,
               const RunCheckFail& fail) {
  const PackageConfig& pkg = schedule.package();
  if (schedule.num_items() == 0) {
    fail(analysis::kRuleSchedEmpty, -1,
         "schedule has no items (empty pipeline)");
  }
  for (std::size_t t = 0; t < streams.size(); ++t) {
    const StreamView& s = streams[t];
    const int index = static_cast<int>(t);
    if (&s.schedule->package() != &pkg) {
      fail(analysis::kRuleTenantForeignPackage, index,
           "tenant \"" + *s.name + "\" is scheduled on a different package");
      continue;
    }
    // The implicit stream runs `schedule` itself, checked above.
    if (!options.tenants.empty() && s.schedule->num_items() == 0) {
      fail(analysis::kRuleSchedEmpty, index,
           "tenant \"" + *s.name + "\" has an empty schedule");
      continue;
    }
    if (s.admission->policy != ShedPolicy::kNone &&
        s.admission->queue_capacity <= 0) {
      fail(analysis::kRuleAdmissionCapacity, index,
           "stream \"" + *s.name +
               "\" sets a ShedPolicy without a positive queue_capacity");
    }
  }
  const FaultPlan& fault = options.fault;
  if (fault.active()) {
    // NaN fails too: the fault event's instant enters the event heap.
    if (!(fault.fail_time_s >= 0.0)) {
      fail(analysis::kRuleFaultOrder, -1, "negative or NaN fail_time_s");
    }
    if (fault.recover_time_s >= 0.0 &&
        fault.recover_time_s < fault.fail_time_s) {
      fail(analysis::kRuleFaultOrder, -1,
           "recover_time_s precedes fail_time_s");
    }
    if (pkg.position_of(fault.chiplet_id) < 0) {
      fail(analysis::kRuleFaultUnknownChiplet, -1,
           "FaultPlan chiplet " + std::to_string(fault.chiplet_id) +
               " is not in the package");
    }
  }
  // Other values give negative, infinite or NaN transfer times; the engine
  // reads these only with the NoP on.
  const NopParams& nop = pkg.nop();
  if (options.nop_mode != NopMode::kOff &&
      !(nop.bandwidth_bytes_per_s > 0.0 && nop.hop_latency_s >= 0.0)) {
    fail(analysis::kRuleNopParams, -1,
         "NoP bandwidth " + format_si(nop.bandwidth_bytes_per_s) +
             "B/s and hop latency " + format_seconds(nop.hop_latency_s) +
             ": bandwidth must be > 0 and hop latency >= 0");
  }
}

// All per-run state as reusable record arrays plus the compiled-program
// caches. Between runs nothing is deallocated: vectors are assign()ed or
// clear()ed (capacity retained), heaps cleared in place, the fabric's
// occupancy zeroed with its link registry kept. After one warm-up run of
// a workload shape, a repeat run performs zero heap allocations.
struct SimEngine::Impl {
  // Caches. Declared before the per-run state so that during destruction
  // the degraded packages outlive the Schedules remapped onto them.
  std::map<std::pair<const PackageConfig*, int>, std::unique_ptr<PackageConfig>>
      degraded_pkgs;  // keyed by (original package, failed chiplet id)
  std::map<ProgramKey, ProgramEntry> programs;
  ProgramBuilder builder;  // build_program's buffers, reused across builds
  NopFabric fabric;  // persistent link registry, per-run occupancy
  EngineStats stats;

  // --- per-run state (reset by every run_into) ---
  std::vector<StreamView> streams;
  std::vector<TenantCtx> ctx;
  std::vector<Job> jobs;
  std::vector<Slot> slots;  // job j's item i is slots[jobs[j].slot + i]
  // Grow-only, so a smaller run never sheds the heap capacity a bigger one
  // built up; a run uses the first num_chiplets.
  std::vector<Chiplet> chiplets;
  // Dispatch order of the previous run, kept across runs: when the current
  // run's admission instants prove it is already THE stable sort (an O(n)
  // adjacency check), the O(n log n) re-sort — and std::stable_sort's
  // temporary-buffer allocation — is skipped (EngineStats::warm_starts).
  std::vector<int> order;
  std::vector<double> arr_scratch;  // generate_arrivals output buffer
  MinHeap<Ev, EvAfter> events;
  // Jobs in admission order, (instant, job id), when `order` is not it.
  std::vector<int> admit_seq;
  // Dispatch wake-ups at the current instant (see run_into).
  DueSet due;
  // The union of the links of this run's programs, canonical — built only
  // when the run has more than one program (several tenants or a fault).
  std::vector<int> run_links;
  std::vector<unsigned char> link_seen;  // canonicalize_links' mark
  // Reduction scratch (reduce_tail / recovery).
  std::vector<double> scr_lat;
  std::vector<double> scr_times;
  std::vector<double> scr_recovery;

  // The canonical list (see canonicalize_links) of the links in `a` and
  // `b`, at its exact size.
  std::vector<int> canonical_links(std::span<const int> a,
                                   std::span<const int> b) {
    std::vector<int>& out = builder.links;
    out.assign(a.begin(), a.end());
    out.insert(out.end(), b.begin(), b.end());
    canonicalize_links(out, fabric, link_seen);
    return out;
  }

  ProgramEntry& program_for(const Schedule& sched, NopMode mode,
                            const PackageConfig& dense_pkg) {
    const ProgramKey key{&sched, mode};
    const auto it = programs.find(key);
    if (it != programs.end()) {
      ++stats.program_cache_hits;
      return it->second;
    }
    ProgramEntry e;
    build_program(sched, mode, fabric, dense_pkg, builder);
    e.prog = builder.prog;
    e.links = canonical_links(builder.prog.links, {});
    ++stats.program_builds;
    // Inserted only after a successful build: a throwing build leaves the
    // cache without a half-constructed entry.
    return programs.emplace(key, std::move(e)).first->second;
  }

  const DegradedEntry& degraded_for(ProgramEntry& entry,
                                    const StreamView& stream, NopMode mode,
                                    const PackageConfig& pkg,
                                    const FaultPlan& fault) {
    for (const auto& d : entry.degraded) {
      if (d->fault_chiplet == fault.chiplet_id &&
          d->allowed == *stream.allowed_chiplets) {
        ++stats.program_cache_hits;
        return *d;
      }
    }
    const auto pkey = std::make_pair(&pkg, fault.chiplet_id);
    auto pit = degraded_pkgs.find(pkey);
    if (pit == degraded_pkgs.end()) {
      pit = degraded_pkgs
                .emplace(pkey, std::make_unique<PackageConfig>(
                                   pkg.without_chiplet(fault.chiplet_id)))
                .first;
    }
    auto d = std::make_unique<DegradedEntry>();
    d->fault_chiplet = fault.chiplet_id;
    d->allowed = *stream.allowed_chiplets;
    d->remapped.emplace(remap_schedule(*stream.schedule, *pit->second,
                                       fault.chiplet_id, &d->remap_stats,
                                       *stream.allowed_chiplets));
    build_program(*d->remapped, mode, fabric, pkg, builder);
    d->prog = builder.prog;
    // Reload plans (memory model active only: with it inactive nothing is
    // reloaded, and the reload routes' links must not join link_stats).
    std::vector<int> reload_links;
    if (pkg.memory_model_active()) {
      const auto plan = [&](const PackageConfig& routed, int chiplet_id,
                            double bytes) {
        ReloadPlan rp;
        rp.dense_chiplet = pkg.position_of(chiplet_id);
        if (rp.dense_chiplet < 0) {
          throw std::out_of_range("reload destination not in package");
        }
        rp.bytes = bytes;
        rp.delay_s = mode != NopMode::kOff
                         ? nop_ingress_cost(routed, chiplet_id, bytes).latency_s
                         : 0.0;
        const double bw =
            pkg.chiplet(chiplet_id).memory.reload_bandwidth_bytes_per_s;
        if (bw > 0.0) rp.delay_s += bytes / bw;
        if (mode == NopMode::kContended) {
          routed.route_from_io(chiplet_id, builder.route);
          fabric.resolve(builder.route, rp.route);
          reload_links.insert(reload_links.end(), rp.route.begin(),
                              rp.route.end());
        }
        return rp;
      };
      for (const ReloadTransfer& r : d->remap_stats.reloads) {
        d->fault_reloads.push_back(plan(*pit->second, r.chiplet_id, r.bytes));
      }
      const ResidencyReport res = compute_residency(*stream.schedule);
      const ChipletResidency* cr = res.find(fault.chiplet_id);
      if (cr != nullptr && cr->weight_bytes > 0.0) {
        d->recover_reload = plan(pkg, fault.chiplet_id, cr->weight_bytes);
      }
    }
    d->links = canonical_links(d->prog.links, reload_links);
    ++stats.program_builds;
    entry.degraded.push_back(std::move(d));
    return *entry.degraded.back();
  }

  // The links this run reports, canonical: the one program's own list, or
  // the union over every tenant's primary (and, under a fault, degraded)
  // program. The persistent registry also holds links of schedules
  // simulated earlier, so the run names its links explicitly.
  const std::vector<int>& run_link_list(bool faulted) {
    if (ctx.size() == 1 && !faulted) return ctx.front().entry->links;
    run_links.clear();
    for (const TenantCtx& c : ctx) {
      run_links.insert(run_links.end(), c.entry->links.begin(),
                       c.entry->links.end());
      if (faulted) {
        run_links.insert(run_links.end(), c.degraded->links.begin(),
                         c.degraded->links.end());
      }
    }
    canonicalize_links(run_links, fabric, link_seen);
    return run_links;
  }

  // The one place a job changes state, and so the one place a tenant's
  // queued count changes.
  void move(Job& job, JobState to) {
    int& queued = ctx[static_cast<std::size_t>(job.tenant)].queued;
    if (job.state == JobState::kQueued) --queued;
    if (to == JobState::kQueued) ++queued;
    job.state = to;
  }

  // Resets job j's slots and item count for its current program.
  void init_frame(int j) {
    Job& job = jobs[static_cast<std::size_t>(j)];
    const Program& pr = *job.prog;
    const int items = ctx[static_cast<std::size_t>(job.tenant)].items;
    for (int i = 0; i < items; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      slots[job.slot + k] =
          Slot{0.0, pr.base_deps[k], pr.shard_begin[k + 1] - pr.shard_begin[k]};
    }
    job.items_left = items;
  }

  // Moves job j onto its tenant's degraded program.
  void degrade(int j) {
    Job& job = jobs[static_cast<std::size_t>(j)];
    TenantCtx& c = ctx[static_cast<std::size_t>(job.tenant)];
    job.prog = &c.degraded->prog;
    c.degraded_used = true;
    init_frame(j);
  }

  void run_into(const Schedule& schedule, const SimOptions& options,
                SimResult& result);
};

void SimEngine::Impl::run_into(const Schedule& schedule,
                               const SimOptions& options, SimResult& result) {
  resolve_streams(schedule, options, streams);
  check_run(schedule, options, streams,
            [](const char*, int, const std::string& what) {
              throw std::invalid_argument("simulate_schedule: " + what);
            });
  const int num_tenants = static_cast<int>(streams.size());

  // Open-loop / admission-control regime of this run: with both false the
  // arrival, shedding and steady-interval branches below are skipped.
  bool open = false;
  bool shed_any = false;
  for (const StreamView& s : streams) {
    open = open || s.arrivals->active();
    shed_any = shed_any || s.admission->active();
  }

  const FaultPlan& fault = options.fault;
  const bool faulted = fault.active();
  const NopMode mode = options.nop_mode;
  const bool contended = mode == NopMode::kContended;
  const PackageConfig& pkg = schedule.package();
  fabric.set_params(pkg.nop());
  fabric.reset_state();

  ctx.assign(static_cast<std::size_t>(num_tenants), TenantCtx{});
  int num_jobs = 0;
  std::size_t num_slots = 0;
  for (int t = 0; t < num_tenants; ++t) {
    TenantCtx& c = ctx[static_cast<std::size_t>(t)];
    const StreamView& s = streams[static_cast<std::size_t>(t)];
    ProgramEntry& e = program_for(*s.schedule, mode, pkg);
    c.entry = &e;
    c.primary = &e.prog;
    c.items = s.schedule->num_items();
    c.job_base = num_jobs;
    c.slot_base = num_slots;
    num_jobs += s.frames;
    num_slots += static_cast<std::size_t>(s.frames) *
                 static_cast<std::size_t>(c.items);
  }
  const int nc = ctx.front().primary->num_chiplets;

  // Dense package-order index of the failed chiplet.
  const int dead = faulted ? pkg.position_of(fault.chiplet_id) : -1;
  if (faulted) {
    for (int t = 0; t < num_tenants; ++t) {
      TenantCtx& c = ctx[static_cast<std::size_t>(t)];
      c.degraded = &degraded_for(
          *c.entry, streams[static_cast<std::size_t>(t)], mode, pkg, fault);
    }
  }

  jobs.assign(static_cast<std::size_t>(num_jobs), Job{});
  for (int t = 0; t < num_tenants; ++t) {
    const TenantCtx& c = ctx[static_cast<std::size_t>(t)];
    const StreamView& s = streams[static_cast<std::size_t>(t)];
    // Open-loop streams admit at the process's generated instants,
    // closed-loop ones at f * interval.
    const bool gen = s.arrivals->active();
    if (gen) generate_arrivals(*s.arrivals, s.frames, arr_scratch);
    for (int f = 0; f < s.frames; ++f) {
      Job& job = jobs[static_cast<std::size_t>(c.job_base + f)];
      job.prog = c.primary;
      job.admit = gen ? arr_scratch[static_cast<std::size_t>(f)]
                      : static_cast<double>(f) * s.frame_interval_s;
      job.slot = c.slot_base + static_cast<std::size_t>(f) *
                                   static_cast<std::size_t>(c.items);
      job.tenant = t;
    }
  }

  // Dispatch ranks: FIFO by admission instant across tenants (stable ties
  // keep tenant-major job order); under kPriority a higher-priority
  // tenant's jobs rank ahead of lower-priority ones outright. For a single
  // stream admission instants are nondecreasing in frame, so the stable
  // sort is the identity and rank == frame (FIFO by frame).
  {
    const auto before = [&](int a, int b) {
      const Job& ja = jobs[static_cast<std::size_t>(a)];
      const Job& jb = jobs[static_cast<std::size_t>(b)];
      if (options.policy == PlacementPolicy::kPriority) {
        const int pa = streams[static_cast<std::size_t>(ja.tenant)].priority;
        const int pb = streams[static_cast<std::size_t>(jb.tenant)].priority;
        if (pa != pb) return pa > pb;
      }
      return ja.admit < jb.admit;
    };
    // Warm start: the previous run's order is THE stable sort of this
    // run's jobs iff the count matches and every adjacent pair (x, y)
    // satisfies the stable-sort total order "before(x,y), ties broken by
    // original index" — a sequence sorted under a total order is unique,
    // so passing the O(n) check proves re-sorting would reproduce it.
    bool warm = static_cast<int>(order.size()) == num_jobs;
    for (int i = 1; warm && i < num_jobs; ++i) {
      const int x = order[static_cast<std::size_t>(i - 1)];
      const int y = order[static_cast<std::size_t>(i)];
      warm = before(x, y) || (!before(y, x) && x < y);
    }
    if (warm) {
      ++stats.warm_starts;
    } else {
      order.resize(static_cast<std::size_t>(num_jobs));
      for (int j = 0; j < num_jobs; ++j) order[static_cast<std::size_t>(j)] = j;
      std::stable_sort(order.begin(), order.end(), before);
    }
    for (int i = 0; i < num_jobs; ++i) {
      jobs[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])].rank =
          i;
    }
  }

  // Every slot is written by init_frame, so a bare resize (no refill) is
  // enough.
  slots.resize(num_slots);
  for (int j = 0; j < num_jobs; ++j) init_frame(j);

  if (static_cast<int>(chiplets.size()) < nc) {
    chiplets.resize(static_cast<std::size_t>(nc));
  }
  for (int c = 0; c < nc; ++c) {
    Chiplet& ch = chiplets[static_cast<std::size_t>(c)];
    ch.pending.clear();
    ch.ready.clear();
    ch.free = 0.0;
    ch.busy = 0.0;
    ch.wake_at = -std::numeric_limits<double>::infinity();
  }
  events.clear();
  due.reset(nc);

  // Reset every field of the caller's result object (run_into reuses its
  // buffers; a stale field from a previous run must not leak through).
  result.first_frame_latency_s = 0.0;
  result.steady_interval_s = 0.0;
  result.makespan_s = 0.0;
  result.frame_completion_s.assign(static_cast<std::size_t>(num_jobs), 0.0);
  result.frame_latency_s.clear();
  result.p50_latency_s = 0.0;
  result.p95_latency_s = 0.0;
  result.p99_latency_s = 0.0;
  result.chiplet_busy_s.clear();
  result.link_stats.clear();
  result.tasks_executed = 0;
  result.frames_completed = 0;
  result.dropped_frames = 0;
  result.shed_frames = 0;
  result.deadline_miss_frames = 0;
  result.peak_latency_s = 0.0;
  result.recovery_time_s = 0.0;
  result.remapped_items = 0;
  result.reload_bytes = 0.0;
  result.reload_time_s = 0.0;
  result.tenants.resize(static_cast<std::size_t>(num_tenants));

  // The instant of the event being processed. Every wake-up and release
  // the loop makes is at or after it.
  double now = 0.0;

  // Every event-heap push goes through here, so EngineStats counts them.
  const auto push_event = [&](const Ev& e, long long& pushes_of_kind) {
    events.push(e);
    ++pushes_of_kind;
    const long long held = static_cast<long long>(events.size());
    if (held > stats.event_heap_peak) stats.event_heap_peak = held;
  };

  // Requests a dispatch on chiplet `c` at instant `t` >= now. A wake-up
  // for `now` joins the due set; a later one goes to the event heap
  // unless the chiplet's latest queued heap wake-up is already at `t`.
  const auto wake = [&](double t, int c) {
    Chiplet& ch = chiplets[static_cast<std::size_t>(c)];
    if (ch.wake_at == t) return;
    if (t == now) {
      due.insert(c);
      return;
    }
    ch.wake_at = t;
    push_event(Ev{t, Ev::key_of(kDispatch, static_cast<std::uint64_t>(c)), 0,
                  c},
               stats.pushes.dispatch);
  };

  // A shard ready by the current instant goes straight to its chiplet's
  // ready heap: the next dispatch there would move it from `pending` first.
  const auto enqueue_item_shards = [&](int j, int item, double at) {
    const Job& job = jobs[static_cast<std::size_t>(j)];
    const Program& pr = *job.prog;
    const int end = pr.shard_begin[static_cast<std::size_t>(item) + 1];
    for (int s = pr.shard_begin[static_cast<std::size_t>(item)]; s < end; ++s) {
      const int c = pr.shards[static_cast<std::size_t>(s)].chiplet;
      Chiplet& ch = chiplets[static_cast<std::size_t>(c)];
      if (at <= now + kTimeEps) {
        ch.ready.push(ReadyShard{shard_key(job.rank, s), j, item});
      } else {
        ch.pending.push(PendingShard{at, shard_key(job.rank, s), j, item});
      }
      wake(at, c);
    }
  };

  // Deliver an edge/ingress arrival to (job, item): in contended mode the
  // message walks its links first, adding the FIFO queueing wait on top of
  // the analytical delay (wait is exactly 0.0 on an idle fabric, keeping
  // the two modes bitwise-identical there).
  const auto deliver = [&](int j, int item, double arrival) {
    Slot& s = slots[jobs[static_cast<std::size_t>(j)].slot +
                    static_cast<std::size_t>(item)];
    if (arrival > s.ready_time) s.ready_time = arrival;
    if (--s.deps_left == 0) enqueue_item_shards(j, item, s.ready_time);
  };

  // Admit (or re-admit after a fault flush) job `j` at time `t` under its
  // current program: inject the camera ingress edges and release the
  // dependency-free items. Link-queueing waits are attributed to the
  // owning tenant (TenantResult::nop_wait_s).
  const auto admit_frame = [&](int j, double t) {
    const Job& job = jobs[static_cast<std::size_t>(j)];
    const Program& pr = *job.prog;
    TenantCtx& tc = ctx[static_cast<std::size_t>(job.tenant)];
    for (const Ingress& in : pr.ingress) {
      double arrival = t + in.delay_s;
      if (in.msg >= 0) {
        const double wait = fabric.inject(
            pr.route(in.msg), pr.msgs[static_cast<std::size_t>(in.msg)].bytes,
            t);
        tc.nop_wait += wait;
        arrival = t + in.delay_s + wait;
      }
      deliver(j, in.item, arrival);
    }
    for (int i = 0; i < tc.items; ++i) {
      if (pr.base_deps[static_cast<std::size_t>(i)] == 0) {
        enqueue_item_shards(j, i, t);
      }
    }
  };

  // Charges tenant `tc`'s weight reload `rp` issued now and returns the
  // time it holds its destination chiplet.
  const auto reload = [&](const ReloadPlan& rp, TenantCtx& tc) {
    double wait = 0.0;
    if (contended && !rp.route.empty()) {
      wait = fabric.inject(rp.route, rp.bytes, now);
      tc.nop_wait += wait;
    }
    const double delay = rp.delay_s + wait;
    result.reload_bytes += rp.bytes;
    result.reload_time_s += delay;
    return delay;
  };

  // Admissions are read from a cursor over the jobs in (instant, job id)
  // order — the order their kAdmit events would pop in. `order` is that
  // order unless kPriority ranked tenants by priority first.
  const std::vector<int>* admits = &order;
  if (options.policy == PlacementPolicy::kPriority) {
    admit_seq.resize(static_cast<std::size_t>(num_jobs));
    for (int j = 0; j < num_jobs; ++j) {
      admit_seq[static_cast<std::size_t>(j)] = j;
    }
    const auto earlier = [](const Job& a, const Job& b) {
      return a.admit < b.admit;
    };
    if (!std::is_sorted(jobs.begin(), jobs.end(), earlier)) {
      std::sort(admit_seq.begin(), admit_seq.end(), [&](int a, int b) {
        const double ta = jobs[static_cast<std::size_t>(a)].admit;
        const double tb = jobs[static_cast<std::size_t>(b)].admit;
        return ta < tb || (ta == tb && a < b);
      });
    }
    admits = &admit_seq;
  }
  std::size_t next_admit = 0;

  if (faulted) {
    push_event(Ev{fault.fail_time_s, Ev::key_of(kFault, 0), 0, 0},
               stats.pushes.fault);
    if (fault.recover_time_s >= 0.0) {
      push_event(Ev{fault.recover_time_s, Ev::key_of(kRecover, 0), 0, 0},
                 stats.pushes.recover);
    }
  }

  // The next event in (time, kind, ...) order, from three sources: the
  // admission cursor, the due set (dispatches at `now`, by chiplet) and
  // the event heap (every other event is at or after `now`).
  const auto next_event = [&](Ev& ev) {
    const bool admit_left = next_admit < admits->size();
    const double admit_t =
        admit_left
            ? jobs[static_cast<std::size_t>((*admits)[next_admit])].admit
            : 0.0;
    bool heap_first = false;
    if (!events.empty()) {
      const Ev& top = events.top();
      if (due.empty()) {
        // An admission goes first at equal time.
        heap_first = !admit_left || top.time < admit_t;
      } else {
        // Due wake-ups are at `now`: after admissions at `now`, the heap's
        // finishes at `now` and its dispatches at `now` on lower chiplets.
        heap_first = !(admit_left && admit_t <= now) && top.time == now &&
                     (top.kind() == kFinish ||
                      (top.kind() == kDispatch && top.chiplet < due.top()));
      }
    }
    if (heap_first) {
      ev = events.top();
      events.pop();
      if (ev.kind() == kDispatch) {
        Chiplet& ch = chiplets[static_cast<std::size_t>(ev.chiplet)];
        if (ch.wake_at == ev.time) {
          ch.wake_at = -std::numeric_limits<double>::infinity();
        }
      }
    } else if (admit_left && (due.empty() || admit_t <= now)) {
      ev = Ev{admit_t, Ev::key_of(kAdmit, 0), (*admits)[next_admit++], 0};
    } else if (!due.empty()) {
      const int c = due.top();
      ev = Ev{now, Ev::key_of(kDispatch, static_cast<std::uint64_t>(c)), 0, c};
      due.pop();
    } else {
      return false;
    }
    return true;
  };

  Ev ev{};
  while (next_event(ev)) {
    now = ev.time;
    switch (ev.kind()) {
      case kAdmit: {
        const int f = ev.job;
        Job& job = jobs[static_cast<std::size_t>(f)];
        TenantCtx& tc = ctx[static_cast<std::size_t>(job.tenant)];
        const AdmissionControl& ac =
            *streams[static_cast<std::size_t>(job.tenant)].admission;
        if (ac.policy != ShedPolicy::kNone && tc.queued >= ac.queue_capacity) {
          // Full per-tenant queue: apply the shed policy. The arriving
          // frame is the NEWEST of its tenant (per-tenant arrival instants
          // are nondecreasing and same-instant admissions pop in job-id
          // order), so scanning the tenant's contiguous job-id window finds
          // the head/tail of the queue exactly.
          const auto queued = [&](int j) {
            return jobs[static_cast<std::size_t>(j)].state ==
                   JobState::kQueued;
          };
          int victim = -1;  // -1 = shed the arriving frame itself
          if (ac.policy == ShedPolicy::kDropOldest) {
            for (int j = tc.job_base; j < f; ++j) {
              if (queued(j)) { victim = j; break; }
            }
          } else if (ac.policy == ShedPolicy::kDropNewest) {
            for (int j = f - 1; j >= tc.job_base; --j) {
              if (queued(j)) { victim = j; break; }
            }
          }
          ++tc.shed;
          if (victim < 0) {
            // kRejectNew (or a defensive fallback when no victim is
            // queued): the arrival never enters the system.
            move(job, JobState::kShed);
            break;
          }
          move(jobs[static_cast<std::size_t>(victim)], JobState::kShed);
        }
        move(job, JobState::kQueued);
        // Frames admitted while the chiplet is down run the remapped
        // schedule (strictly after the fault instant: an admission at the
        // exact fail time lands primary, then the flush re-admits it).
        if (faulted && now > fault.fail_time_s &&
            !(fault.recover_time_s >= 0.0 && now >= fault.recover_time_s)) {
          degrade(f);
        }
        admit_frame(f, now);
        break;
      }
      case kFinish: {
        const int f = ev.job;
        // The task's chiplet is free: dispatch there once this instant's
        // finishes are in, stale or not.
        wake(now, ev.chiplet);
        Job& job = jobs[static_cast<std::size_t>(f)];
        // Stale: the frame was flushed (and possibly dropped) after this
        // task was dispatched.
        if (ev.epoch() != job.epoch) {
          ++stats.stale_finishes;
          break;
        }
        const int item = static_cast<int>(ev.slot() - job.slot);
        // The last shard's finish event carries the item's completion time
        // (events pop in nondecreasing time order).
        Slot& slot = slots[ev.slot()];
        if (--slot.shards_left != 0) break;
        const double finished = now;
        if (--job.items_left == 0) {
          if (job.state == JobState::kDone) {
            throw std::logic_error(
                "simulate_schedule: frame completed twice (conservation "
                "violated)");
          }
          move(job, JobState::kDone);
          result.frame_completion_s[static_cast<std::size_t>(f)] = finished;
        }
        const Program& pr = *job.prog;
        for (const Edge& e : pr.outs_of(item)) {
          double arrival = finished + e.delay_s;
          if (e.msg_begin != e.msg_end) {
            double wait = 0.0;
            for (int m = e.msg_begin; m < e.msg_end; ++m) {
              const double w = fabric.inject(
                  pr.route(m), pr.msgs[static_cast<std::size_t>(m)].bytes,
                  finished);
              if (w > wait) wait = w;
            }
            ctx[static_cast<std::size_t>(job.tenant)].nop_wait += wait;
            arrival = finished + e.delay_s + wait;
          }
          deliver(f, e.consumer, arrival);
        }
        break;
      }
      case kFault: {
        // The chiplet and its router die. Revoke every in-flight task (the
        // unexecuted remainder is handed back; the executed slice stays in
        // the chiplet's busy time as wasted work), flush all calendars, and
        // stall dispatch until the reschedule penalty elapses.
        const double resume =
            now + nonnegative_or_zero(fault.reschedule_penalty_s);
        for (int c = 0; c < nc; ++c) {
          Chiplet& ch = chiplets[static_cast<std::size_t>(c)];
          if (ch.free > now) ch.busy -= ch.free - now;
          ch.pending.clear();
          ch.ready.clear();
          ch.free =
              c == dead ? std::numeric_limits<double>::infinity() : resume;
          if (c != dead) wake(resume, c);
        }
        // Cold-start weight reloads (memory model active only; the plans
        // are empty otherwise): every tenant's remap destinations refill
        // their newly-resident weights from DRAM over the NoP ingress
        // route. Transfers to one chiplet serialize on its reload port, so
        // the chiplet resumes dispatch only after the reschedule stall AND
        // its reloads land. Charged for every tenant at the fault instant —
        // re-replication starts the moment the fault is known, whether or
        // not a frame later runs the degraded program.
        for (TenantCtx& tc : ctx) {
          for (const ReloadPlan& rp : tc.degraded->fault_reloads) {
            Chiplet& ch = chiplets[static_cast<std::size_t>(rp.dense_chiplet)];
            ch.free += reload(rp, tc);
            wake(ch.free, rp.dense_chiplet);
          }
        }
        // Flush admitted, unfinished frames onto the remapped schedule;
        // drop the ones whose deadline already expired. Every admission at
        // time <= now has already been processed (kAdmit sorts before
        // kFault at equal timestamps).
        for (int f = 0; f < num_jobs; ++f) {
          Job& job = jobs[static_cast<std::size_t>(f)];
          if (job.state != JobState::kQueued &&
              job.state != JobState::kStarted) {
            continue;
          }
          ++job.epoch;
          const double deadline =
              streams[static_cast<std::size_t>(job.tenant)].deadline_s;
          if (deadline > 0.0 && resume - job.admit > deadline) {
            move(job, JobState::kDropped);
            continue;
          }
          degrade(f);
          // The re-admitted frame is queued again in the new epoch (and so
          // shed-eligible again); its queue delay stays attributed to the
          // FIRST dispatch (qd_done is sticky).
          move(job, JobState::kQueued);
          admit_frame(f, now);
        }
        break;
      }
      case kRecover: {
        // The chiplet rejoins; frames admitted from now on use the primary
        // schedule again (the kAdmit regime check), frames in flight keep
        // their degraded placement — no second flush. The dispatch kick is
        // required: a frame admitted at this exact instant already enqueued
        // work here (kAdmit and its dispatch both sort before kRecover at
        // equal timestamps) and bounced off the still-infinite calendar.
        Chiplet& ch = chiplets[static_cast<std::size_t>(dead)];
        ch.free = now;
        // Cold SRAM (memory model active only): the revived chiplet
        // re-fills each tenant's primary-resident weights before accepting
        // work, serialized on its reload port.
        for (TenantCtx& tc : ctx) {
          const ReloadPlan& rp = tc.degraded->recover_reload;
          if (rp.bytes > 0.0) ch.free += reload(rp, tc);
        }
        wake(ch.free, dead);
        break;
      }
      case kDispatch:
      default: {
        Chiplet& ch = chiplets[static_cast<std::size_t>(ev.chiplet)];
        // Busy: the running task's finish wakes this chiplet again.
        if (ch.free > now + kTimeEps) {
          ++stats.busy_dispatches;
          break;
        }
        while (!ch.pending.empty() &&
               ch.pending.top().ready <= now + kTimeEps) {
          const PendingShard& p = ch.pending.top();
          ch.ready.push(ReadyShard{p.key, p.job, p.item});
          ch.pending.pop();
        }
        if (shed_any) {
          // Dispatch-set re-formation: before committing the chiplet,
          // evict shed frames' stale heap entries, and under shed_expired
          // evict queued frames whose deadline has already passed — online
          // decisions made against what is queued NOW.
          while (!ch.ready.empty()) {
            Job& job = jobs[static_cast<std::size_t>(ch.ready.top().job)];
            if (job.state == JobState::kShed) {
              ch.ready.pop();
              continue;
            }
            const StreamView& st =
                streams[static_cast<std::size_t>(job.tenant)];
            if (st.admission->shed_expired && st.deadline_s > 0.0 &&
                job.state == JobState::kQueued &&
                now - job.admit >= st.deadline_s) {
              move(job, JobState::kShed);
              ++ctx[static_cast<std::size_t>(job.tenant)].shed;
              ch.ready.pop();
              continue;
            }
            break;
          }
        }
        if (ch.ready.empty()) {
          ++stats.idle_dispatches;
          if (!ch.pending.empty()) wake(ch.pending.top().ready, ev.chiplet);
          break;
        }
        const ReadyShard task = ch.ready.top();
        ch.ready.pop();
        Job& job = jobs[static_cast<std::size_t>(task.job)];
        if (job.state == JobState::kQueued) {
          // The frame leaves the queue: it can no longer be shed, and its
          // queue delay (admission -> first dispatch) is attributed once.
          move(job, JobState::kStarted);
          if (!job.qd_done) {
            job.qd_done = true;
            TenantCtx& tc = ctx[static_cast<std::size_t>(job.tenant)];
            const double qd = now - job.admit;
            tc.qd_sum += qd;
            if (qd > tc.qd_peak) tc.qd_peak = qd;
            ++tc.qd_count;
          }
        }
        const double service = job.prog->shards[task.index()].service_s;
        const double done = now + service;
        ch.free = done;
        ch.busy += service;
        ++result.tasks_executed;
        push_event(Ev{done,
                      Ev::finish_key(
                          job.slot + static_cast<std::size_t>(task.item),
                          job.epoch),
                      task.job, ev.chiplet},
                   stats.pushes.finish);
        break;
      }
    }
  }

  // Conservation, per tenant and in aggregate: frames == completed +
  // dropped + shed. Dropped and shed frames carry NaN; every other offered
  // frame must have completed.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int f = 0; f < num_jobs; ++f) {
    const JobState state = jobs[static_cast<std::size_t>(f)].state;
    if (state == JobState::kDropped || state == JobState::kShed) {
      result.frame_completion_s[static_cast<std::size_t>(f)] = nan;
    } else if (state != JobState::kDone) {
      throw std::logic_error(
          "simulate_schedule: admitted frame neither completed, dropped nor "
          "shed (conservation violated)");
    }
  }

  // Package-level reductions over the tenant-major job stream: aggregates
  // cover every completed frame of every tenant, through the same
  // reduce_tail the per-tenant slices use. Latency is measured from the
  // REALIZED admission instant.
  result.frame_latency_s.reserve(static_cast<std::size_t>(num_jobs));
  for (int f = 0; f < num_jobs; ++f) {
    result.frame_latency_s.push_back(
        result.frame_completion_s[static_cast<std::size_t>(f)] -
        jobs[static_cast<std::size_t>(f)].admit);
  }
  const TailStats tail = reduce_tail(result.frame_latency_s,
                                     result.frame_completion_s, scr_lat,
                                     scr_times);
  result.frames_completed = tail.completed;
  result.first_frame_latency_s = result.frame_latency_s.front();
  result.makespan_s = tail.makespan_s;
  // The steady-interval estimator assumes periodic admission; under any
  // open-loop stream it would conflate queueing with the service
  // interval, so it is a documented NaN (see SimResult).
  result.steady_interval_s = open ? nan : tail.steady_interval_s;
  result.p50_latency_s = tail.p50_s;
  result.p95_latency_s = tail.p95_s;
  result.p99_latency_s = tail.p99_s;
  result.peak_latency_s = tail.peak_s;

  // Per-tenant slices (one entry even for single-stream runs); the
  // package counts are their sums. Under a fault, remap accounting and the
  // recovery spike are per tenant too (latency scales differ across
  // tenants, so a package-level baseline would be meaningless); the
  // package recovers when its slowest tenant has.
  for (int t = 0; t < num_tenants; ++t) {
    const TenantCtx& c = ctx[static_cast<std::size_t>(t)];
    const std::size_t tk = static_cast<std::size_t>(t);
    const double qd_mean =
        c.qd_count > 0 ? c.qd_sum / static_cast<double>(c.qd_count) : nan;
    TenantResult& tr = result.tenants[tk];
    reduce_tenant_into(streams[tk],
                       result.frame_completion_s.data() + c.job_base,
                       result.frame_latency_s.data() + c.job_base, c.shed,
                       streams[tk].arrivals->active(), c.nop_wait, qd_mean,
                       c.qd_count > 0 ? c.qd_peak : nan, scr_lat, scr_times,
                       tr);
    result.dropped_frames += tr.dropped_frames;
    result.shed_frames += tr.shed_frames;
    result.deadline_miss_frames += tr.deadline_miss_frames;
    if (faulted) {
      if (c.degraded_used) {
        result.remapped_items += c.degraded->remap_stats.touched_items;
      }
      result.recovery_time_s = std::max(
          result.recovery_time_s,
          recovery_after_fault(tr.frame_latency_s, tr.frame_completion_s,
                               fault.fail_time_s, scr_recovery));
    }
  }
  result.chiplet_busy_s.resize(static_cast<std::size_t>(nc));
  for (int c = 0; c < nc; ++c) {
    result.chiplet_busy_s[static_cast<std::size_t>(c)] =
        chiplets[static_cast<std::size_t>(c)].busy;
  }
  if (contended) {
    fabric.stats_into(result.makespan_s, run_link_list(faulted),
                      result.link_stats);
  }
  stats.tasks_executed += result.tasks_executed;
  ++stats.runs;
}

SimEngine::SimEngine() : impl_(std::make_unique<Impl>()) {}
SimEngine::~SimEngine() = default;
SimEngine::SimEngine(SimEngine&&) noexcept = default;
SimEngine& SimEngine::operator=(SimEngine&&) noexcept = default;

SimResult SimEngine::run(const Schedule& schedule, const SimOptions& options) {
  SimResult out;
  impl_->run_into(schedule, options, out);
  return out;
}

void SimEngine::run_into(const Schedule& schedule, const SimOptions& options,
                         SimResult& out) {
  impl_->run_into(schedule, options, out);
}

void SimEngine::reset() { impl_ = std::make_unique<Impl>(); }

const EngineStats& SimEngine::stats() const { return impl_->stats; }

SimResult simulate_schedule(const Schedule& schedule, const SimOptions& options) {
  // Full static verification up front (src/analysis/validate.h): it runs
  // the engine's own check_run and then the deep checks in the order the
  // engine meets them, so this rejects exactly what the engine rejects,
  // with the same exception type plus a rule ID and locus. SimEngine::run
  // calls only check_run, because DSE loops calling a warm engine cannot
  // afford the deep analyses.
  analysis::validate_or_throw(schedule, options);
  SimEngine engine;
  return engine.run(schedule, options);
}

}  // namespace cnpu
