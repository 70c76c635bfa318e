// Link-level NoP contention model.
//
// The analytical evaluator prices every transfer as an independent delay on
// an infinitely-parallel fabric. NopFabric instead treats each directed
// link of the package (mesh links, substrate hops, the west-edge I/O port
// link) as a FIFO-arbitrated shared resource: a message occupies every link
// on its XY route for `bytes / bandwidth` seconds, in route order, and
// queues behind whatever earlier-injected traffic already claimed the link.
//
// Timeline semantics (chosen so the contended simulator degenerates
// EXACTLY to the analytical model when links never conflict):
//  * A message's no-load latency is NOT computed here — the caller prices
//    it with the shared analytical formula (nop_gather_cost). inject()
//    returns only the extra FIFO queueing delay accumulated across the
//    route; completion = injection + analytical delay + returned wait.
//  * The occupancy walk is cut-through: per-hop propagation latency does
//    not hold a link, only serialization (bytes / bandwidth) does. With
//    infinite bandwidth every occupancy is zero-width, all waits are
//    exactly 0.0, and contended results are bitwise-identical to
//    analytical ones (asserted by the fig5to8 acceptance grid and the fuzz
//    property suite).
//  * Arbitration is FIFO in message-injection order. The event loop
//    processes events in nondecreasing time order, so injections are
//    globally time-ordered and the eager route walk is a faithful
//    first-come-first-served link calendar.
#pragma once

#include <map>
#include <vector>

#include "arch/package.h"

namespace cnpu {

// Post-run occupancy statistics of one directed fabric link.
struct LinkStats {
  NopLink link;
  double busy_s = 0.0;            // total serialization occupancy
  double utilization = 0.0;       // busy_s / observation horizon
  double max_queue_wait_s = 0.0;  // worst single-message FIFO wait here
  // Sum of every message's FIFO wait on this link — the aggregate queueing
  // delay the link injected into the stream (interference accounting for
  // the multi-tenant serving layer; 0.0 on an uncongested link).
  double total_queue_wait_s = 0.0;
  int messages = 0;
};

// The most-utilized link of a contended run; nullptr when `stats` is empty.
// Ties go to the earlier entry, which in SimResult::link_stats (sorted by
// link) is the smaller link.
const LinkStats* hottest_link(const std::vector<LinkStats>& stats);

class NopFabric {
 public:
  // A fabric carries the default NopParams until set_params(); engines
  // that persist one fabric across runs call it per run (the bandwidth may
  // differ between the packages of successive runs; the link registry is
  // geometry-keyed, so links of distinct packages coexist).
  void set_params(const NopParams& params) { params_ = params; }

  // Clears the per-run occupancy/wait/message state of every registered
  // link, WITHOUT forgetting the registry: dense indices stay valid, so
  // resolved routes cached across runs (SimEngine's compiled programs)
  // survive. After reset_state() every link is free at t=0 — a reused
  // fabric is indistinguishable from a fresh one to inject().
  void reset_state();

  // Dense index of `link`, registering it on first use. Routes are resolved
  // once at program build; the per-message hot path is index-based.
  int index_of(const NopLink& link);
  std::vector<int> resolve(const std::vector<NopLink>& route);

  // Injects a `bytes`-sized message at `time` along `route` (dense link
  // indices, in traversal order). Advances per-link occupancy and returns
  // the total FIFO queueing wait the message suffered (0.0 when every link
  // was free). Calls must be made in nondecreasing `time` order.
  double inject(const std::vector<int>& route, double bytes, double time);

  // The link registered under dense index `index`.
  const NopLink& link(int index) const {
    return links_[static_cast<std::size_t>(index)];
  }
  // Statistics of `links` (dense indices, emitted in the given order) into
  // a caller-owned vector that is cleared first; `horizon_s` (typically the
  // simulated makespan) normalizes busy time into utilization. A reused
  // fabric also holds links of earlier runs, so the caller names the links
  // its run used. Allocation-free once `out` has capacity.
  void stats_into(double horizon_s, const std::vector<int>& links,
                  std::vector<LinkStats>& out) const;

 private:
  NopParams params_;
  std::map<NopLink, int> index_;
  std::vector<NopLink> links_;
  std::vector<double> free_;      // when the link's last occupancy ends
  std::vector<double> busy_;
  std::vector<double> max_wait_;
  std::vector<double> total_wait_;
  std::vector<int> messages_;
};

}  // namespace cnpu
