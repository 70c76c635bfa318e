// Schedule evaluator: turns a Schedule into the paper's metrics.
//
// Semantics (matching the paper's Figs. 5-8 / Table II accounting):
//  * item latency    - max over its shards of analyze_layer on that chiplet
//  * chiplet busy    - sum of its shard latencies (per frame)
//  * pipe latency    - max chiplet busy: the steady-state initiation
//                      interval of the software-pipelined stream
//  * stage E2E       - prefix chains + max parallel model chain (respecting
//                      chiplet contention) + NoP transfer edges
//  * pipeline E2E    - sum of stage E2Es + inter-stage NoP edges
//  * energy          - compute energy of all shards (weight replication
//                      included naturally) + NoP transfer energy
//  * EDP             - energy x pipe latency (J*ms)
//  * utilization     - total MACs / (PE-seconds of busy chiplets * freq)
#pragma once

#include <span>
#include <string>
#include <vector>

#include "arch/nop.h"
#include "core/schedule.h"
#include "dataflow/cost_model.h"

namespace cnpu {

struct ChipletUsage {
  int chiplet_id = -1;
  double busy_s = 0.0;
  double macs = 0.0;
  double energy_j = 0.0;
  // busy seconds broken down per stage index
  std::vector<double> stage_busy_s;
};

struct StageMetrics {
  std::string name;
  double e2e_s = 0.0;
  double pipe_s = 0.0;
  double compute_energy_j = 0.0;
  NopCost nop;
  int chiplets_used = 0;

  double energy_j() const { return compute_energy_j + nop.energy_j; }
  double edp_j_ms() const { return energy_j() * pipe_s * 1e3; }
};

struct ScheduleMetrics {
  std::vector<StageMetrics> stages;
  std::vector<ChipletUsage> chiplets;  // one per package chiplet
  double e2e_s = 0.0;
  double pipe_s = 0.0;
  double compute_energy_j = 0.0;
  NopCost nop;
  double total_macs = 0.0;

  double energy_j() const { return compute_energy_j + nop.energy_j; }
  double edp_j_ms() const { return energy_j() * pipe_s * 1e3; }
  // MACs / (PE-seconds across busy chiplets * frequency).
  double utilization = 0.0;
  int chiplets_used() const;
};

// Bytes one camera frame injects at the package I/O port (3 x 720 x 1280
// int8). Priced on every stage-0 ingress edge by both evaluate_schedule and
// simulate_schedule.
inline constexpr double kCameraInputBytes = 3.0 * 720.0 * 1280.0;

// Fraction-weighted mean NoP hops for a tensor produced by `from` (possibly
// sharded) and gathered by the primary chiplet of `to`. Never rounded: a
// sub-half-hop mean pays its proportional share (see docs/METRICS.md).
double gather_hops(const PackageConfig& pkg, const Placement& from,
                   const Placement& to);

// Cost of one schedule edge: `bytes` moved over the fractional gather hop
// count. The single shared implementation of the edge-delay formula — the
// analytical evaluator and the event simulator both call it, so the two
// can never drift apart again (PR 1 fixed a units bug that had diverged
// between their former private copies).
NopCost nop_gather_cost(const PackageConfig& pkg, const Placement& from,
                        const Placement& to, double bytes);

// Cost of moving `bytes` from the package I/O port to `chiplet_id`: by
// default one camera frame's ingress edge. Shared by the evaluator and the
// event simulator (camera ingress and weight reloads) for the same
// never-drift-apart reason as nop_gather_cost.
NopCost nop_ingress_cost(const PackageConfig& pkg, int chiplet_id,
                         double bytes = kCameraInputBytes);

// analyze_layer on the slice of `layer` that `shard` carries, on the shard's
// chiplet of `pkg`: the one shard-pricing path. The evaluator, Algorithm 1,
// compute_bounds, the simulator's program build and remap all price shards
// through it, so their costs cannot drift apart.
CostReport analyze_shard(const PackageConfig& pkg, const LayerDesc& layer,
                         const ShardAssignment& shard);

// Latency of one item under its placement (max across shards), seconds.
double item_latency_s(const Schedule& s, int item_idx);

// One shard's price, exactly as analyze_layer returns it.
struct ShardCost {
  int chiplet_pos = -1;  // PackageConfig::position_of the shard's chiplet
  double latency_s = 0.0;
  double macs = 0.0;
  double energy_j = 0.0;
};

// The pricing half of evaluate_schedule: every item's shard costs, in
// placement order, plus the number of shards on each chiplet, and each
// item's chain edge to the next layer of its model. Algorithm 1 keeps one
// table for a whole match and re-prices only the items a step re-placed,
// instead of re-pricing the schedule every step. The schedule must outlive
// the table, and after changing a placement the caller re-prices that item
// before reading the table again.
class ShardCostTable {
 public:
  // Prices every item. Throws what evaluate_schedule throws for the first
  // bad item in item order: std::logic_error for an unassigned item,
  // std::out_of_range for a shard on a chiplet the package lacks.
  explicit ShardCostTable(const Schedule& s);

  // Re-prices item `idx` from its current placement, and drops the chain
  // edges into and out of it. Throws like the constructor and then leaves
  // the table unchanged.
  void reprice(int idx);

  const Schedule& schedule() const { return *s_; }
  std::span<const ShardCost> shards(int idx) const {
    const Run& r = runs_[static_cast<std::size_t>(idx)];
    return {costs_.data() + r.begin, r.size};
  }
  // item_latency_s of the item's priced placement.
  double item_latency_s(int idx) const {
    return runs_[static_cast<std::size_t>(idx)].latency_s;
  }
  // NoP cost of the chain edge from item `idx` to the next layer of its
  // model (item idx + 1: a model's items are consecutive). Priced on first
  // use after a reprice of either end, so the aggregation prices edges in
  // its own edge order and throws where a fresh evaluation would.
  const NopCost& chain_edge_cost(int idx);
  // Chiplet ids carrying no shard, in package order: the schedule's
  // free_chiplets().
  std::vector<int> free_chiplets() const;

 private:
  // One item's shards: costs_[begin, begin + size), room for `capacity`.
  struct Run {
    std::size_t begin = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
    double latency_s = 0.0;
    bool chain_priced = false;
    NopCost chain;
  };

  const Schedule* s_;
  std::vector<Run> runs_;  // per item
  // Every item's shards in one buffer. An item re-priced onto more shards
  // than its run holds moves to a new run at the end; the old run is left
  // unused, which costs at most the shards of the re-priced placements.
  std::vector<ShardCost> costs_;
  std::vector<int> shards_on_;      // per package position
  std::vector<ShardCost> scratch_;  // reprice's staging buffer
};

// The aggregation half of evaluate_schedule: one pass that sums the table
// in item order, then the NoP edges in edge order, pricing the stage input
// edges and any chain edge the table has not priced yet. The only
// aggregation path. It writes into `m`, reusing its vectors.
void aggregate_schedule(ShardCostTable& costs, ScheduleMetrics& m);

// aggregate_schedule into a fresh ScheduleMetrics.
ScheduleMetrics aggregate_schedule(ShardCostTable& costs);

// aggregate_schedule(ShardCostTable(s)).
ScheduleMetrics evaluate_schedule(const Schedule& s);

}  // namespace cnpu
