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

#include <algorithm>
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
//
// The table also keeps the folds a matching step reads, so that a step
// refolds only what it re-placed: per chiplet, its busy time and per-stage
// busy time, summed over the items it carries in item order; per model,
// its chain (item latencies plus chain-edge latencies); per model, its
// input edges. reprice marks the folds of the chiplets and models it
// touches stale, and the next read refolds them, each in
// aggregate_schedule's own order (chiplets by item then shard, chains in
// layer order, input edges in edge order), so every value read is bitwise
// what a full aggregation of the current placements gives.
class ShardCostTable {
 public:
  // Prices every item. Throws what evaluate_schedule throws for the first
  // bad item in item order: std::logic_error for an unassigned item,
  // std::out_of_range for a shard on a chiplet the package lacks.
  explicit ShardCostTable(const Schedule& s);

  // Re-prices item `idx` from its current placement, drops the chain edges
  // into and out of it, and marks stale the folds it enters: the chiplets
  // of its old and new shards, its model's chain, its model's input edges
  // when it is the model's first item, and the next stage's input edges
  // when it is the last item of a non-prefix model. Throws like the
  // constructor and then leaves the table unchanged.
  void reprice(int idx);

  const Schedule& schedule() const { return *s_; }
  std::span<const ShardCost> shards(int idx) const {
    const Run& r = runs_[static_cast<std::size_t>(idx)];
    return {costs_.data() + r.shards.begin, r.shards.size};
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
  // NoP costs of the edges into the first item of (stage, model), in
  // aggregate_schedule's order: the camera ingress in stage 0, the gathers
  // from each of the previous stage's non-prefix models otherwise, none
  // into a later stage's prefix model or an empty model. Priced on first
  // use after a reprice of either end.
  std::span<const NopCost> input_edges(int stage, int model);
  // Adds the chain edges of (stage, model) to `nop`, in layer order,
  // refolding the model's chain on the way.
  void add_chain_edges(int stage, int model, NopCost& nop);
  // Hands every shard to fn(stage, cost), by item, then placement order:
  // aggregate_schedule's item-order pass. A table that no reprice has
  // touched folds every chiplet on the way, in the same order.
  template <typename Fn>
  void for_each_shard(Fn&& fn);

  // Busy seconds per frame of the chiplet at package position `pos`, and
  // the same split per stage index.
  double chiplet_busy_s(int pos);
  std::span<const double> chiplet_stage_busy_s(int pos);
  // A stage's pipe latency: its largest per-chiplet busy time.
  double stage_pipe_s(int stage);
  // A stage's end-to-end latency: the prefix chains plus the longest
  // parallel chain, floored at the stage pipe, plus the largest input edge.
  // Prices the stage's unpriced chain and input edges, in model order.
  double stage_e2e_s(int stage);

  // Chiplets carrying no shard; `out` gets their ids in package order (the
  // schedule's free_chiplets()), cleared first.
  int num_free_chiplets() const;
  void free_chiplets(std::vector<int>& out) const;

 private:
  // A list stored in a flat buffer: buf[begin, begin + size), room for
  // `capacity`. A list that outgrows its room moves to the end of the
  // buffer; the old room is left unused.
  struct Extent {
    std::size_t begin = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  struct Run {  // one item
    Extent shards;  // in costs_
    double latency_s = 0.0;
    bool chain_priced = false;
    NopCost chain;
  };
  // One shard in a chiplet's fold: its item, the item's stage and the
  // shard's latency.
  struct Member {
    int item = 0;
    int stage = 0;
    double latency_s = 0.0;
  };
  struct ChipletFold {  // one package position
    Extent members;  // in members_, by item, then placement order
    int shards = 0;
    bool stale = true;
    double busy_s = 0.0;
  };
  struct ModelFold {  // one (stage, model)
    std::size_t in_begin = 0;  // input edges: in_edges_[in_begin, in_end)
    std::size_t in_end = 0;
    bool chain_stale = true;
    bool in_stale = true;
    double chain_s = 0.0;
  };

  template <typename T>
  static void make_room(Extent& e, std::vector<T>& buf, std::size_t size);
  // Calls fn(pm) for each input edge into (stage, model), in edge order:
  // pm is the previous stage's source model, or -1 for the camera ingress.
  template <typename Fn>
  void for_each_input(int stage, int model, Fn&& fn) const;
  ModelFold& model_fold(int stage, int model) {
    return models_[static_cast<std::size_t>(
        model_base_[static_cast<std::size_t>(stage)] + model)];
  }
  std::span<Member> members(const ChipletFold& f) {
    return {members_.data() + f.members.begin, f.members.size};
  }
  // The member lists, each chiplet's shards in fold order, from the
  // current costs.
  void build_members();
  void add_member(int pos, const Member& m);
  void remove_members(int pos, int idx);
  // Refolds every stale chiplet, then every stage pipe.
  void refold_chiplets();
  void fold_stage_pipes();
  double chain_s(int stage, int model);

  const Schedule* s_;
  std::vector<Run> runs_;  // per item
  // Every item's shards in one buffer. An item re-priced onto more shards
  // than its run holds moves to a new run at the end, so the buffer grows
  // by at most the shards of the re-priced placements.
  std::vector<ShardCost> costs_;
  std::vector<ChipletFold> chiplets_;  // per package position
  // Each chiplet's shards, built by the first reprice: a table that is
  // never re-priced folds every chiplet in one item-order pass instead.
  std::vector<Member> members_;
  bool members_built_ = false;
  std::vector<double> stage_busy_;  // [pos * stages + stage]
  std::vector<double> stage_pipe_;  // per stage
  bool chiplets_stale_ = true;
  // First ModelFold of each stage, then the total.
  std::vector<int> model_base_;
  std::vector<ModelFold> models_;
  std::vector<NopCost> in_edges_;
  std::vector<ShardCost> scratch_;  // reprice's staging buffer
};

template <typename Fn>
void ShardCostTable::for_each_shard(Fn&& fn) {
  const bool fold = !members_built_ && chiplets_stale_;
  const std::size_t ns = stage_pipe_.size();
  if (fold) {
    std::fill(stage_busy_.begin(), stage_busy_.end(), 0.0);
    for (ChipletFold& f : chiplets_) f.busy_s = 0.0;
  }
  for (int i = 0; i < s_->num_items(); ++i) {
    const int stage = s_->item(i).stage;
    for (const ShardCost& c : shards(i)) {
      if (fold) {
        const auto p = static_cast<std::size_t>(c.chiplet_pos);
        chiplets_[p].busy_s += c.latency_s;
        stage_busy_[p * ns + static_cast<std::size_t>(stage)] += c.latency_s;
      }
      fn(stage, c);
    }
  }
  if (fold) {
    for (ChipletFold& f : chiplets_) f.stale = false;
    fold_stage_pipes();
  }
}

// The aggregation half of evaluate_schedule: one pass that sums the MACs
// and energy of the table in item order, then the NoP edges in edge order,
// pricing the prefix handoffs and any input or chain edge the table has
// not priced yet; chiplet busy, stage pipe and stage E2E come from the
// table's folds. The only aggregation path. It writes into `m`, reusing
// its vectors.
void aggregate_schedule(ShardCostTable& costs, ScheduleMetrics& m);

// aggregate_schedule into a fresh ScheduleMetrics.
ScheduleMetrics aggregate_schedule(ShardCostTable& costs);

// aggregate_schedule(ShardCostTable(s)).
ScheduleMetrics evaluate_schedule(const Schedule& s);

}  // namespace cnpu
