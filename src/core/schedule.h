// Schedule IR: which chiplet(s) run each layer of the perception pipeline.
//
// A layer may be data-parallel sharded across several chiplets with
// per-chiplet work fractions (weights replicated on every shard). Chain
// models may additionally be pipeline-split by assigning consecutive layer
// ranges to different chiplets — that is just per-layer assignment here.
#pragma once

#include <string>
#include <vector>

#include "arch/package.h"
#include "workloads/model.h"

namespace cnpu {

// One shard of one layer on one chiplet; `fraction` of the layer's token /
// output-row dim (fractions of a placement sum to 1).
struct ShardAssignment {
  int chiplet_id = -1;
  double fraction = 1.0;
};

struct Placement {
  std::vector<ShardAssignment> shards;

  bool assigned() const { return !shards.empty(); }
  int num_shards() const { return static_cast<int>(shards.size()); }
  // The shard carrying the largest fraction (used for NoP hop estimates).
  int primary_chiplet() const;
  bool uses_chiplet(int chiplet_id) const;
};

class Schedule {
 public:
  // One schedulable unit: a (stage, model, layer) coordinate.
  struct Item {
    int stage = 0;
    int model = 0;
    int layer = 0;
    const LayerDesc* desc = nullptr;
    bool prefix = false;  // belongs to a stage prefix model
  };

  // `pipeline` and `package` must outlive the schedule.
  Schedule(const PerceptionPipeline& pipeline, const PackageConfig& package);

  const PerceptionPipeline& pipeline() const { return *pipeline_; }
  const PackageConfig& package() const { return *package_; }

  int num_items() const { return static_cast<int>(items_.size()); }
  const Item& item(int idx) const { return items_[static_cast<std::size_t>(idx)]; }
  const Placement& placement(int idx) const {
    return placements_[static_cast<std::size_t>(idx)];
  }

  // Whole layer on one chiplet.
  void assign(int idx, int chiplet_id);
  // Even data-parallel shard across `chiplets`.
  void assign_sharded(int idx, const std::vector<int>& chiplets);
  // Arbitrary weighted shards (fractions are normalized to sum to 1).
  void assign_weighted(int idx, std::vector<ShardAssignment> shards);
  // Deserialization restore: stores `shards` verbatim — no normalization, no
  // positivity check, empty means unassigned. Round-trips exported bundles
  // bitwise and lets the linter (src/analysis/validate.h) see malformed
  // placements exactly as they appeared on disk instead of a silently
  // repaired copy. Everything else should use the assign_* checked paths.
  void restore_placement(int idx, std::vector<ShardAssignment> shards);
  void clear_assignment(int idx);

  // Item indices of one stage / one model, in execution order.
  const std::vector<int>& items_of_model(int stage, int model) const;
  std::vector<int> items_of_stage(int stage) const;

  // Chiplet ids with no assigned work anywhere in the schedule.
  std::vector<int> free_chiplets() const;
  bool fully_assigned() const;

  std::string describe() const;

 private:
  const PerceptionPipeline* pipeline_;
  const PackageConfig* package_;
  std::vector<Item> items_;
  std::vector<Placement> placements_;
  // index_[stage][model] -> item indices
  std::vector<std::vector<std::vector<int>>> index_;
};

// LayerDesc for one weighted shard of `layer` (`fraction` of its rows).
LayerDesc shard_fraction(const LayerDesc& layer, double fraction);

// Calls `bad(item, shard)`, in item order, for every unassigned item
// (`shard` nullptr) and every shard whose chiplet id the schedule's
// package lacks: the placements build_program (sim/event_sim.cc) rejects,
// reported by the validator as S002-S004.
template <typename BadFn>
void for_each_unplaced(const Schedule& s, BadFn&& bad) {
  for (int i = 0; i < s.num_items(); ++i) {
    const Placement& p = s.placement(i);
    if (!p.assigned()) bad(i, nullptr);
    for (const ShardAssignment& sh : p.shards) {
      if (s.package().position_of(sh.chiplet_id) < 0) bad(i, &sh);
    }
  }
}

// The exact edge set the simulator wires (build_program in
// sim/event_sim.cc): camera ingress into every stage-0 model's first item,
// intra-model chain edges, stage prefix handoffs, and cross-stage gathers
// into the models that receive stage input (a stage's prefix model when it
// has one, else every model). The analytical evaluator prices a different
// set: for example, in a stage with a prefix model it charges the previous
// stage's gathers into every non-prefix model. `ingress(item)` fires for each
// stage-0 model's first item (the payload is the camera frame — callers
// price kCameraInputBytes); `edge(producer, consumer, bytes)` fires for
// every inter-item edge with the payload bytes the producer emits.
// Enumeration order is the simulator's wiring order — note it is NOT
// topological (a stage's prefix model may be enumerated after the models
// that consume its output).
template <typename IngressFn, typename EdgeFn>
void for_each_schedule_edge(const Schedule& s, IngressFn&& ingress,
                            EdgeFn&& edge) {
  const PerceptionPipeline& pipe = s.pipeline();
  for (int st = 0; st < pipe.num_stages(); ++st) {
    const Stage& stage = pipe.stages[static_cast<std::size_t>(st)];
    for (int mod = 0; mod < stage.num_models(); ++mod) {
      const StageModel& sm = stage.models[static_cast<std::size_t>(mod)];
      const std::vector<int>& items = s.items_of_model(st, mod);
      if (items.empty()) continue;
      if (st == 0) ingress(items.front());
      for (std::size_t li = 1; li < items.size(); ++li) {
        edge(items[li - 1], items[li],
             sm.model.layers[li - 1].output_bytes());
      }
      if (!sm.prefix) {
        for (int pm = 0; pm < stage.num_models(); ++pm) {
          if (!stage.models[static_cast<std::size_t>(pm)].prefix) continue;
          const std::vector<int>& pre = s.items_of_model(st, pm);
          if (!pre.empty()) {
            edge(pre.back(), items.front(),
                 stage.models[static_cast<std::size_t>(pm)].model
                     .output_bytes());
          }
        }
      }
      const bool receives_stage_input =
          sm.prefix || stage.prefix_models().empty();
      if (st > 0 && receives_stage_input) {
        const Stage& prev = pipe.stages[static_cast<std::size_t>(st - 1)];
        for (int pm = 0; pm < prev.num_models(); ++pm) {
          if (prev.models[static_cast<std::size_t>(pm)].prefix) continue;
          const std::vector<int>& src = s.items_of_model(st - 1, pm);
          if (!src.empty()) {
            edge(src.back(), items.front(),
                 prev.models[static_cast<std::size_t>(pm)].model
                     .output_bytes());
          }
        }
      }
    }
  }
}

}  // namespace cnpu
