#include "core/schedule.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <stdexcept>

namespace cnpu {

int Placement::primary_chiplet() const {
  int best = -1;
  double best_frac = -1.0;
  for (const auto& s : shards) {
    if (s.fraction > best_frac) {
      best_frac = s.fraction;
      best = s.chiplet_id;
    }
  }
  return best;
}

bool Placement::uses_chiplet(int chiplet_id) const {
  for (const auto& s : shards) {
    if (s.chiplet_id == chiplet_id) return true;
  }
  return false;
}

const ShardCost& shard_cost(const ShardAssignment& shard) {
  if (shard.cost.chiplet_pos < 0) {
    throw std::out_of_range("no chiplet with id " +
                            std::to_string(shard.chiplet_id));
  }
  return shard.cost;
}

Schedule::Schedule(const PerceptionPipeline& pipeline,
                   const PackageConfig& package)
    : pipeline_(&pipeline), package_(&package) {
  index_.resize(pipeline.stages.size());
  for (std::size_t s = 0; s < pipeline.stages.size(); ++s) {
    const Stage& stage = pipeline.stages[s];
    index_[s].resize(stage.models.size());
    for (std::size_t m = 0; m < stage.models.size(); ++m) {
      const StageModel& sm = stage.models[m];
      for (std::size_t l = 0; l < sm.model.layers.size(); ++l) {
        Item it;
        it.stage = static_cast<int>(s);
        it.model = static_cast<int>(m);
        it.layer = static_cast<int>(l);
        it.desc = &sm.model.layers[l];
        it.prefix = sm.prefix;
        index_[s][m].push_back(static_cast<int>(items_.size()));
        items_.push_back(it);
      }
    }
  }
  placements_.resize(items_.size());
}

void Schedule::assign(int idx, int chiplet_id) {
  // A lone shard normalizes to 1.0. Writing it into the item's own vector
  // lets a re-placement reuse that storage.
  placements_[static_cast<std::size_t>(idx)].shards.assign(
      1, ShardAssignment{chiplet_id, 1.0});
  price(idx);
}

void Schedule::assign_sharded(int idx, const std::vector<int>& chiplets) {
  assert(!chiplets.empty());
  std::vector<ShardAssignment> shards;
  const double frac = 1.0 / static_cast<double>(chiplets.size());
  shards.reserve(chiplets.size());
  for (int c : chiplets) shards.push_back(ShardAssignment{c, frac});
  assign_weighted(idx, std::move(shards));
}

void Schedule::assign_weighted(int idx, std::vector<ShardAssignment> shards) {
  if (shards.empty()) throw std::invalid_argument("empty placement");
  double total = 0.0;
  for (const auto& s : shards) {
    if (s.fraction <= 0.0) throw std::invalid_argument("non-positive shard fraction");
    total += s.fraction;
  }
  for (auto& s : shards) s.fraction /= total;
  placements_[static_cast<std::size_t>(idx)].shards = std::move(shards);
  price(idx);
}

void Schedule::restore_placement(int idx, std::vector<ShardAssignment> shards) {
  placements_[static_cast<std::size_t>(idx)].shards = std::move(shards);
  price(idx);
}

void Schedule::price(int idx) {
  const LayerDesc& layer = *items_[static_cast<std::size_t>(idx)].desc;
  for (ShardAssignment& sh : placements_[static_cast<std::size_t>(idx)].shards) {
    sh.cost = ShardCost{};
    const int pos = package_->position_of(sh.chiplet_id);
    if (pos < 0) continue;
    const CostReport r = analyze_shard(*package_, layer, sh);
    sh.cost = ShardCost{pos, r.latency_s, r.macs, r.energy_j()};
  }
}

void Schedule::clear_assignment(int idx) {
  placements_[static_cast<std::size_t>(idx)].shards.clear();
}

const std::vector<int>& Schedule::items_of_model(int stage, int model) const {
  return index_[static_cast<std::size_t>(stage)][static_cast<std::size_t>(model)];
}

std::vector<int> Schedule::items_of_stage(int stage) const {
  std::vector<int> out;
  for (const auto& model_items : index_[static_cast<std::size_t>(stage)]) {
    out.insert(out.end(), model_items.begin(), model_items.end());
  }
  return out;
}

std::vector<int> Schedule::free_chiplets() const {
  std::set<int> used;
  for (const auto& p : placements_) {
    for (const auto& s : p.shards) used.insert(s.chiplet_id);
  }
  std::vector<int> out;
  for (const auto& c : package_->chiplets()) {
    if (used.count(c.id) == 0) out.push_back(c.id);
  }
  return out;
}

bool Schedule::fully_assigned() const {
  return std::all_of(placements_.begin(), placements_.end(),
                     [](const Placement& p) { return p.assigned(); });
}

std::string Schedule::describe() const {
  int assigned = 0;
  for (const auto& p : placements_) assigned += p.assigned() ? 1 : 0;
  return std::to_string(assigned) + "/" + std::to_string(items_.size()) +
         " layers placed on " + package_->describe();
}

LayerDesc shard_fraction(const LayerDesc& layer, double fraction) {
  LayerDesc shard = layer;
  fraction = std::clamp(fraction, 0.0, 1.0);
  shard.y = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::llround(static_cast<double>(layer.y) * fraction)));
  return shard;
}

CostReport analyze_shard(const PackageConfig& pkg, const LayerDesc& layer,
                         const ShardAssignment& shard) {
  const PeArrayConfig& array = pkg.chiplet(shard.chiplet_id).array;
  // shard_fraction returns a whole-layer shard unchanged whenever its row
  // count survives the double round trip (<= 2^53); price the layer itself
  // and skip the copy.
  if (shard.fraction == 1.0 && layer.y >= 1 &&
      layer.y <= (std::int64_t{1} << 53)) {
    return analyze_layer(layer, array);
  }
  return analyze_layer(shard_fraction(layer, shard.fraction), array);
}

}  // namespace cnpu
