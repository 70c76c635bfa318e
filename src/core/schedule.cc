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
  assign_weighted(idx, {ShardAssignment{chiplet_id, 1.0}});
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
}

void Schedule::restore_placement(int idx, std::vector<ShardAssignment> shards) {
  placements_[static_cast<std::size_t>(idx)].shards = std::move(shards);
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

}  // namespace cnpu
