#include "core/remap.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>

#include "core/partition.h"
#include "core/residency.h"

namespace cnpu {

Schedule remap_schedule(const Schedule& schedule, const PackageConfig& degraded,
                        int failed_chiplet, RemapStats* stats,
                        const std::vector<int>& allowed_pool) {
  if (schedule.package().position_of(failed_chiplet) < 0) {
    throw std::invalid_argument("remap_schedule: chiplet " +
                                std::to_string(failed_chiplet) +
                                " is not in the schedule's package");
  }
  if (degraded.num_chiplets() == 0) {
    throw std::invalid_argument("remap_schedule: no surviving chiplets");
  }
  if (degraded.position_of(failed_chiplet) >= 0) {
    throw std::invalid_argument("remap_schedule: chiplet " +
                                std::to_string(failed_chiplet) +
                                " is still present in the degraded package");
  }

  // Candidate restriction (partitioned-tenant isolation): when the caller
  // names an allowed pool AND that pool still has a survivor, only its
  // members may receive re-homed shards. A fully-dead pool falls back to
  // every survivor (documented in remap.h).
  std::set<int> allowed(allowed_pool.begin(), allowed_pool.end());
  if (!allowed.empty()) {
    bool any_survivor = false;
    for (const auto& c : degraded.chiplets()) {
      any_survivor = any_survivor || allowed.count(c.id) > 0;
    }
    if (!any_survivor) allowed.clear();
  }

  // Tie-break preference: the failed chiplet's quadrant pool (over the
  // ORIGINAL package, where the failed chiplet still exists) keeps moved
  // work NoP-local to its stage when loads are equal; the actual selection
  // is least-loaded across ALL survivors so a dying quadrant cannot pile
  // its work onto a lone pool-mate while the rest of the mesh idles.
  std::set<int> home_pool;
  for (const auto& pool : partition_quadrants(schedule.package())) {
    bool mine = false;
    for (const int id : pool) mine = mine || id == failed_chiplet;
    if (mine) {
      home_pool.insert(pool.begin(), pool.end());
      break;
    }
  }

  // Survivor load = accumulated per-frame busy seconds, seeded with the
  // work each survivor already holds (the evaluator's busy accounting). A
  // survivor keeps its PE array in `degraded`, so a kept shard's stored
  // cost is its price there; a shard on a chiplet `degraded` lacks throws.
  std::map<int, double> load;
  for (const auto& c : degraded.chiplets()) load[c.id] = 0.0;
  for (int i = 0; i < schedule.num_items(); ++i) {
    for (const auto& sh : schedule.placement(i).shards) {
      if (sh.chiplet_id == failed_chiplet) continue;
      load.at(sh.chiplet_id) += shard_cost(sh).latency_s;
    }
  }

  // Survivor weight residency, seeded with what each already holds (full
  // tensor once per (item, chiplet) — weights replicate per shard), for the
  // capacity-respecting candidate filter.
  std::map<int, double> weight_used;
  for (const auto& c : degraded.chiplets()) weight_used[c.id] = 0.0;
  {
    std::vector<int> counted;
    for (int i = 0; i < schedule.num_items(); ++i) {
      const double w = layer_weight_bytes(*schedule.item(i).desc);
      if (w <= 0.0) continue;
      counted.clear();
      for (const auto& sh : schedule.placement(i).shards) {
        if (sh.chiplet_id == failed_chiplet) continue;
        if (std::find(counted.begin(), counted.end(), sh.chiplet_id) !=
            counted.end()) {
          continue;
        }
        weight_used[sh.chiplet_id] += w;
        counted.push_back(sh.chiplet_id);
      }
    }
  }

  Schedule out(schedule.pipeline(), degraded);
  for (int i = 0; i < schedule.num_items(); ++i) {
    const Placement& p = schedule.placement(i);
    if (!p.assigned()) continue;
    if (!p.uses_chiplet(failed_chiplet)) {
      out.assign_weighted(i, p.shards);
      continue;
    }
    std::vector<ShardAssignment> shards;
    const double item_w = layer_weight_bytes(*schedule.item(i).desc);
    for (const auto& sh : p.shards) {
      ShardAssignment moved = sh;
      if (sh.chiplet_id == failed_chiplet) {
        // Extra weight bytes landing this shard on `cid` would make
        // resident: zero when the item's weights already live there (a kept
        // shard anywhere in this placement, or an earlier orphan of the
        // same item that re-homed there and will merge).
        auto needed_bytes = [&](int cid) {
          if (item_w <= 0.0) return 0.0;
          for (const auto& other : p.shards) {
            if (other.chiplet_id == cid) return 0.0;
          }
          for (const auto& prev : shards) {
            if (prev.chiplet_id == cid) return 0.0;
          }
          return item_w;
        };
        auto has_room = [&](int cid) {
          const MemorySpec& mem = degraded.chiplet(cid).memory;
          if (mem.weight_capacity_bytes <= 0.0) return true;
          return weight_used.at(cid) + needed_bytes(cid) <=
                 mem.weight_capacity_bytes;
        };
        // Least load first; on ties prefer the home quadrant pool, then the
        // lowest id — fully deterministic. First pass honors weight
        // capacity; when every allowed survivor is full the filter drops
        // (continuity beats capacity for a fault in flight).
        auto select = [&](bool respect_capacity) {
          int best = -1;
          bool best_home = false;
          double best_load = std::numeric_limits<double>::infinity();
          for (const auto& c : degraded.chiplets()) {
            if (!allowed.empty() && allowed.count(c.id) == 0) continue;
            if (respect_capacity && !has_room(c.id)) continue;
            const double l = load.at(c.id);
            const bool home = home_pool.count(c.id) > 0;
            const bool better =
                l < best_load ||
                (l == best_load && (home && !best_home)) ||
                (l == best_load && home == best_home && c.id < best);
            if (better) {
              best = c.id;
              best_home = home;
              best_load = l;
            }
          }
          return best;
        };
        int best = select(true);
        if (best < 0) best = select(false);
        moved.chiplet_id = best;
        // Charge the re-homed work to its new host immediately so later
        // orphans spread across survivors instead of piling onto one; same
        // for the weight bytes the move makes newly resident.
        load[best] +=
            analyze_shard(degraded, *schedule.item(i).desc, moved).latency_s;
        const double add_w = needed_bytes(best);
        if (add_w > 0.0) {
          weight_used[best] += add_w;
          if (stats != nullptr) {
            stats->weights_moved_bytes += add_w;
            bool found = false;
            for (auto& r : stats->reloads) {
              if (r.chiplet_id == best) {
                r.bytes += add_w;
                found = true;
                break;
              }
            }
            if (!found) stats->reloads.push_back(ReloadTransfer{best, add_w});
          }
        }
        if (stats != nullptr) ++stats->moved_shards;
      }
      bool merged = false;
      for (auto& existing : shards) {
        if (existing.chiplet_id == moved.chiplet_id) {
          existing.fraction += moved.fraction;
          merged = true;
          break;
        }
      }
      if (!merged) shards.push_back(moved);
    }
    if (stats != nullptr) ++stats->touched_items;
    out.assign_weighted(i, std::move(shards));
  }
  return out;
}

}  // namespace cnpu
