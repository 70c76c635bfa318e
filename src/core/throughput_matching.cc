#include "core/throughput_matching.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "core/partition.h"
#include "core/residency.h"

namespace cnpu {
namespace {

// Cap on Algorithm 1's bottleneck-relief iterations.
constexpr int kMaxMatchSteps = 400;

bool package_memory_bounded(const PackageConfig& pkg) {
  for (const auto& c : pkg.chiplets()) {
    if (c.memory.bounded()) return true;
  }
  return false;
}

bool rides_with_predecessor(const LayerDesc& l) {
  return l.kind == OpKind::kElementwise || l.kind == OpKind::kPool;
}

// Rate-proportional shard fractions (equal on a homogeneous pool, WS-aware
// on heterogeneous ones), re-priced in `costs`.
void rebalance(Schedule& s, ShardCostTable& costs, int item_idx,
               const std::vector<int>& chiplets) {
  const LayerDesc& full = *s.item(item_idx).desc;
  std::vector<ShardAssignment> shards;
  shards.reserve(chiplets.size());
  for (int c : chiplets) {
    const CostReport r = analyze_layer(full, s.package().chiplet(c).array);
    shards.push_back(ShardAssignment{c, std::max(r.rate, 1.0)});
  }
  s.assign_weighted(item_idx, std::move(shards));
  costs.reprice(item_idx);
}

// split_model_chain with the chain's item latencies read from `latency`
// (item index -> seconds). Returns the cut.
template <typename LatencyFn>
std::size_t split_chain(Schedule& schedule, int stage, int model,
                        int new_chiplet, LatencyFn&& latency) {
  const std::vector<int>& items = schedule.items_of_model(stage, model);
  std::vector<double> lat;
  lat.reserve(items.size());
  double total = 0.0;
  for (const int idx : items) {
    lat.push_back(latency(idx));
    total += lat.back();
  }
  // Balanced cut: prefix closest to half the chain.
  std::size_t cut = items.size() / 2;
  double best_diff = total;
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < items.size(); ++i) {
    acc += lat[i];
    const double diff = std::fabs(acc - (total - acc));
    if (diff < best_diff) {
      best_diff = diff;
      cut = i + 1;
    }
  }
  for (std::size_t i = cut; i < items.size(); ++i) {
    schedule.assign(items[i], new_chiplet);
  }
  return cut;
}

std::vector<int> placement_chiplets(const Placement& p) {
  std::vector<int> ids;
  ids.reserve(p.shards.size());
  for (const auto& sh : p.shards) ids.push_back(sh.chiplet_id);
  return ids;
}

}  // namespace

void initial_quadrant_assignment(Schedule& schedule,
                                 const std::vector<std::vector<int>>& pools) {
  const PerceptionPipeline& pipe = schedule.pipeline();
  const PackageConfig& pkg = schedule.package();
  // Running weight residency per chiplet id, for the capacity-aware probe.
  // With the default unbounded memory every preferred member fits and the
  // placement is bitwise-identical to the legacy round robin.
  std::map<int, double> weight_used;
  auto fits = [&](int id, double add_bytes) {
    const MemorySpec& mem = pkg.chiplet(id).memory;
    if (mem.weight_capacity_bytes <= 0.0) return true;
    return weight_used[id] + add_bytes <= mem.weight_capacity_bytes;
  };
  // First pool member with weight room, probing forward from `preferred`
  // (weightless riders follow their predecessor and never gate the probe).
  auto pick = [&](const std::vector<int>& pool, std::size_t preferred,
                  double add_bytes, int st) {
    for (std::size_t j = 0; j < pool.size(); ++j) {
      const int id = pool[(preferred + j) % pool.size()];
      if (fits(id, add_bytes)) {
        weight_used[id] += add_bytes;
        return id;
      }
    }
    throw std::invalid_argument(
        "initial_quadrant_assignment: no chiplet in stage " +
        std::to_string(st) + "'s pool has weight-memory room for " +
        std::to_string(add_bytes) + " B");
  };
  for (int st = 0; st < pipe.num_stages(); ++st) {
    const Stage& stage = pipe.stages[static_cast<std::size_t>(st)];
    const std::vector<int>& pool =
        pools[static_cast<std::size_t>(std::min<std::size_t>(
            static_cast<std::size_t>(st), pools.size() - 1))];
    if (stage.num_models() > 1) {
      // Parallel-model stage: one chiplet per model, round-robin.
      for (int mod = 0; mod < stage.num_models(); ++mod) {
        double chain_weight = 0.0;
        for (int idx : schedule.items_of_model(st, mod)) {
          chain_weight += layer_weight_bytes(*schedule.item(idx).desc);
        }
        const int chiplet =
            pick(pool, static_cast<std::size_t>(mod), chain_weight, st);
        for (int idx : schedule.items_of_model(st, mod)) {
          schedule.assign(idx, chiplet);
        }
      }
    } else {
      // Single-chain fusion stage: one chiplet per heavy layer.
      std::size_t next = 0;
      int current = pool.front();
      bool first = true;
      for (int idx : schedule.items_of_model(st, 0)) {
        const LayerDesc& l = *schedule.item(idx).desc;
        if (first || !rides_with_predecessor(l)) {
          current = pick(pool, next % pool.size(), layer_weight_bytes(l), st);
          ++next;
          first = false;
        }
        schedule.assign(idx, current);
      }
    }
  }
}

int split_model_chain(Schedule& schedule, int stage, int model,
                      int new_chiplet) {
  return static_cast<int>(
      split_chain(schedule, stage, model, new_chiplet,
                  [&](int idx) { return item_latency_s(schedule, idx); }));
}

MatchResult throughput_matching(const PerceptionPipeline& pipeline,
                                const PackageConfig& package,
                                const MatchOptions& options) {
  return throughput_matching_with_pools(pipeline, package,
                                        partition_quadrants(package), options);
}

MatchResult throughput_matching_with_pools(
    const PerceptionPipeline& pipeline, const PackageConfig& package,
    const std::vector<std::vector<int>>& pools, const MatchOptions& options) {
  MatchResult result{Schedule(pipeline, package), {}, {}, 0.0, false};
  Schedule& sched = result.schedule;

  initial_quadrant_assignment(sched, pools);
  // One shard-cost table for the whole match. Each step re-prices only the
  // items it re-placed, and `metrics` is always aggregate_schedule of the
  // current table, which is bitwise equal to evaluate_schedule(sched).
  ShardCostTable costs(sched);

  // Capacity-aware matching: a sharding step replicates the bottleneck
  // layer's weights onto the target chiplet, so targets without weight room
  // are skipped. Residency is refreshed alongside the metrics after every
  // mutation; with unbounded memory (the default) every check passes and
  // the algorithm is unchanged.
  const bool mem_bounded = package_memory_bounded(package);
  ResidencyReport residency;
  auto refresh_residency = [&] {
    if (mem_bounded) residency = compute_residency(sched);
  };
  auto weight_room = [&](int id, double add_bytes) {
    if (!mem_bounded) return true;
    const MemorySpec& mem = package.chiplet(id).memory;
    if (mem.weight_capacity_bytes <= 0.0) return true;
    const ChipletResidency* r = residency.find(id);
    return (r ? r->weight_bytes : 0.0) + add_bytes <=
           mem.weight_capacity_bytes;
  };
  refresh_residency();

  // Stage pools are mutable: surplus chiplets flow to bottleneck stages.
  const int num_stages = pipeline.num_stages();
  std::vector<std::set<int>> stage_pool(static_cast<std::size_t>(num_stages));
  for (int st = 0; st < num_stages; ++st) {
    const auto& pool = pools[static_cast<std::size_t>(
        std::min<std::size_t>(static_cast<std::size_t>(st), pools.size() - 1))];
    stage_pool[static_cast<std::size_t>(st)].insert(pool.begin(), pool.end());
  }

  auto free_list = [&]() { return costs.free_chiplets(); };
  auto frozen = [&](int st) {
    return std::find(options.frozen_stages.begin(), options.frozen_stages.end(),
                     st) != options.frozen_stages.end();
  };
  // Trace pipe over the stages the algorithm is responsible for (the paper's
  // Fig. 10 excludes the frozen trunk stage).
  auto traced_pipe = [&](const ScheduleMetrics& m) {
    double pipe = 0.0;
    for (std::size_t st = 0; st < m.stages.size(); ++st) {
      if (frozen(static_cast<int>(st))) continue;
      pipe = std::max(pipe, m.stages[st].pipe_s);
    }
    return pipe;
  };
  auto record = [&](const std::string& action, const ScheduleMetrics& m,
                    double latbase) {
    result.trace.push_back(TraceStep{action, traced_pipe(m) * 1e3,
                                     latbase * 1e3,
                                     static_cast<int>(free_list().size())});
  };

  ScheduleMetrics metrics = aggregate_schedule(costs);
  double latbase = metrics.stages.front().pipe_s;
  result.latbase_s = latbase;
  record("initial quadrant assignment", metrics, latbase);

  bool base_split_done = false;

  // Surplus absorption (paper Sec. IV-B: leftover quadrant chiplets take an
  // additional sharding step, lowering stage E2E below the matched pipe).
  // Runs once per call after the stages are matched; pulls from the stage's
  // own pool, or from the global free list once base-splitting is settled.
  auto absorb_surplus = [&]() -> bool {
    const std::vector<int> frees = free_list();
    const bool allow_global = !options.allow_base_split || base_split_done;
    // Stages with the worst end-to-end latency absorb first. The base stage
    // only absorbs when it is the whole pipeline (single-stage workloads).
    std::vector<int> order;
    for (int st = num_stages == 1 ? 0 : 1; st < num_stages; ++st) {
      order.push_back(st);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return metrics.stages[static_cast<std::size_t>(a)].e2e_s >
             metrics.stages[static_cast<std::size_t>(b)].e2e_s;
    });
    for (int st : order) {
      if (frozen(st)) continue;
      int target = -1;
      for (int id : stage_pool[static_cast<std::size_t>(st)]) {
        if (std::find(frees.begin(), frees.end(), id) != frees.end()) {
          target = id;
          break;
        }
      }
      if (target < 0 && allow_global && !frees.empty()) target = frees.front();
      if (target < 0) continue;
      int worst_item = -1;
      // Layers far below the base latency are not worth a chiplet.
      double worst_lat = std::min(2e-3, latbase * 0.25);
      for (int idx : sched.items_of_stage(st)) {
        if (sched.placement(idx).num_shards() >= 12) continue;
        const LayerDesc& l = *sched.item(idx).desc;
        if (rides_with_predecessor(l)) continue;
        const double lat = costs.item_latency_s(idx);
        if (lat > worst_lat) {
          worst_lat = lat;
          worst_item = idx;
        }
      }
      if (worst_item < 0) continue;
      if (!weight_room(target,
                       layer_weight_bytes(*sched.item(worst_item).desc))) {
        continue;
      }
      stage_pool[static_cast<std::size_t>(st)].insert(target);
      std::vector<int> chiplets =
          placement_chiplets(sched.placement(worst_item));
      chiplets.push_back(target);
      rebalance(sched, costs, worst_item, chiplets);
      metrics = aggregate_schedule(costs);
      refresh_residency();
      latbase = metrics.stages.front().pipe_s;
      record("absorb-surplus " + sched.item(worst_item).desc->name + " x" +
                 std::to_string(chiplets.size()),
             metrics, latbase);
      return true;
    }
    return false;
  };
  std::set<int> saturated;
  for (int iter = 0; iter < kMaxMatchSteps; ++iter) {
    // Bottleneck stage: worst pipe among stages exceeding tolerance.
    int bottleneck = -1;
    double worst = latbase * (1.0 + options.tolerance);
    for (int st = 1; st < num_stages; ++st) {
      if (saturated.count(st)) continue;
      if (std::find(options.frozen_stages.begin(), options.frozen_stages.end(),
                    st) != options.frozen_stages.end()) {
        continue;
      }
      const double pipe = metrics.stages[static_cast<std::size_t>(st)].pipe_s;
      if (pipe > worst) {
        worst = pipe;
        bottleneck = st;
      }
    }

    if (bottleneck < 0) {
      // All stages matched at the current base: split the base stage if the
      // scale-out mode allows it, otherwise absorb leftover quadrant
      // chiplets, then finish.
      if (options.allow_base_split && !base_split_done) {
        const Stage& fe = pipeline.stages.front();
        std::vector<int> frees = free_list();
        bool splittable = static_cast<int>(frees.size()) >= fe.num_models();
        if (splittable && mem_bounded) {
          // The moved chain suffix's weights must fit the fresh chiplet;
          // gate on the whole chain as a safe upper bound.
          for (int mod = 0; mod < fe.num_models() && splittable; ++mod) {
            double chain_w = 0.0;
            for (int idx : sched.items_of_model(0, mod)) {
              chain_w += layer_weight_bytes(*sched.item(idx).desc);
            }
            splittable =
                weight_room(frees[static_cast<std::size_t>(mod)], chain_w);
          }
        }
        if (splittable) {
          for (int mod = 0; mod < fe.num_models(); ++mod) {
            const int fresh = frees[static_cast<std::size_t>(mod)];
            const std::size_t cut =
                split_chain(sched, 0, mod, fresh,
                            [&](int idx) { return costs.item_latency_s(idx); });
            const std::vector<int>& items = sched.items_of_model(0, mod);
            for (std::size_t i = cut; i < items.size(); ++i) {
              costs.reprice(items[i]);
            }
            stage_pool[0].insert(fresh);
          }
          base_split_done = true;
          saturated.clear();
          metrics = aggregate_schedule(costs);
          refresh_residency();
          latbase = metrics.stages.front().pipe_s;
          record("split FE chains into 2 pipeline sub-stages", metrics, latbase);
          continue;
        }
        base_split_done = true;  // not enough chiplets: settle at this base
      }
      if (absorb_surplus()) continue;
      result.converged = true;
      break;
    }

    // Bottleneck layer within the stage.
    int worst_item = -1;
    double worst_lat = 0.0;
    for (int idx : sched.items_of_stage(bottleneck)) {
      const double lat = costs.item_latency_s(idx);
      if (lat > worst_lat) {
        worst_lat = lat;
        worst_item = idx;
      }
    }
    if (worst_item < 0) {
      saturated.insert(bottleneck);
      continue;
    }

    // Target chiplet: least busy in the stage pool not already hosting a
    // shard of this layer; otherwise reallocate a free chiplet.
    const Placement& cur = sched.placement(worst_item);
    auto busy_of = [&](int id) {
      const int pos = package.position_of(id);
      return pos < 0 ? 0.0
                     : metrics.chiplets[static_cast<std::size_t>(pos)].busy_s;
    };
    const double item_weight = layer_weight_bytes(*sched.item(worst_item).desc);
    int target = -1;
    double target_busy = 0.0;
    for (int id : stage_pool[static_cast<std::size_t>(bottleneck)]) {
      if (cur.uses_chiplet(id)) continue;
      if (!weight_room(id, item_weight)) continue;
      const double estimated = worst_lat / static_cast<double>(cur.num_shards() + 1);
      if (busy_of(id) + estimated > latbase * (1.0 + options.tolerance)) continue;
      if (target < 0 || busy_of(id) < target_busy) {
        target = id;
        target_busy = busy_of(id);
      }
    }
    std::string how = "shard";
    if (target < 0) {
      for (int id : free_list()) {
        if (!weight_room(id, item_weight)) continue;
        target = id;
        stage_pool[static_cast<std::size_t>(bottleneck)].insert(target);
        how = "reallocate+shard";
        break;
      }
    }
    if (target < 0) {
      saturated.insert(bottleneck);
      continue;
    }

    std::vector<int> chiplets = placement_chiplets(cur);
    chiplets.push_back(target);
    rebalance(sched, costs, worst_item, chiplets);
    metrics = aggregate_schedule(costs);
    refresh_residency();
    latbase = metrics.stages.front().pipe_s;
    record(how + " " + sched.item(worst_item).desc->name + " x" +
               std::to_string(chiplets.size()),
           metrics, latbase);
  }

  // The steps above gate only on weight room; activation working sets are
  // checked here, on the final placement. An overflowing placement is
  // infeasible and refused, as place_tenants refuses one.
  if (residency.overflow) {
    throw std::invalid_argument(
        "throughput_matching: placement overflows chiplet memory — " +
        residency.describe_overflow());
  }

  result.metrics = std::move(metrics);
  result.latbase_s = result.metrics.stages.front().pipe_s;
  if (result.trace.empty() || !result.converged) {
    result.converged =
        [&] {
          for (std::size_t st = 1; st < result.metrics.stages.size(); ++st) {
            if (result.metrics.stages[st].pipe_s >
                result.latbase_s * (1.0 + options.tolerance) + 1e-9) {
              return false;
            }
          }
          return true;
        }();
  }
  return result;
}

}  // namespace cnpu
