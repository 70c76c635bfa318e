#include "core/baselines.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/residency.h"

namespace cnpu {
namespace {

// Per-stage single-chip latency estimates for LPT stage placement.
std::vector<double> stage_loads(const PerceptionPipeline& pipe,
                                const PeArrayConfig& array) {
  std::vector<double> loads;
  loads.reserve(pipe.stages.size());
  for (const auto& stage : pipe.stages) {
    double total = 0.0;
    for (const auto& sm : stage.models) {
      total += analyze_layers(sm.model.layers, array).latency_s;
    }
    loads.push_back(total);
  }
  return loads;
}

}  // namespace

const char* pipeline_mode_name(PipelineMode mode) {
  return mode == PipelineMode::kStagewise ? "Stagewise" : "Layerwise";
}

Schedule build_baseline_schedule(const PerceptionPipeline& pipeline,
                                 const PackageConfig& package,
                                 PipelineMode mode) {
  Schedule sched(pipeline, package);
  const auto& chips = package.chiplets();
  const int n = static_cast<int>(chips.size());

  if (mode == PipelineMode::kStagewise) {
    // LPT: stages sorted by load, each onto the least-loaded chip.
    const std::vector<double> loads =
        stage_loads(pipeline, chips.front().array);
    std::vector<int> order(loads.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return loads[static_cast<std::size_t>(a)] >
                                         loads[static_cast<std::size_t>(b)]; });
    std::vector<double> chip_load(static_cast<std::size_t>(n), 0.0);
    for (int st : order) {
      const int chip = static_cast<int>(
          std::min_element(chip_load.begin(), chip_load.end()) -
          chip_load.begin());
      chip_load[static_cast<std::size_t>(chip)] +=
          loads[static_cast<std::size_t>(st)];
      for (int idx : sched.items_of_stage(st)) {
        sched.assign(idx, chips[static_cast<std::size_t>(chip)].id);
      }
    }
    return sched;
  }

  // Layerwise: greedy least-busy chip per layer, in pipeline order.
  std::vector<double> chip_load(static_cast<std::size_t>(n), 0.0);
  for (int i = 0; i < sched.num_items(); ++i) {
    const int chip = static_cast<int>(
        std::min_element(chip_load.begin(), chip_load.end()) -
        chip_load.begin());
    const int id = chips[static_cast<std::size_t>(chip)].id;
    sched.assign(i, id);
    chip_load[static_cast<std::size_t>(chip)] +=
        analyze_layer(*sched.item(i).desc, chips[static_cast<std::size_t>(chip)].array)
            .latency_s;
  }
  return sched;
}

BaselineRow run_baseline(const PerceptionPipeline& pipeline,
                         const PackageConfig& package, PipelineMode mode,
                         const std::string& label) {
  const Schedule sched = build_baseline_schedule(pipeline, package, mode);
  return BaselineRow{label, evaluate_schedule(sched)};
}

Schedule build_fanin_schedule(const PerceptionPipeline& pipeline,
                              const PackageConfig& package) {
  // Producers are stage 0's models (one item each); the fusion model's item
  // comes last, placed one chiplet east of the last producer.
  const int cameras = pipeline.stages.front().num_models();
  Schedule sched(pipeline, package);
  for (int i = 0; i < cameras; ++i) sched.assign(i, i);
  sched.assign(cameras, cameras);
  return sched;
}

Schedule build_chainwise_schedule(const PerceptionPipeline& pipeline,
                                  const PackageConfig& package) {
  std::vector<int> all;
  all.reserve(package.chiplets().size());
  for (const auto& c : package.chiplets()) all.push_back(c.id);
  return build_pool_schedule(pipeline, package, all, 0);
}

Schedule build_pool_schedule(const PerceptionPipeline& pipeline,
                             const PackageConfig& package,
                             const std::vector<int>& pool, int offset) {
  if (pool.empty()) {
    throw std::invalid_argument("build_pool_schedule: empty chiplet pool");
  }
  // A member with no positive capacity takes any chain. When every member
  // is like that, the preferred member always fits, so the chains'
  // footprints are never summed.
  bool always_fits = true;
  for (const int id : pool) {
    const int pos = package.position_of(id);
    if (pos < 0) {
      throw std::invalid_argument("build_pool_schedule: chiplet " +
                                  std::to_string(id) +
                                  " is not in the package");
    }
    const MemorySpec& mem =
        package.chiplets()[static_cast<std::size_t>(pos)].memory;
    always_fits = always_fits && mem.weight_capacity_bytes <= 0.0 &&
                  mem.activation_capacity_bytes <= 0.0;
  }
  Schedule sched(pipeline, package);
  // Capacity tracking per pool member: resident weight bytes accumulate
  // across the chains a member hosts; the activation working set is the peak
  // over hosted layers. With all-unbounded memory (the default) the
  // preferred member always fits, reproducing the legacy round-robin
  // bitwise.
  const std::size_t psize = pool.size();
  std::vector<double> weight_used(psize, 0.0);
  std::vector<double> act_peak(psize, 0.0);
  int k = std::max(offset, 0);
  for (int st = 0; st < pipeline.num_stages(); ++st) {
    for (int mod = 0; mod < pipeline.stages[static_cast<std::size_t>(st)]
                                .num_models();
         ++mod) {
      const auto& items = sched.items_of_model(st, mod);
      double chain_weight = 0.0;
      double chain_act = 0.0;
      if (!always_fits) {
        for (const int item : items) {
          const LayerDesc& desc = *sched.item(item).desc;
          chain_weight += layer_weight_bytes(desc);
          chain_act = std::max(chain_act, shard_activation_bytes(desc, 1.0));
        }
      }
      // Round-robin preference with spill: probe forward from the preferred
      // member to the first one with room (deterministic; the round-robin
      // pointer itself still advances by one chain).
      int chosen = -1;
      for (std::size_t j = 0; j < psize; ++j) {
        const std::size_t m = (static_cast<std::size_t>(k) + j) % psize;
        const MemorySpec& mem =
            package.chiplet(pool[m]).memory;
        const bool w_ok = mem.weight_capacity_bytes <= 0.0 ||
                          weight_used[m] + chain_weight <=
                              mem.weight_capacity_bytes;
        const bool a_ok = mem.activation_capacity_bytes <= 0.0 ||
                          std::max(act_peak[m], chain_act) <=
                              mem.activation_capacity_bytes;
        if (w_ok && a_ok) {
          chosen = static_cast<int>(m);
          break;
        }
      }
      if (chosen < 0) {
        const auto& stage = pipeline.stages[static_cast<std::size_t>(st)];
        throw std::invalid_argument(
            "build_pool_schedule: no chiplet in the pool has memory room for "
            "model '" +
            stage.models[static_cast<std::size_t>(mod)].model.name +
            "' (stage '" + stage.name + "', chain weights " +
            std::to_string(chain_weight) + " B, peak activations " +
            std::to_string(chain_act) + " B, pool size " +
            std::to_string(psize) + ")");
      }
      const std::size_t m = static_cast<std::size_t>(chosen);
      weight_used[m] += chain_weight;
      act_peak[m] = std::max(act_peak[m], chain_act);
      for (const int item : items) {
        sched.assign(item, pool[m]);
      }
      ++k;
    }
  }
  return sched;
}

int busiest_non_io_chiplet(const ScheduleMetrics& metrics,
                           const PackageConfig& package) {
  int best = -1;
  double best_busy = -1.0;
  for (const auto& cu : metrics.chiplets) {
    if (package.io_port_attached_to(cu.chiplet_id)) continue;
    if (cu.busy_s > best_busy) {
      best_busy = cu.busy_s;
      best = cu.chiplet_id;
    }
  }
  return best;
}

}  // namespace cnpu
