#include "core/evaluator.h"

#include <algorithm>
#include <stdexcept>

namespace cnpu {

double gather_hops(const PackageConfig& pkg, const Placement& from,
                   const Placement& to) {
  const int dst = to.primary_chiplet();
  double hops = 0.0;
  for (const auto& s : from.shards) {
    hops += s.fraction * pkg.hops_between(s.chiplet_id, dst);
  }
  return hops;
}

NopCost nop_gather_cost(const PackageConfig& pkg, const Placement& from,
                        const Placement& to, double bytes) {
  return nop_transfer(pkg.nop(), bytes, gather_hops(pkg, from, to));
}

NopCost nop_ingress_cost(const PackageConfig& pkg, int chiplet_id,
                         double bytes) {
  return nop_transfer(pkg.nop(), bytes, pkg.hops_from_io(chiplet_id));
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

namespace {

// Prices item `idx`'s shards in placement order, handing each report to
// `fn`; returns the item latency (max over shards).
template <typename Fn>
double price_item(const Schedule& s, int idx, Fn&& fn) {
  const Schedule::Item& it = s.item(idx);
  const Placement& p = s.placement(idx);
  if (!p.assigned()) {
    throw std::logic_error("unassigned layer: " + it.desc->name);
  }
  double latency = 0.0;
  for (const auto& shard : p.shards) {
    const CostReport r = analyze_shard(s.package(), *it.desc, shard);
    latency = std::max(latency, r.latency_s);
    fn(shard, r);
  }
  return latency;
}

// Appends item `idx`'s shard costs to `out`; returns the item latency.
double price_into(const Schedule& s, int idx, std::vector<ShardCost>& out) {
  return price_item(
      s, idx, [&](const ShardAssignment& shard, const CostReport& r) {
        out.push_back(ShardCost{s.package().position_of(shard.chiplet_id),
                                r.latency_s, r.macs, r.energy_j()});
      });
}

}  // namespace

double item_latency_s(const Schedule& s, int item_idx) {
  return price_item(s, item_idx,
                    [](const ShardAssignment&, const CostReport&) {});
}

ShardCostTable::ShardCostTable(const Schedule& s)
    : s_(&s),
      runs_(static_cast<std::size_t>(s.num_items())),
      shards_on_(static_cast<std::size_t>(s.package().num_chiplets()), 0) {
  costs_.reserve(runs_.size());
  for (int i = 0; i < s.num_items(); ++i) {
    Run& run = runs_[static_cast<std::size_t>(i)];
    run.begin = costs_.size();
    run.latency_s = price_into(s, i, costs_);
    run.size = run.capacity = costs_.size() - run.begin;
    for (const ShardCost& c : shards(i)) {
      ++shards_on_[static_cast<std::size_t>(c.chiplet_pos)];
    }
  }
}

void ShardCostTable::reprice(int idx) {
  scratch_.clear();
  const double latency = price_into(*s_, idx, scratch_);
  Run& run = runs_[static_cast<std::size_t>(idx)];
  for (const ShardCost& c : shards(idx)) {
    --shards_on_[static_cast<std::size_t>(c.chiplet_pos)];
  }
  for (const ShardCost& c : scratch_) {
    ++shards_on_[static_cast<std::size_t>(c.chiplet_pos)];
  }
  if (scratch_.size() > run.capacity) {
    run.begin = costs_.size();
    run.capacity = scratch_.size();
    costs_.insert(costs_.end(), scratch_.begin(), scratch_.end());
  } else {
    std::copy(scratch_.begin(), scratch_.end(),
              costs_.begin() + static_cast<std::ptrdiff_t>(run.begin));
  }
  run.size = scratch_.size();
  run.latency_s = latency;
  run.chain_priced = false;
  if (s_->item(idx).layer > 0) {
    runs_[static_cast<std::size_t>(idx) - 1].chain_priced = false;
  }
}

const NopCost& ShardCostTable::chain_edge_cost(int idx) {
  Run& run = runs_[static_cast<std::size_t>(idx)];
  if (!run.chain_priced) {
    run.chain = nop_gather_cost(s_->package(), s_->placement(idx),
                                s_->placement(idx + 1),
                                s_->item(idx).desc->output_bytes());
    run.chain_priced = true;
  }
  return run.chain;
}

std::vector<int> ShardCostTable::free_chiplets() const {
  const PackageConfig& pkg = s_->package();
  std::vector<int> out;
  for (const ChipletSpec& c : pkg.chiplets()) {
    if (shards_on_[static_cast<std::size_t>(pkg.position_of(c.id))] == 0) {
      out.push_back(c.id);
    }
  }
  return out;
}

ScheduleMetrics evaluate_schedule(const Schedule& s) {
  ShardCostTable costs(s);
  return aggregate_schedule(costs);
}

ScheduleMetrics aggregate_schedule(ShardCostTable& costs) {
  const Schedule& s = costs.schedule();
  const PerceptionPipeline& pipe = s.pipeline();
  const PackageConfig& pkg = s.package();
  const int num_stages = pipe.num_stages();

  ScheduleMetrics m;
  m.stages.resize(static_cast<std::size_t>(num_stages));
  m.chiplets.resize(static_cast<std::size_t>(pkg.num_chiplets()));
  for (int c = 0; c < pkg.num_chiplets(); ++c) {
    m.chiplets[static_cast<std::size_t>(c)].chiplet_id = pkg.chiplets()[static_cast<std::size_t>(c)].id;
    m.chiplets[static_cast<std::size_t>(c)].stage_busy_s.assign(
        static_cast<std::size_t>(num_stages), 0.0);
  }

  // Pass 1: shard costs -> chiplet usage + compute energy.
  for (int i = 0; i < s.num_items(); ++i) {
    const auto stage = static_cast<std::size_t>(s.item(i).stage);
    for (const ShardCost& c : costs.shards(i)) {
      ChipletUsage& u = m.chiplets[static_cast<std::size_t>(c.chiplet_pos)];
      u.busy_s += c.latency_s;
      u.stage_busy_s[stage] += c.latency_s;
      u.macs += c.macs;
      u.energy_j += c.energy_j;
      m.total_macs += c.macs;
      m.compute_energy_j += c.energy_j;
      m.stages[stage].compute_energy_j += c.energy_j;
    }
  }

  // Pass 2: chain E2Es + NoP edges.
  double pipeline_e2e = 0.0;
  for (int st = 0; st < num_stages; ++st) {
    const Stage& stage = pipe.stages[static_cast<std::size_t>(st)];
    StageMetrics& sm = m.stages[static_cast<std::size_t>(st)];
    sm.name = stage.name;

    double prefix_chain = 0.0;
    double max_parallel_chain = 0.0;
    double max_input_edge = 0.0;

    for (int mod = 0; mod < stage.num_models(); ++mod) {
      const StageModel& model = stage.models[static_cast<std::size_t>(mod)];
      const std::vector<int>& items = s.items_of_model(st, mod);
      if (items.empty()) continue;

      // Input edge(s) into this model's first layer.
      const Placement& first = s.placement(items.front());
      if (st == 0) {
        const NopCost in = nop_ingress_cost(pkg, first.primary_chiplet());
        sm.nop += in;
        max_input_edge = std::max(max_input_edge, in.latency_s);
      } else if (!model.prefix) {
        // From the previous stage's parallel model outputs (or, inside a
        // staged trunk, from the prefix model handled below).
        const Stage& prev = pipe.stages[static_cast<std::size_t>(st - 1)];
        for (int pm = 0; pm < prev.num_models(); ++pm) {
          if (prev.models[static_cast<std::size_t>(pm)].prefix) continue;
          const std::vector<int>& prev_items = s.items_of_model(st - 1, pm);
          if (prev_items.empty()) continue;
          const Placement& src = s.placement(prev_items.back());
          const double bytes =
              prev.models[static_cast<std::size_t>(pm)].model.output_bytes();
          const NopCost in = nop_gather_cost(pkg, src, first, bytes);
          sm.nop += in;
          max_input_edge = std::max(max_input_edge, in.latency_s);
        }
      }
      // Prefix handoff within the stage.
      if (st > 0 && !model.prefix) {
        for (int pm = 0; pm < stage.num_models(); ++pm) {
          if (!stage.models[static_cast<std::size_t>(pm)].prefix) continue;
          const std::vector<int>& pre_items = s.items_of_model(st, pm);
          if (pre_items.empty()) continue;
          const Placement& src = s.placement(pre_items.back());
          const double bytes =
              stage.models[static_cast<std::size_t>(pm)].model.output_bytes();
          sm.nop += nop_gather_cost(pkg, src, first, bytes);
        }
      }

      // Chain latency: items + intra-model transfer edges.
      double chain = 0.0;
      for (std::size_t li = 0; li < items.size(); ++li) {
        const int idx = items[li];
        chain += costs.item_latency_s(idx);
        if (li + 1 < items.size()) {
          const NopCost hop = costs.chain_edge_cost(idx);
          sm.nop += hop;
          chain += hop.latency_s;
        }
      }
      if (model.prefix) {
        prefix_chain += chain;
      } else {
        max_parallel_chain = std::max(max_parallel_chain, chain);
      }
    }

    // Resource contention floor: models sharing a chiplet serialize.
    double max_stage_busy = 0.0;
    int used = 0;
    for (const auto& u : m.chiplets) {
      const double busy = u.stage_busy_s[static_cast<std::size_t>(st)];
      max_stage_busy = std::max(max_stage_busy, busy);
      if (busy > 0.0) ++used;
    }
    sm.chiplets_used = used;
    sm.pipe_s = max_stage_busy;
    sm.e2e_s = std::max(prefix_chain + max_parallel_chain, max_stage_busy) +
               max_input_edge;
    pipeline_e2e += sm.e2e_s;
    m.nop += sm.nop;
  }
  m.e2e_s = pipeline_e2e;

  // Steady-state initiation interval: the busiest chiplet per frame.
  double pe_seconds = 0.0;
  for (const auto& u : m.chiplets) {
    m.pipe_s = std::max(m.pipe_s, u.busy_s);
    if (u.busy_s > 0.0) {
      pe_seconds += u.busy_s *
                    static_cast<double>(pkg.chiplet(u.chiplet_id).array.num_pes);
    }
  }
  const double freq = pkg.chiplets().empty()
                          ? cal::kFrequencyHz
                          : pkg.chiplets().front().array.frequency_hz;
  m.utilization = pe_seconds > 0.0 ? m.total_macs / (pe_seconds * freq) : 0.0;
  return m;
}

int ScheduleMetrics::chiplets_used() const {
  int used = 0;
  for (const auto& u : chiplets) {
    if (u.busy_s > 0.0) ++used;
  }
  return used;
}

}  // namespace cnpu
