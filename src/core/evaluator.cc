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

template <typename T>
void ShardCostTable::make_room(Extent& e, std::vector<T>& buf,
                               std::size_t size) {
  if (size <= e.capacity) return;
  const std::size_t begin = buf.size();
  e.capacity = std::max(size, 2 * e.capacity);
  buf.resize(begin + e.capacity);
  std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(e.begin), e.size,
              buf.begin() + static_cast<std::ptrdiff_t>(begin));
  e.begin = begin;
}

template <typename Fn>
void ShardCostTable::for_each_input(int stage, int model, Fn&& fn) const {
  const PerceptionPipeline& pipe = s_->pipeline();
  if (s_->items_of_model(stage, model).empty()) return;
  if (stage == 0) {
    fn(-1);
    return;
  }
  if (pipe.stages[static_cast<std::size_t>(stage)]
          .models[static_cast<std::size_t>(model)]
          .prefix) {
    return;
  }
  const Stage& prev = pipe.stages[static_cast<std::size_t>(stage - 1)];
  for (int pm = 0; pm < prev.num_models(); ++pm) {
    if (!prev.models[static_cast<std::size_t>(pm)].prefix &&
        !s_->items_of_model(stage - 1, pm).empty()) {
      fn(pm);
    }
  }
}

ShardCostTable::ShardCostTable(const Schedule& s)
    : s_(&s),
      runs_(static_cast<std::size_t>(s.num_items())),
      chiplets_(static_cast<std::size_t>(s.package().num_chiplets())) {
  costs_.reserve(runs_.size());
  for (int i = 0; i < s.num_items(); ++i) {
    Run& run = runs_[static_cast<std::size_t>(i)];
    run.shards.begin = costs_.size();
    run.latency_s = price_into(s, i, costs_);
    run.shards.size = run.shards.capacity = costs_.size() - run.shards.begin;
    for (const ShardCost& c : shards(i)) {
      ++chiplets_[static_cast<std::size_t>(c.chiplet_pos)].shards;
    }
  }
  const PerceptionPipeline& pipe = s.pipeline();
  const std::size_t ns = pipe.stages.size();
  stage_busy_.resize(chiplets_.size() * ns);
  stage_pipe_.resize(ns);
  model_base_.assign(ns + 1, 0);
  for (std::size_t st = 0; st < ns; ++st) {
    model_base_[st + 1] = model_base_[st] + pipe.stages[st].num_models();
  }
  models_.resize(static_cast<std::size_t>(model_base_[ns]));
  std::size_t edges = 0;
  for (int st = 0; st < pipe.num_stages(); ++st) {
    const int models = pipe.stages[static_cast<std::size_t>(st)].num_models();
    for (int mod = 0; mod < models; ++mod) {
      ModelFold& f = model_fold(st, mod);
      f.in_begin = edges;
      for_each_input(st, mod, [&](int) { ++edges; });
      f.in_end = edges;
    }
  }
  in_edges_.resize(edges);
}

void ShardCostTable::build_members() {
  for (ChipletFold& f : chiplets_) {
    f.members.begin = members_.size();
    f.members.capacity = static_cast<std::size_t>(f.shards);
    members_.resize(members_.size() + f.members.capacity);
  }
  for (int i = 0; i < s_->num_items(); ++i) {
    for (const ShardCost& c : shards(i)) {
      Extent& e = chiplets_[static_cast<std::size_t>(c.chiplet_pos)].members;
      members_[e.begin + e.size++] = Member{i, s_->item(i).stage, c.latency_s};
    }
  }
  members_built_ = true;
}

void ShardCostTable::add_member(int pos, const Member& m) {
  ChipletFold& f = chiplets_[static_cast<std::size_t>(pos)];
  f.stale = true;
  // After the item's earlier shards here: members stay in placement order.
  const std::span<Member> list = members(f);
  const auto at = std::upper_bound(
      list.begin(), list.end(), m.item,
      [](int item, const Member& x) { return item < x.item; });
  const std::size_t offset = static_cast<std::size_t>(at - list.begin());
  make_room(f.members, members_, f.members.size + 1);
  const std::span<Member> grown{members_.data() + f.members.begin,
                                f.members.size + 1};
  std::copy_backward(grown.begin() + static_cast<std::ptrdiff_t>(offset),
                     grown.end() - 1, grown.end());
  grown[offset] = m;
  ++f.members.size;
}

void ShardCostTable::remove_members(int pos, int idx) {
  ChipletFold& f = chiplets_[static_cast<std::size_t>(pos)];
  f.stale = true;
  const std::span<Member> list = members(f);
  const auto first = std::partition_point(
      list.begin(), list.end(), [&](const Member& x) { return x.item < idx; });
  const auto last = std::partition_point(
      first, list.end(), [&](const Member& x) { return x.item == idx; });
  std::copy(last, list.end(), first);
  f.members.size -= static_cast<std::size_t>(last - first);
}

void ShardCostTable::reprice(int idx) {
  scratch_.clear();
  const double latency = price_into(*s_, idx, scratch_);
  Run& run = runs_[static_cast<std::size_t>(idx)];
  if (!members_built_) build_members();
  const Schedule::Item& it = s_->item(idx);
  for (const ShardCost& c : shards(idx)) {
    --chiplets_[static_cast<std::size_t>(c.chiplet_pos)].shards;
    remove_members(c.chiplet_pos, idx);
  }
  for (const ShardCost& c : scratch_) {
    ++chiplets_[static_cast<std::size_t>(c.chiplet_pos)].shards;
    add_member(c.chiplet_pos, Member{idx, it.stage, c.latency_s});
  }
  chiplets_stale_ = true;
  make_room(run.shards, costs_, scratch_.size());
  std::copy(scratch_.begin(), scratch_.end(),
            costs_.begin() + static_cast<std::ptrdiff_t>(run.shards.begin));
  run.shards.size = scratch_.size();
  run.latency_s = latency;
  run.chain_priced = false;
  if (it.layer > 0) {
    runs_[static_cast<std::size_t>(idx) - 1].chain_priced = false;
  }
  ModelFold& own = model_fold(it.stage, it.model);
  own.chain_stale = true;
  if (it.layer == 0) own.in_stale = true;
  const int next = it.stage + 1;
  if (!it.prefix && next < s_->pipeline().num_stages() &&
      s_->items_of_model(it.stage, it.model).back() == idx) {
    const int models =
        s_->pipeline().stages[static_cast<std::size_t>(next)].num_models();
    for (int mod = 0; mod < models; ++mod) {
      model_fold(next, mod).in_stale = true;
    }
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

std::span<const NopCost> ShardCostTable::input_edges(int stage, int model) {
  ModelFold& f = model_fold(stage, model);
  if (f.in_stale && f.in_begin != f.in_end) {
    const PackageConfig& pkg = s_->package();
    const Placement& to =
        s_->placement(s_->items_of_model(stage, model).front());
    NopCost* out = in_edges_.data() + f.in_begin;
    for_each_input(stage, model, [&](int pm) {
      if (pm < 0) {
        *out++ = nop_ingress_cost(pkg, to.primary_chiplet());
        return;
      }
      const StageModel& src =
          s_->pipeline().stages[static_cast<std::size_t>(stage - 1)]
              .models[static_cast<std::size_t>(pm)];
      *out++ = nop_gather_cost(
          pkg, s_->placement(s_->items_of_model(stage - 1, pm).back()), to,
          src.model.output_bytes());
    });
    f.in_stale = false;
  }
  return {in_edges_.data() + f.in_begin, f.in_end - f.in_begin};
}

void ShardCostTable::refold_chiplets() {
  if (!chiplets_stale_) return;
  if (!members_built_) {
    for_each_shard([](int, const ShardCost&) {});
    return;
  }
  const std::size_t ns = stage_pipe_.size();
  for (std::size_t p = 0; p < chiplets_.size(); ++p) {
    ChipletFold& f = chiplets_[p];
    if (!f.stale) continue;
    double* stage_busy = stage_busy_.data() + p * ns;
    std::fill_n(stage_busy, ns, 0.0);
    double busy = 0.0;
    for (const Member& m : members(f)) {
      busy += m.latency_s;
      stage_busy[static_cast<std::size_t>(m.stage)] += m.latency_s;
    }
    f.busy_s = busy;
    f.stale = false;
  }
  fold_stage_pipes();
}

void ShardCostTable::fold_stage_pipes() {
  const std::size_t ns = stage_pipe_.size();
  for (std::size_t st = 0; st < ns; ++st) {
    double pipe = 0.0;
    for (std::size_t p = 0; p < chiplets_.size(); ++p) {
      pipe = std::max(pipe, stage_busy_[p * ns + st]);
    }
    stage_pipe_[st] = pipe;
  }
  chiplets_stale_ = false;
}

double ShardCostTable::chiplet_busy_s(int pos) {
  refold_chiplets();
  return chiplets_[static_cast<std::size_t>(pos)].busy_s;
}

std::span<const double> ShardCostTable::chiplet_stage_busy_s(int pos) {
  refold_chiplets();
  const std::size_t ns = stage_pipe_.size();
  return {stage_busy_.data() + static_cast<std::size_t>(pos) * ns, ns};
}

double ShardCostTable::stage_pipe_s(int stage) {
  refold_chiplets();
  return stage_pipe_[static_cast<std::size_t>(stage)];
}

void ShardCostTable::add_chain_edges(int stage, int model, NopCost& nop) {
  const std::vector<int>& items = s_->items_of_model(stage, model);
  double chain = 0.0;
  for (std::size_t li = 0; li < items.size(); ++li) {
    chain += item_latency_s(items[li]);
    if (li + 1 < items.size()) {
      const NopCost& hop = chain_edge_cost(items[li]);
      nop += hop;
      chain += hop.latency_s;
    }
  }
  ModelFold& f = model_fold(stage, model);
  f.chain_s = chain;
  f.chain_stale = false;
}

double ShardCostTable::chain_s(int stage, int model) {
  ModelFold& f = model_fold(stage, model);
  if (f.chain_stale) {
    NopCost unused;
    add_chain_edges(stage, model, unused);
  }
  return f.chain_s;
}

double ShardCostTable::stage_e2e_s(int stage) {
  const Stage& st = s_->pipeline().stages[static_cast<std::size_t>(stage)];
  double prefix_chain = 0.0;
  double max_parallel_chain = 0.0;
  double max_input_edge = 0.0;
  for (int mod = 0; mod < st.num_models(); ++mod) {
    if (s_->items_of_model(stage, mod).empty()) continue;
    for (const NopCost& in : input_edges(stage, mod)) {
      max_input_edge = std::max(max_input_edge, in.latency_s);
    }
    const double chain = chain_s(stage, mod);
    if (st.models[static_cast<std::size_t>(mod)].prefix) {
      prefix_chain += chain;
    } else {
      max_parallel_chain = std::max(max_parallel_chain, chain);
    }
  }
  // Resource contention floor: models sharing a chiplet serialize.
  return std::max(prefix_chain + max_parallel_chain, stage_pipe_s(stage)) +
         max_input_edge;
}

int ShardCostTable::num_free_chiplets() const {
  int n = 0;
  for (const ChipletFold& f : chiplets_) n += f.shards == 0 ? 1 : 0;
  return n;
}

void ShardCostTable::free_chiplets(std::vector<int>& out) const {
  out.clear();
  const std::vector<ChipletSpec>& specs = s_->package().chiplets();
  for (std::size_t p = 0; p < chiplets_.size(); ++p) {
    if (chiplets_[p].shards == 0) out.push_back(specs[p].id);
  }
}

ScheduleMetrics evaluate_schedule(const Schedule& s) {
  ShardCostTable costs(s);
  return aggregate_schedule(costs);
}

ScheduleMetrics aggregate_schedule(ShardCostTable& costs) {
  ScheduleMetrics m;
  aggregate_schedule(costs, m);
  return m;
}

void aggregate_schedule(ShardCostTable& costs, ScheduleMetrics& m) {
  const Schedule& s = costs.schedule();
  const PerceptionPipeline& pipe = s.pipeline();
  const PackageConfig& pkg = s.package();
  const int num_stages = pipe.num_stages();
  const std::size_t ns = static_cast<std::size_t>(num_stages);

  m.stages.resize(ns);
  for (std::size_t st = 0; st < ns; ++st) {
    StageMetrics& sm = m.stages[st];
    sm.name = pipe.stages[st].name;
    sm.compute_energy_j = 0.0;
    sm.nop = NopCost{};
  }
  m.chiplets.resize(static_cast<std::size_t>(pkg.num_chiplets()));
  for (int c = 0; c < pkg.num_chiplets(); ++c) {
    ChipletUsage& u = m.chiplets[static_cast<std::size_t>(c)];
    u.chiplet_id = pkg.chiplets()[static_cast<std::size_t>(c)].id;
    u.macs = 0.0;
    u.energy_j = 0.0;
  }
  m.e2e_s = 0.0;
  m.pipe_s = 0.0;
  m.compute_energy_j = 0.0;
  m.nop = NopCost{};
  m.total_macs = 0.0;
  m.utilization = 0.0;

  // Pass 1: shard costs -> chiplet MACs and energy, compute energy.
  costs.for_each_shard([&](int stage, const ShardCost& c) {
    ChipletUsage& u = m.chiplets[static_cast<std::size_t>(c.chiplet_pos)];
    u.macs += c.macs;
    u.energy_j += c.energy_j;
    m.total_macs += c.macs;
    m.compute_energy_j += c.energy_j;
    m.stages[static_cast<std::size_t>(stage)].compute_energy_j += c.energy_j;
  });

  // Pass 2: NoP edges in edge order; pipe and E2E from the table's folds.
  double pipeline_e2e = 0.0;
  for (int st = 0; st < num_stages; ++st) {
    const Stage& stage = pipe.stages[static_cast<std::size_t>(st)];
    StageMetrics& sm = m.stages[static_cast<std::size_t>(st)];
    for (int mod = 0; mod < stage.num_models(); ++mod) {
      const StageModel& model = stage.models[static_cast<std::size_t>(mod)];
      const std::vector<int>& items = s.items_of_model(st, mod);
      if (items.empty()) continue;
      for (const NopCost& in : costs.input_edges(st, mod)) sm.nop += in;
      // Prefix handoff within the stage.
      if (st > 0 && !model.prefix) {
        const Placement& first = s.placement(items.front());
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
      costs.add_chain_edges(st, mod, sm.nop);
    }
    int used = 0;
    for (int c = 0; c < pkg.num_chiplets(); ++c) {
      if (costs.chiplet_stage_busy_s(c)[static_cast<std::size_t>(st)] > 0.0) {
        ++used;
      }
    }
    sm.chiplets_used = used;
    sm.pipe_s = costs.stage_pipe_s(st);
    sm.e2e_s = costs.stage_e2e_s(st);
    pipeline_e2e += sm.e2e_s;
    m.nop += sm.nop;
  }
  m.e2e_s = pipeline_e2e;

  // Steady-state initiation interval: the busiest chiplet per frame.
  double pe_seconds = 0.0;
  for (int c = 0; c < pkg.num_chiplets(); ++c) {
    ChipletUsage& u = m.chiplets[static_cast<std::size_t>(c)];
    const std::span<const double> stage_busy = costs.chiplet_stage_busy_s(c);
    u.stage_busy_s.assign(stage_busy.begin(), stage_busy.end());
    u.busy_s = costs.chiplet_busy_s(c);
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
}

int ScheduleMetrics::chiplets_used() const {
  int used = 0;
  for (const auto& u : chiplets) {
    if (u.busy_s > 0.0) ++used;
  }
  return used;
}

}  // namespace cnpu
