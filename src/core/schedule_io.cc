#include "core/schedule_io.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.h"

namespace cnpu {
namespace {

void emit_metrics(JsonWriter& w, const ScheduleMetrics& m) {
  w.begin_object();
  w.key("e2e_ms").value(m.e2e_s * 1e3);
  w.key("pipe_ms").value(m.pipe_s * 1e3);
  w.key("energy_j").value(m.energy_j());
  w.key("edp_j_ms").value(m.edp_j_ms());
  w.key("utilization").value(m.utilization);
  w.key("total_gmacs").value(m.total_macs / 1e9);
  w.key("chiplets_used").value(m.chiplets_used());
  w.key("nop").begin_object();
  w.key("latency_ms").value(m.nop.latency_s * 1e3);
  w.key("energy_mj").value(m.nop.energy_j * 1e3);
  w.end_object();
  w.key("stages").begin_array();
  for (const auto& s : m.stages) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("e2e_ms").value(s.e2e_s * 1e3);
    w.key("pipe_ms").value(s.pipe_s * 1e3);
    w.key("energy_j").value(s.energy_j());
    w.key("chiplets").value(s.chiplets_used);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

std::string metrics_to_json(const ScheduleMetrics& metrics) {
  JsonWriter w;
  emit_metrics(w, metrics);
  return w.str();
}

std::string schedule_to_json(const Schedule& schedule,
                             const ScheduleMetrics& metrics) {
  const PackageConfig& pkg = schedule.package();
  JsonWriter w;
  w.begin_object();
  w.key("pipeline").value(schedule.pipeline().name);

  w.key("package").begin_object();
  w.key("chiplets").begin_array();
  for (const auto& c : pkg.chiplets()) {
    w.begin_object();
    w.key("id").value(c.id);
    w.key("npu").value(c.npu);
    w.key("row").value(c.coord.row);
    w.key("col").value(c.coord.col);
    w.key("dataflow").value(dataflow_name(c.dataflow()));
    w.key("pes").value(static_cast<int>(c.array.num_pes));
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("placements").begin_array();
  for (int i = 0; i < schedule.num_items(); ++i) {
    const Schedule::Item& it = schedule.item(i);
    const Placement& p = schedule.placement(i);
    w.begin_object();
    w.key("stage").value(it.stage);
    w.key("model").value(it.model);
    w.key("layer").value(it.desc->name);
    w.key("op").value(op_kind_name(it.desc->kind));
    w.key("gmacs").value(it.desc->macs() / 1e9);
    w.key("shards").begin_array();
    for (const auto& sh : p.shards) {
      w.begin_object();
      w.key("chiplet").value(sh.chiplet_id);
      w.key("fraction").value(sh.fraction);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("metrics");
  emit_metrics(w, metrics);
  w.end_object();
  return w.str();
}

bool write_json_file(const std::string& path, const std::string& json) {
  std::ofstream file(path);
  if (!file) return false;
  file << json << "\n";
  return static_cast<bool>(file);
}

// --- Round-trip bundle format ---

namespace {

constexpr const char* kBundleFormat = "cnpu_schedule_bundle_v1";

OpKind op_kind_from_name(const std::string& name) {
  for (OpKind k : {OpKind::kConv2D, OpKind::kDepthwiseConv,
                   OpKind::kTransposedConv, OpKind::kGemm, OpKind::kElementwise,
                   OpKind::kPool}) {
    if (name == op_kind_name(k)) return k;
  }
  throw std::invalid_argument("schedule bundle: unknown op kind \"" + name +
                              "\"");
}

DataflowKind dataflow_from_name(const std::string& name) {
  for (DataflowKind k :
       {DataflowKind::kOutputStationary, DataflowKind::kWeightStationary}) {
    if (name == dataflow_name(k)) return k;
  }
  throw std::invalid_argument("schedule bundle: unknown dataflow \"" + name +
                              "\"");
}

void emit_layer(JsonWriter& w, const LayerDesc& d) {
  w.begin_object();
  w.key("name").value(d.name);
  w.key("op").value(op_kind_name(d.kind));
  w.key("k").value_precise(static_cast<double>(d.k));
  w.key("c").value_precise(static_cast<double>(d.c));
  w.key("y").value_precise(static_cast<double>(d.y));
  w.key("x").value_precise(static_cast<double>(d.x));
  w.key("r").value_precise(static_cast<double>(d.r));
  w.key("s").value_precise(static_cast<double>(d.s));
  w.key("stride").value_precise(static_cast<double>(d.stride));
  w.key("heads").value(d.heads);
  w.key("streaming_weights").value(d.streaming_weights);
  w.end_object();
}

LayerDesc parse_layer(const JsonValue& j) {
  LayerDesc d;
  d.name = j.at("name").as_string();
  d.kind = op_kind_from_name(j.at("op").as_string());
  d.k = j.at("k").as_int();
  d.c = j.at("c").as_int();
  d.y = j.at("y").as_int();
  d.x = j.at("x").as_int();
  d.r = j.at("r").as_int();
  d.s = j.at("s").as_int();
  d.stride = j.at("stride").as_int();
  d.heads = static_cast<int>(j.at("heads").as_int());
  d.streaming_weights = j.at("streaming_weights").as_bool();
  return d;
}

void emit_chiplet(JsonWriter& w, const ChipletSpec& c) {
  w.begin_object();
  w.key("id").value(c.id);
  w.key("npu").value(c.npu);
  w.key("row").value(c.coord.row);
  w.key("col").value(c.coord.col);
  w.key("array").begin_object();
  w.key("dataflow").value(dataflow_name(c.array.dataflow));
  w.key("num_pes").value_precise(static_cast<double>(c.array.num_pes));
  w.key("array_h").value_precise(static_cast<double>(c.array.array_h));
  w.key("array_w").value_precise(static_cast<double>(c.array.array_w));
  w.key("tile_h").value_precise(static_cast<double>(c.array.tile_h));
  w.key("tile_w").value_precise(static_cast<double>(c.array.tile_w));
  w.key("frequency_hz").value_precise(c.array.frequency_hz);
  w.key("gb_bandwidth").value_precise(c.array.gb_bandwidth);
  w.end_object();
  w.key("memory").begin_object();
  w.key("weight_capacity_bytes").value_precise(c.memory.weight_capacity_bytes);
  w.key("activation_capacity_bytes")
      .value_precise(c.memory.activation_capacity_bytes);
  w.key("reload_bandwidth_bytes_per_s")
      .value_precise(c.memory.reload_bandwidth_bytes_per_s);
  w.end_object();
  w.end_object();
}

// The cost model multiplies tile dimensions in int64 (tile_h * tile_w in
// analyze_os, analyze_ws and mapping_cost): below 2^31 each, the product
// fits.
constexpr std::int64_t kMaxArrayDim = (std::int64_t{1} << 31) - 1;
// Routing walks mesh coordinates, NPU indices and substrate hops one hop at
// a time, and mesh_hops subtracts coordinates in int, so their run time and
// range grow with these values. Every geometry cnpu builds is far inside
// the caps: mesh row and col in [0, 4096), npu in [0, 64), inter_npu_hops
// in [0, 64].
constexpr std::int64_t kMaxMeshCoord = 4095;
constexpr std::int64_t kMaxNpu = 63;
constexpr std::int64_t kMaxInterNpuHops = 64;

// Reads the integer `key` of `obj`, rejecting a value outside [lo, hi] with
// a message naming `owner` (e.g. "chiplet 3 ") and the key.
std::int64_t int_in_range(const JsonValue& obj, const char* key,
                          std::int64_t lo, std::int64_t hi,
                          const std::string& owner) {
  const std::int64_t v = obj.at(key).as_int();
  if (v < lo || v > hi) {
    throw std::invalid_argument("schedule bundle: " + owner + key + " = " +
                                std::to_string(v) + " is outside [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return v;
}

// A mesh position: row, col and npu of a chiplet or failed site.
void parse_site(const JsonValue& j, const std::string& owner,
                ChipletSpec& c) {
  c.npu = static_cast<int>(int_in_range(j, "npu", 0, kMaxNpu, owner));
  c.coord.row =
      static_cast<int>(int_in_range(j, "row", 0, kMaxMeshCoord, owner));
  c.coord.col =
      static_cast<int>(int_in_range(j, "col", 0, kMaxMeshCoord, owner));
}

ChipletSpec parse_chiplet(const JsonValue& j) {
  ChipletSpec c;
  c.id = static_cast<int>(j.at("id").as_int());
  const std::string owner = "chiplet " + std::to_string(c.id) + " ";
  parse_site(j, owner, c);
  const JsonValue& a = j.at("array");
  const std::string array_owner = owner + "array.";
  c.array.dataflow = dataflow_from_name(a.at("dataflow").as_string());
  c.array.num_pes = int_in_range(a, "num_pes", 1,
                                 std::numeric_limits<std::int64_t>::max(),
                                 array_owner);
  c.array.array_h = int_in_range(a, "array_h", 1, kMaxArrayDim, array_owner);
  c.array.array_w = int_in_range(a, "array_w", 1, kMaxArrayDim, array_owner);
  c.array.tile_h = int_in_range(a, "tile_h", 1, kMaxArrayDim, array_owner);
  c.array.tile_w = int_in_range(a, "tile_w", 1, kMaxArrayDim, array_owner);
  c.array.frequency_hz = a.at("frequency_hz").as_double();
  c.array.gb_bandwidth = a.at("gb_bandwidth").as_double();
  const JsonValue& m = j.at("memory");
  c.memory.weight_capacity_bytes = m.at("weight_capacity_bytes").as_double();
  c.memory.activation_capacity_bytes =
      m.at("activation_capacity_bytes").as_double();
  c.memory.reload_bandwidth_bytes_per_s =
      m.at("reload_bandwidth_bytes_per_s").as_double();
  return c;
}

}  // namespace

std::string bundle_to_json(const Schedule& schedule) {
  const PerceptionPipeline& pipe = schedule.pipeline();
  const PackageConfig& pkg = schedule.package();
  JsonWriter w;
  w.begin_object();
  w.key("format").value(kBundleFormat);

  w.key("pipeline").begin_object();
  w.key("name").value(pipe.name);
  w.key("stages").begin_array();
  for (const Stage& stage : pipe.stages) {
    w.begin_object();
    w.key("name").value(stage.name);
    w.key("models").begin_array();
    for (const StageModel& sm : stage.models) {
      w.begin_object();
      w.key("name").value(sm.model.name);
      w.key("prefix").value(sm.prefix);
      w.key("layers").begin_array();
      for (const LayerDesc& d : sm.model.layers) emit_layer(w, d);
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("package").begin_object();
  w.key("inter_npu_hops").value(pkg.inter_npu_hops());
  w.key("nop").begin_object();
  w.key("bandwidth_bytes_per_s").value_precise(pkg.nop().bandwidth_bytes_per_s);
  w.key("hop_latency_s").value_precise(pkg.nop().hop_latency_s);
  w.key("energy_per_bit_pj").value_precise(pkg.nop().energy_per_bit_pj);
  w.end_object();
  w.key("chiplets").begin_array();
  for (const ChipletSpec& c : pkg.chiplets()) emit_chiplet(w, c);
  w.end_array();
  w.key("failed_sites").begin_array();
  for (const FailedSite& f : pkg.failed_sites()) {
    w.begin_object();
    w.key("chiplet_id").value(f.chiplet_id);
    w.key("row").value(f.coord.row);
    w.key("col").value(f.coord.col);
    w.key("npu").value(f.npu);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Index-aligned with the schedule's item list (which is fully determined
  // by the pipeline structure); an empty shard list means unassigned.
  w.key("placements").begin_array();
  for (int i = 0; i < schedule.num_items(); ++i) {
    w.begin_array();
    for (const ShardAssignment& sh : schedule.placement(i).shards) {
      w.begin_object();
      w.key("chiplet").value(sh.chiplet_id);
      w.key("fraction").value_precise(sh.fraction);
      w.end_object();
    }
    w.end_array();
  }
  w.end_array();

  w.end_object();
  return w.str();
}

ScheduleBundle bundle_from_json(const std::string& json) {
  const JsonValue doc = parse_json(json);
  const std::string& format = doc.at("format").as_string();
  if (format != kBundleFormat) {
    throw std::invalid_argument("schedule bundle: unsupported format \"" +
                                format + "\" (expected " + kBundleFormat +
                                ")");
  }

  ScheduleBundle bundle;
  bundle.pipeline = std::make_unique<PerceptionPipeline>();
  const JsonValue& pj = doc.at("pipeline");
  bundle.pipeline->name = pj.at("name").as_string();
  for (const JsonValue& sj : pj.at("stages").items()) {
    Stage stage;
    stage.name = sj.at("name").as_string();
    for (const JsonValue& mj : sj.at("models").items()) {
      StageModel sm;
      sm.model.name = mj.at("name").as_string();
      sm.prefix = mj.at("prefix").as_bool();
      for (const JsonValue& lj : mj.at("layers").items()) {
        sm.model.layers.push_back(parse_layer(lj));
      }
      stage.models.push_back(std::move(sm));
    }
    bundle.pipeline->stages.push_back(std::move(stage));
  }

  const JsonValue& kj = doc.at("package");
  std::vector<ChipletSpec> specs;
  std::set<int> seen_ids;
  for (const JsonValue& cj : kj.at("chiplets").items()) {
    specs.push_back(parse_chiplet(cj));
    if (!seen_ids.insert(specs.back().id).second) {
      throw std::invalid_argument("schedule bundle: duplicate chiplet id " +
                                  std::to_string(specs.back().id));
    }
  }
  // Failed positions re-enter the package as placeholder dies (appended
  // after the survivors, so the surviving list keeps its exported order)
  // and are then removed in the recorded order: without_chiplet replays
  // each failure, recreating identical degraded-routing state.
  struct FailedEntry {
    int chiplet_id;
  };
  std::vector<FailedEntry> removals;
  for (const JsonValue& fj : kj.at("failed_sites").items()) {
    ChipletSpec ph =
        make_chiplet(static_cast<int>(fj.at("chiplet_id").as_int()), 0, 0);
    parse_site(fj, "failed site " + std::to_string(ph.id) + " ", ph);
    if (!seen_ids.insert(ph.id).second) {
      throw std::invalid_argument(
          "schedule bundle: failed site reuses chiplet id " +
          std::to_string(ph.id));
    }
    removals.push_back(FailedEntry{ph.id});
    specs.push_back(ph);
  }
  const JsonValue& nj = kj.at("nop");
  NopParams nop;
  nop.bandwidth_bytes_per_s = nj.at("bandwidth_bytes_per_s").as_double();
  nop.hop_latency_s = nj.at("hop_latency_s").as_double();
  nop.energy_per_bit_pj = nj.at("energy_per_bit_pj").as_double();
  bundle.package =
      std::make_unique<PackageConfig>(std::move(specs), nop);
  bundle.package->set_inter_npu_hops(
      static_cast<int>(int_in_range(kj, "inter_npu_hops", 0,
                                    kMaxInterNpuHops, "package ")));
  for (const FailedEntry& f : removals) {
    *bundle.package = bundle.package->without_chiplet(f.chiplet_id);
  }

  bundle.schedule =
      std::make_unique<Schedule>(*bundle.pipeline, *bundle.package);
  const JsonValue& placements = doc.at("placements");
  if (static_cast<int>(placements.size()) != bundle.schedule->num_items()) {
    std::ostringstream msg;
    msg << "schedule bundle: " << placements.size()
        << " placements for a pipeline with " << bundle.schedule->num_items()
        << " schedulable layers";
    throw std::invalid_argument(msg.str());
  }
  for (int i = 0; i < bundle.schedule->num_items(); ++i) {
    std::vector<ShardAssignment> shards;
    for (const JsonValue& shj :
         placements.at(static_cast<std::size_t>(i)).items()) {
      ShardAssignment sh;
      sh.chiplet_id = static_cast<int>(shj.at("chiplet").as_int());
      sh.fraction = shj.at("fraction").as_double();
      shards.push_back(sh);
    }
    // Verbatim restore: malformed placements (bad fractions, dangling ids)
    // must survive the load so the linter can report them.
    bundle.schedule->restore_placement(i, std::move(shards));
  }
  return bundle;
}

ScheduleBundle load_schedule_bundle(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("schedule bundle: cannot read " + path);
  }
  std::ostringstream text;
  text << file.rdbuf();
  return bundle_from_json(text.str());
}

}  // namespace cnpu
