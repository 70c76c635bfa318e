#include "core/residency.h"

#include <algorithm>

#include "util/strings.h"

namespace cnpu {

double layer_weight_bytes(const LayerDesc& layer) {
  if (!layer.has_weights() || layer.streaming_weights) return 0.0;
  return layer.weight_elems() * kActivationBytesPerElem;
}

double shard_activation_bytes(const LayerDesc& layer, double fraction) {
  const LayerDesc piece = shard_fraction(layer, fraction);
  return (piece.input_elems() + piece.output_elems()) * kActivationBytesPerElem;
}

const ChipletResidency* ResidencyReport::find(int chiplet_id) const {
  for (const auto& r : per_chiplet) {
    if (r.chiplet_id == chiplet_id) return &r;
  }
  return nullptr;
}

std::string ResidencyReport::describe_overflow() const {
  std::vector<std::string> parts;
  for (const auto& r : per_chiplet) {
    if (r.weight_overflow) {
      parts.push_back("chiplet " + std::to_string(r.chiplet_id) +
                      ": resident weights " + format_si(r.weight_bytes, 2) +
                      "B over capacity");
    }
    if (r.activation_overflow) {
      parts.push_back("chiplet " + std::to_string(r.chiplet_id) +
                      ": activation working set " +
                      format_si(r.activation_bytes, 2) + "B over capacity");
    }
  }
  return join(parts, "; ");
}

namespace {

// Accumulates one schedule's footprint into dense per-chiplet arrays.
// `weight` adds once per (item, chiplet); `act` takes the per-chiplet peak.
void accumulate_schedule(const Schedule& sched, const PackageConfig& package,
                         std::vector<double>& weight,
                         std::vector<double>& act) {
  std::vector<int> counted;  // chiplets already charged for this item
  for (int i = 0; i < sched.num_items(); ++i) {
    const LayerDesc& desc = *sched.item(i).desc;
    const double wbytes = layer_weight_bytes(desc);
    counted.clear();
    for (const auto& sh : sched.placement(i).shards) {
      const int pos = package.position_of(sh.chiplet_id);
      if (pos < 0) continue;  // stale shard on a removed chiplet
      const auto c = static_cast<std::size_t>(pos);
      act[c] = std::max(act[c], shard_activation_bytes(desc, sh.fraction));
      if (wbytes > 0.0 &&
          std::find(counted.begin(), counted.end(), sh.chiplet_id) ==
              counted.end()) {
        weight[c] += wbytes;
        counted.push_back(sh.chiplet_id);
      }
    }
  }
}

}  // namespace

ResidencyReport compute_residency(const std::vector<const Schedule*>& schedules,
                                  const PackageConfig& package) {
  const std::size_t nc = static_cast<std::size_t>(package.num_chiplets());
  std::vector<double> weight(nc, 0.0);
  std::vector<double> act(nc, 0.0);
  std::vector<double> sched_act(nc, 0.0);
  for (const Schedule* sched : schedules) {
    if (sched == nullptr) continue;
    std::fill(sched_act.begin(), sched_act.end(), 0.0);
    accumulate_schedule(*sched, package, weight, sched_act);
    for (std::size_t c = 0; c < nc; ++c) act[c] += sched_act[c];
  }

  ResidencyReport report;
  report.per_chiplet.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    const ChipletSpec& spec = package.chiplets()[c];
    ChipletResidency& r = report.per_chiplet[c];
    r.chiplet_id = spec.id;
    r.weight_bytes = weight[c];
    r.activation_bytes = act[c];
    const MemorySpec& mem = spec.memory;
    r.weight_overflow = mem.weight_capacity_bytes > 0.0 &&
                        r.weight_bytes > mem.weight_capacity_bytes;
    r.activation_overflow = mem.activation_capacity_bytes > 0.0 &&
                            r.activation_bytes > mem.activation_capacity_bytes;
    report.total_weight_bytes += r.weight_bytes;
    report.overflow = report.overflow || r.overflow();
  }
  return report;
}

ResidencyReport compute_residency(const Schedule& schedule) {
  return compute_residency({&schedule}, schedule.package());
}

}  // namespace cnpu
