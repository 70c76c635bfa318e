#include "dataflow/mapping_analysis.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "dataflow/calibration.h"

namespace cnpu {
namespace {

double ceil_div(double a, double b) { return std::ceil(a / b); }

// One loop of the canonical nest: spatial folds first (outermost), then the
// temporal directives in specification order.
struct Loop {
  LoopDim dim;
  double trips = 1.0;    // iterations of this loop
  double tile = 1.0;     // elements of `dim` per iteration / per lane-sweep
  bool is_fold = false;  // spatial fold
};

std::set<LoopDim> weight_dims(const LayerDesc& l) {
  switch (l.kind) {
    case OpKind::kGemm:
      return {LoopDim::kK, LoopDim::kC};
    case OpKind::kDepthwiseConv:
      return {LoopDim::kK, LoopDim::kR, LoopDim::kS};
    case OpKind::kElementwise:
    case OpKind::kPool:
      return {};
    default:
      return {LoopDim::kK, LoopDim::kC, LoopDim::kR, LoopDim::kS};
  }
}

std::set<LoopDim> input_dims(const LayerDesc& l) {
  switch (l.kind) {
    case OpKind::kGemm:
      return {LoopDim::kC, LoopDim::kY};
    case OpKind::kDepthwiseConv:
    case OpKind::kPool:
    case OpKind::kElementwise:
      return {LoopDim::kK, LoopDim::kY, LoopDim::kX, LoopDim::kR, LoopDim::kS};
    default:
      return {LoopDim::kC, LoopDim::kY, LoopDim::kX, LoopDim::kR, LoopDim::kS};
  }
}

std::set<LoopDim> output_dims() {
  return {LoopDim::kK, LoopDim::kY, LoopDim::kX};
}

}  // namespace

MappingAnalysis analyze_mapping(const LayerDesc& layer, const MappingSpec& spec,
                                const MappingAnalysisOptions& options) {
  assert(layer.validate().empty());
  assert(spec.validate().empty());

  MappingAnalysis out;
  out.mapping_name = spec.name;
  const double macs = layer.macs();

  // Build the canonical nest: spatial folds outermost, temporals in order.
  std::vector<Loop> nest;
  double lanes = 1.0;
  double useful_lanes = 1.0;
  // Per-dim spatial coverage (for operand footprints).
  std::vector<double> spatial_cover(6, 0.0);
  for (const auto& d : spec.order) {
    if (d.kind != Directive::Kind::kSpatial) continue;
    const double extent = static_cast<double>(loop_dim_size(layer, d.dim));
    double tile = static_cast<double>(d.tile);
    // Clamp total lanes to the array budget.
    tile = std::min(tile, std::max(1.0, static_cast<double>(options.max_lanes) / lanes));
    const double fold = ceil_div(extent, tile);
    lanes *= tile;
    useful_lanes *= std::min(extent, tile);
    spatial_cover[static_cast<std::size_t>(d.dim)] = std::min(extent, tile);
    nest.push_back(Loop{d.dim, fold, tile, true});
  }
  for (const auto& d : spec.order) {
    if (d.kind != Directive::Kind::kTemporal) continue;
    const double extent = static_cast<double>(loop_dim_size(layer, d.dim));
    const double tile = std::min(static_cast<double>(d.tile), extent);
    nest.push_back(Loop{d.dim, ceil_div(extent, tile), tile, false});
  }
  // Dims the spec does not cover are still part of the MAC iteration space:
  // the hardware serializes them as implicit innermost unit-tile loops.
  for (LoopDim d : {LoopDim::kK, LoopDim::kC, LoopDim::kY, LoopDim::kX,
                    LoopDim::kR, LoopDim::kS}) {
    const double extent = static_cast<double>(loop_dim_size(layer, d));
    if (extent <= 1.0) continue;
    bool covered = false;
    for (const auto& l : nest) {
      if (l.dim == d) covered = true;
    }
    if (!covered) nest.push_back(Loop{d, extent, 1.0, false});
  }

  out.lanes = lanes;
  // Utilization folds in both lane coverage and edge folds.
  double fold_waste = 1.0;
  for (const auto& l : nest) {
    if (!l.is_fold) continue;
    const double extent = static_cast<double>(loop_dim_size(layer, l.dim));
    fold_waste *= extent / (l.trips * std::min(l.tile, extent));
  }
  out.spatial_util = (useful_lanes / lanes) * fold_waste;

  double steps = 1.0;
  double tile_depth = 1.0;
  for (const auto& l : nest) {
    steps *= l.trips;
    if (!l.is_fold) tile_depth *= l.tile;
  }
  out.temporal_steps = steps;
  out.step_work = lanes * tile_depth;

  // Unmapped dims contribute their full extent to footprints.
  auto dim_mapped = [&](LoopDim d) {
    for (const auto& l : nest) {
      if (l.dim == d) return true;
    }
    return false;
  };

  auto analyze_operand = [&](const std::set<LoopDim>& relevant,
                             bool is_input) -> OperandStats {
    OperandStats s;
    if (relevant.empty()) return s;

    // Innermost loop whose dim matters to this operand.
    int innermost_relevant = -1;
    for (int i = 0; i < static_cast<int>(nest.size()); ++i) {
      if (relevant.count(nest[static_cast<std::size_t>(i)].dim)) {
        innermost_relevant = i;
      }
    }
    // Loads: every loop at or outside that position re-triggers a fetch.
    s.loads = 1.0;
    if (innermost_relevant >= 0) {
      for (int i = 0; i <= innermost_relevant; ++i) {
        s.loads *= nest[static_cast<std::size_t>(i)].trips;
      }
    }

    // Footprint per load: per relevant dim, the staged slice extent.
    auto contrib = [&](LoopDim d) -> double {
      const double extent = static_cast<double>(loop_dim_size(layer, d));
      if (spatial_cover[static_cast<std::size_t>(d)] > 0.0) {
        return spatial_cover[static_cast<std::size_t>(d)];
      }
      if (!dim_mapped(d)) return extent;
      for (const auto& l : nest) {
        if (l.dim == d && !l.is_fold) return std::min(l.tile, extent);
      }
      return extent;
    };
    double fp = 1.0;
    for (LoopDim d : relevant) {
      double c = contrib(d);
      if (is_input && (d == LoopDim::kY || d == LoopDim::kX) &&
          layer.kind != OpKind::kGemm) {
        // Sliding-window halo.
        const double taps = d == LoopDim::kY ? static_cast<double>(layer.r)
                                             : static_cast<double>(layer.s);
        c = c * static_cast<double>(layer.stride) + (taps - 1.0);
      }
      fp *= c;
    }
    s.footprint_per_load = fp;
    s.fetched_elems = s.loads * fp;
    return s;
  };

  out.weight = analyze_operand(weight_dims(layer), false);
  out.weight.unique_elems = layer.weight_elems();
  out.input = analyze_operand(input_dims(layer), true);
  out.input.unique_elems = layer.input_elems();
  out.output = analyze_operand(output_dims(), false);
  out.output.unique_elems = layer.output_elems();

  // Neighbor forwarding (the Shidiannao network) shares overlapping
  // stencil inputs across lanes when both Y and X are spatial.
  if (spatial_cover[static_cast<std::size_t>(LoopDim::kY)] > 0.0 &&
      spatial_cover[static_cast<std::size_t>(LoopDim::kX)] > 0.0 &&
      layer.effective_taps() > 1.0) {
    out.input.fetched_elems /= layer.effective_taps();
  }
  // Fetches never drop below the unique volume.
  out.input.fetched_elems = std::max(out.input.fetched_elems, out.input.unique_elems);
  out.weight.fetched_elems = std::max(out.weight.fetched_elems, out.weight.unique_elems);
  out.output.fetched_elems = std::max(out.output.fetched_elems, out.output.unique_elems);

  for (OperandStats* s : {&out.input, &out.weight, &out.output}) {
    s->reuse = s->fetched_elems > 0.0 ? macs / s->fetched_elems : 0.0;
  }
  out.psum_recirc_elems = out.output.fetched_elems - out.output.unique_elems;
  out.staging_elems = 2.0 * (out.input.footprint_per_load +
                             out.weight.footprint_per_load +
                             out.output.footprint_per_load);
  return out;
}

CostReport mapping_cost(const LayerDesc& layer, const MappingSpec& spec,
                        const PeArrayConfig& array) {
  MappingAnalysisOptions opt;
  opt.max_lanes = array.tile_h * array.tile_w;
  const MappingAnalysis a = analyze_mapping(layer, spec, opt);

  CostReport r;
  r.macs = layer.macs();
  r.spatial_util = a.spatial_util;
  const double rate_spatial = std::min(a.lanes * a.spatial_util,
                                       static_cast<double>(array.num_pes));
  // Partial sums recirculate as read+write traffic.
  const double traffic = a.input.fetched_elems + a.weight.fetched_elems +
                         a.output.unique_elems + 2.0 * a.psum_recirc_elems;
  const double rate_bw = array.gb_bandwidth * r.macs / std::max(traffic, 1.0);
  r.rate = std::max(1.0, std::min(rate_spatial, rate_bw));
  r.cycles = r.macs / r.rate + cal::kFillCycles;
  r.latency_s = r.cycles / array.frequency_hz;
  r.pe_occupancy = r.rate / static_cast<double>(array.num_pes);

  r.traffic.input_elems = a.input.fetched_elems;
  r.traffic.weight_elems = a.weight.fetched_elems;
  r.traffic.output_elems = a.output.unique_elems;
  r.traffic.psum_elems = 2.0 * a.psum_recirc_elems;

  r.energy.mac_pj = r.macs * cal::kEnergyMacPj;
  r.energy.l1_pj = r.macs * cal::kEnergyL1Pj;
  r.energy.l2_pj =
      (a.input.fetched_elems + a.weight.fetched_elems + a.output.unique_elems) *
      cal::kEnergyL2Pj;
  r.energy.psum_pj = 2.0 * a.psum_recirc_elems * cal::kEnergyPsumPj;
  r.energy.dram_pj = layer.weight_elems() * cal::kEnergyDramPj;
  return r;
}

}  // namespace cnpu
