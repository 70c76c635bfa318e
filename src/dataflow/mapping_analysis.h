// First-principles analysis of a directive mapping (MAESTRO-style).
//
// Given a layer and a MappingSpec, derives:
//  * spatial lanes engaged and their utilization,
//  * temporal steps (including spatial folds, treated as outermost loops),
//  * per-operand unique footprints, tile loads, fetched volumes and reuse,
//    under a single-tile staging buffer model: an operand tile is re-fetched
//    whenever any loop at or outside its innermost relevant loop advances,
//  * partial-sum recirculation (output fetches beyond the unique volume),
//  * staging-buffer footprint.
//
// mapping_cost() turns an analysis into a CostReport with the same
// calibration constants as the closed-form models, giving an independent
// estimator used for cross-checks (tests) and for exploring dataflows beyond
// the paper's OS/WS pair (e.g. the Eyeriss-like row-stationary template).
#pragma once

#include "dataflow/cost_model.h"
#include "dataflow/directive.h"

namespace cnpu {

struct OperandStats {
  double unique_elems = 0.0;       // distinct elements of the operand
  double footprint_per_load = 0.0; // staged tile size, elements
  double loads = 0.0;              // tile loads over the layer
  double fetched_elems = 0.0;      // loads * footprint
  double reuse = 0.0;              // MACs per fetched element
};

struct MappingAnalysis {
  std::string mapping_name;
  double lanes = 0.0;           // spatial lanes engaged (product of tiles)
  double spatial_util = 0.0;    // useful fraction of those lanes
  double temporal_steps = 0.0;  // tile iterations incl. spatial folds
  double step_work = 0.0;       // MAC capacity per temporal step
  OperandStats input;
  OperandStats weight;
  OperandStats output;
  // Output traffic beyond the unique volume: partial sums recirculating
  // because a reduction loop sits outside the output's innermost loop.
  double psum_recirc_elems = 0.0;
  // Staging footprint (sum of per-operand tiles, double-buffered).
  double staging_elems = 0.0;
};

struct MappingAnalysisOptions {
  // Lanes are clamped to this many PEs.
  std::int64_t max_lanes = 256;
};

MappingAnalysis analyze_mapping(const LayerDesc& layer, const MappingSpec& spec,
                                const MappingAnalysisOptions& options = {});

// CostReport derived from the directive analysis with the calibration
// constants (bandwidth from `array`, energies from calibration.h).
CostReport mapping_cost(const LayerDesc& layer, const MappingSpec& spec,
                        const PeArrayConfig& array);

}  // namespace cnpu
