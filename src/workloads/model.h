// Workload containers: Model (a layer chain), Stage (concurrent models),
// PerceptionPipeline (the four Autopilot stages).
#pragma once

#include <string>
#include <vector>

#include "dataflow/layer.h"

namespace cnpu {

// A named sequential chain of layers (one DNN or DNN fragment). Parallel
// branches in the pipeline are expressed as separate concurrent Models
// within a Stage, matching how the scheduler assigns work.
struct Model {
  std::string name;
  std::vector<LayerDesc> layers;

  double macs() const { return total_macs(layers); }
  // Bytes produced by the final layer; what the NoP carries to the next
  // consumer.
  double output_bytes() const {
    return layers.empty() ? 0.0 : layers.back().output_bytes();
  }
  int num_layers() const { return static_cast<int>(layers.size()); }
};

struct StageModel {
  Model model;
  // Prefix models run before the stage's parallel models (e.g. the trunk
  // stage's shared BEV pooling/projection preamble).
  bool prefix = false;
};

// One perception stage: `models` execute concurrently on disjoint chiplet
// subsets (after any prefix models complete).
struct Stage {
  std::string name;
  std::vector<StageModel> models;

  double macs() const;
  int num_models() const { return static_cast<int>(models.size()); }
  std::vector<const Model*> parallel_models() const;
  int num_prefix_models() const;
};

// The full four-stage pipeline (FE+BFPN, S_FUSE, T_FUSE, TRUNKS).
struct PerceptionPipeline {
  std::string name;
  std::vector<Stage> stages;

  double macs() const;
  int num_stages() const { return static_cast<int>(stages.size()); }
  // Flattened (stage index, model pointer) list, prefixes included.
  std::vector<const Model*> all_models() const;
};

}  // namespace cnpu
