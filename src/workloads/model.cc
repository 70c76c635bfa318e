#include "workloads/model.h"

namespace cnpu {

double Stage::macs() const {
  double acc = 0.0;
  for (const auto& m : models) acc += m.model.macs();
  return acc;
}

std::vector<const Model*> Stage::parallel_models() const {
  std::vector<const Model*> out;
  for (const auto& m : models) {
    if (!m.prefix) out.push_back(&m.model);
  }
  return out;
}

int Stage::num_prefix_models() const {
  int n = 0;
  for (const auto& m : models) {
    if (m.prefix) ++n;
  }
  return n;
}

double PerceptionPipeline::macs() const {
  double acc = 0.0;
  for (const auto& s : stages) acc += s.macs();
  return acc;
}

std::vector<const Model*> PerceptionPipeline::all_models() const {
  std::vector<const Model*> out;
  for (const auto& s : stages) {
    for (const auto& m : s.models) out.push_back(&m.model);
  }
  return out;
}

}  // namespace cnpu
