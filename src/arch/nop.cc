#include "arch/nop.h"

namespace cnpu {

NopCost nop_transfer(const NopParams& params, double bytes, double hops) {
  NopCost cost;
  if (hops <= 0.0 || bytes <= 0.0) return cost;
  cost.latency_s =
      hops * (bytes / params.bandwidth_bytes_per_s) + hops * params.hop_latency_s;
  cost.energy_j = bytes * 8.0 * params.energy_per_bit_pj * 1e-12 * hops;
  return cost;
}

}  // namespace cnpu
