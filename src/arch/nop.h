// Network-on-Package cost model (paper Sec. IV-D, Simba @ 28 nm).
//
// Transmission latency = hops * (bytes / bandwidth) + hops * per-hop latency.
// Transmission energy  = bytes * per-bit energy * 8 * hops.
#pragma once

#include <cstdint>

namespace cnpu {

struct NopParams {
  double bandwidth_bytes_per_s = 100.0e9;  // 100 GB/s per chiplet link
  double hop_latency_s = 35.0e-9;          // 35 ns per hop
  double energy_per_bit_pj = 2.04;         // 2.04 pJ/bit
};

struct NopCost {
  double latency_s = 0.0;
  double energy_j = 0.0;

  NopCost& operator+=(const NopCost& o) {
    latency_s += o.latency_s;
    energy_j += o.energy_j;
    return *this;
  }
};

// Cost of moving `bytes` across `hops` mesh hops: the one NoP price, which
// nop_gather_cost and nop_ingress_cost (core/evaluator.h) apply. Zero hops
// (same chiplet) costs nothing: intra-chiplet movement is already in the
// compute model. `hops` may be a fraction-weighted mean (sharded producers
// gathering to one consumer); cost scales linearly with it and it is never
// rounded, so a sub-half-hop mean still pays its proportional share
// instead of rounding down to free.
NopCost nop_transfer(const NopParams& params, double bytes, double hops);

}  // namespace cnpu
