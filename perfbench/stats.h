// Order statistics for host-time samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (p in (0, 100]) of `values`; NaN when empty.
double percentile(std::vector<double> values, double p);

// Samples ranked strictly above the nearest-rank p-th percentile of n.
std::size_t samples_beyond(std::size_t n, double p);

// Samples laid out as consecutive rounds of `per_round` slots (sample k
// belongs to slot k % per_round): the p-th percentile of each slot's
// samples across the rounds. A trailing partial round is ignored.
std::vector<double> per_slot_percentile(const std::vector<double>& samples,
                                        std::size_t per_round, double p);

}  // namespace perfbench
