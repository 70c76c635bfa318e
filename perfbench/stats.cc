#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {
namespace {

// 1-based nearest rank of the p-th percentile among n samples.
std::size_t nearest_rank(std::size_t n, double p) {
  const double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const std::size_t k = nearest_rank(values.size(), p) - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::vector<double> per_slot_percentile(const std::vector<double>& samples,
                                        std::size_t per_round, double p) {
  const std::size_t rounds = per_round == 0 ? 0 : samples.size() / per_round;
  std::vector<double> out;
  if (rounds == 0) return out;
  std::vector<double> slot(rounds);
  for (std::size_t i = 0; i < per_round; ++i) {
    for (std::size_t r = 0; r < rounds; ++r) slot[r] = samples[r * per_round + i];
    out.push_back(percentile(slot, p));
  }
  return out;
}

}  // namespace perfbench
