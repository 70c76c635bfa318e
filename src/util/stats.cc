#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cnpu {

double mean(const std::vector<double>& xs) {
  // NaN, not 0, for empty input: a 0 mean over nothing reads as a real
  // measurement downstream.
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double min_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  // NaN poisons the rank: NaN comparisons violate std::sort's strict weak
  // ordering (undefined behavior), and a rank over data that includes
  // not-a-measurement entries (e.g. dropped-frame latencies) is
  // meaningless anyway. Callers that want the rank over the finite subset
  // filter the NaNs out first.
  for (const double x : xs) {
    if (std::isnan(x)) return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(xs.begin(), xs.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double percentile_sorted(const std::vector<double>& xs, double p) {
  if (xs.empty()) return std::numeric_limits<double>::quiet_NaN();
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace cnpu
