// Descriptive statistics helpers for benches and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace cnpu {

// Arithmetic mean; NaN for empty input (no data is not a 0 measurement —
// the same convention as percentile/min_of).
[[nodiscard]] double mean(const std::vector<double>& xs);
[[nodiscard]] double min_of(const std::vector<double>& xs);
[[nodiscard]] double max_of(const std::vector<double>& xs);
// Linear interpolated percentile; p in [0,100]. NaN for empty input or
// when ANY element is NaN — NaN-bearing data (e.g. dropped-frame
// latencies) would violate std::sort's strict weak ordering, and a rank
// mixing measurements with non-measurements is meaningless.
[[nodiscard]] double percentile(std::vector<double> xs, double p);
// Allocation-free percentile over data the CALLER has already sorted
// ascending (and filtered of NaNs): the exact rank/interpolation math of
// `percentile`, minus its defensive copy + sort. Hot reducers (the event
// simulator's per-run tail statistics) sort one scratch buffer once and
// take several ranks from it; `percentile(xs, p)` on the unsorted data is
// bitwise-equal to `percentile_sorted(sorted_xs, p)`. NaN for empty input.
// Precondition (unchecked): `sorted_xs` ascending, NaN-free.
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted_xs,
                                       double p);

}  // namespace cnpu
