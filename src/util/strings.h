// Small string/number formatting helpers shared by tables and reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cnpu {

// Fixed-point decimal with `digits` fraction digits, e.g. 12.346.
[[nodiscard]] std::string format_fixed(double value, int digits);

// printf "%.*g": `digits` significant digits, e.g. 0.00123457 or 1.5e+09.
[[nodiscard]] std::string format_g(double value, int digits);

// Engineering formatting with SI suffix: 1.25 k, 3.4 M, 9.2 G.
[[nodiscard]] std::string format_si(double value, int digits = 2);

// Latency pretty-printer: picks ns/us/ms/s based on magnitude.
[[nodiscard]] std::string format_seconds(double seconds, int digits = 2);

// Energy pretty-printer: picks pJ/nJ/uJ/mJ/J based on magnitude (input J).
[[nodiscard]] std::string format_joules(double joules, int digits = 2);

// Percentage with sign, e.g. "-17.4%".
[[nodiscard]] std::string format_percent_delta(double ratio, int digits = 1);

// Joins `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               const std::string& sep);

// Left/right padding to `width` (no truncation).
[[nodiscard]] std::string pad_left(const std::string& s, std::size_t width);
[[nodiscard]] std::string pad_right(const std::string& s, std::size_t width);

}  // namespace cnpu
