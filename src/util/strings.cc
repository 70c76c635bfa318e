#include "util/strings.h"

#include <cmath>
#include <cstdio>

namespace cnpu {

std::string format_fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string format_g(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, value);
  return buf;
}

std::string format_si(double value, int digits) {
  static const struct {
    double scale;
    const char* suffix;
  } kUnits[] = {{1e12, " T"}, {1e9, " G"}, {1e6, " M"}, {1e3, " k"}};
  const double mag = std::fabs(value);
  for (const auto& unit : kUnits) {
    if (mag >= unit.scale) {
      return format_fixed(value / unit.scale, digits) + unit.suffix;
    }
  }
  return format_fixed(value, digits);
}

std::string format_seconds(double seconds, int digits) {
  const double mag = std::fabs(seconds);
  if (mag >= 1.0) return format_fixed(seconds, digits) + " s";
  if (mag >= 1e-3) return format_fixed(seconds * 1e3, digits) + " ms";
  if (mag >= 1e-6) return format_fixed(seconds * 1e6, digits) + " us";
  return format_fixed(seconds * 1e9, digits) + " ns";
}

std::string format_joules(double joules, int digits) {
  const double mag = std::fabs(joules);
  if (mag >= 1.0) return format_fixed(joules, digits) + " J";
  if (mag >= 1e-3) return format_fixed(joules * 1e3, digits) + " mJ";
  if (mag >= 1e-6) return format_fixed(joules * 1e6, digits) + " uJ";
  if (mag >= 1e-9) return format_fixed(joules * 1e9, digits) + " nJ";
  return format_fixed(joules * 1e12, digits) + " pJ";
}

std::string format_percent_delta(double ratio, int digits) {
  const double pct = ratio * 100.0;
  const char sign = pct >= 0 ? '+' : '-';
  return std::string(1, sign) + format_fixed(std::fabs(pct), digits) + "%";
}

std::string join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace cnpu
