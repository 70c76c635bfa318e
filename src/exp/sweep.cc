#include "exp/sweep.h"

#include <stdexcept>

#include "util/strings.h"

namespace cnpu {

std::int64_t ParamValue::int_value() const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kDouble:
      return static_cast<std::int64_t>(double_);
    case Kind::kString:
      break;
  }
  throw std::logic_error("ParamValue: int_value() on string \"" + string_ +
                         "\"");
}

double ParamValue::double_value() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kDouble:
      return double_;
    case Kind::kString:
      break;
  }
  throw std::logic_error("ParamValue: double_value() on string \"" + string_ +
                         "\"");
}

const std::string& ParamValue::string_value() const {
  if (kind_ != Kind::kString) {
    throw std::logic_error("ParamValue: string_value() on numeric " +
                           to_string());
  }
  return string_;
}

std::string ParamValue::to_string() const {
  switch (kind_) {
    case Kind::kInt:
      return std::to_string(int_);
    case Kind::kDouble:
      return format_g(double_, 12);
    case Kind::kString:
      return string_;
  }
  return {};
}

bool ParamValue::operator==(const ParamValue& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kInt:
      return int_ == o.int_;
    case Kind::kDouble:
      return double_ == o.double_;
    case Kind::kString:
      return string_ == o.string_;
  }
  return false;
}

const ParamValue& SweepPoint::at(const std::string& name) const {
  for (const auto& [axis, value] : params) {
    if (axis == name) return value;
  }
  throw std::out_of_range("SweepPoint: no axis named \"" + name + "\"");
}

std::int64_t SweepPoint::int_at(const std::string& name) const {
  return at(name).int_value();
}

double SweepPoint::double_at(const std::string& name) const {
  return at(name).double_value();
}

const std::string& SweepPoint::str_at(const std::string& name) const {
  return at(name).string_value();
}

std::string SweepPoint::label() const {
  std::string out;
  for (const auto& [axis, value] : params) {
    if (!out.empty()) out += ' ';
    out += axis + '=' + value.to_string();
  }
  return out;
}

SweepSpec& SweepSpec::axis(std::string name, std::vector<ParamValue> values) {
  axes_.push_back(SweepAxis{std::move(name), std::move(values)});
  return *this;
}

int SweepSpec::num_points() const {
  if (axes_.empty()) return 0;
  if (combine_ == SweepCombine::kZipped) {
    const std::size_t len = axes_.front().values.size();
    for (const auto& a : axes_) {
      if (a.values.size() != len) {
        throw std::logic_error("SweepSpec \"" + name_ +
                               "\": zipped axes must have equal lengths (axis "
                               "\"" +
                               a.name + "\" has " +
                               std::to_string(a.values.size()) + ", expected " +
                               std::to_string(len) + ")");
      }
    }
    return static_cast<int>(len);
  }
  constexpr std::size_t kMax = 2147483647;  // INT_MAX: point indices are int
  std::size_t n = 1;
  for (const auto& a : axes_) {
    if (!a.values.empty() && n > kMax / a.values.size()) {
      throw std::overflow_error("SweepSpec \"" + name_ +
                                "\": cartesian product exceeds INT_MAX points");
    }
    n *= a.values.size();
  }
  return static_cast<int>(n);
}

SweepPoint SweepSpec::point(int index) const {
  const int n = num_points();
  if (index < 0 || index >= n) {
    throw std::out_of_range("SweepSpec \"" + name_ + "\": point " +
                            std::to_string(index) + " outside [0, " +
                            std::to_string(n) + ")");
  }
  SweepPoint p;
  p.index = index;
  p.params.reserve(axes_.size());
  if (combine_ == SweepCombine::kZipped) {
    for (const auto& a : axes_) {
      p.params.emplace_back(a.name, a.values[static_cast<std::size_t>(index)]);
    }
    return p;
  }
  // Cartesian, first axis slowest: decode index as mixed-radix digits with
  // the last axis as the least-significant digit (nested-loop order).
  std::size_t rest = static_cast<std::size_t>(index);
  std::vector<std::size_t> digit(axes_.size(), 0);
  for (std::size_t i = axes_.size(); i-- > 0;) {
    const std::size_t radix = axes_[i].values.size();
    digit[i] = rest % radix;
    rest /= radix;
  }
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    p.params.emplace_back(axes_[i].name, axes_[i].values[digit[i]]);
  }
  return p;
}

}  // namespace cnpu
