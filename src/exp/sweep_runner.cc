#include "exp/sweep_runner.h"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "analysis/validate.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/strings.h"

namespace cnpu {

SweepRecord& SweepRecord::set(const std::string& name, double value) {
  for (auto& [n, v] : metrics) {
    if (n == name) {
      v = value;
      return *this;
    }
  }
  metrics.emplace_back(name, value);
  return *this;
}

double SweepRecord::get(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v;
  }
  throw std::out_of_range("SweepRecord: no metric named \"" + name + "\"");
}

int SweepResult::num_failed() const {
  int failed = 0;
  for (const auto& p : points) {
    if (!p.ok && !p.pruned) ++failed;
  }
  return failed;
}

int SweepResult::num_pruned() const {
  int pruned = 0;
  for (const auto& p : points) {
    if (p.pruned) ++pruned;
  }
  return pruned;
}

namespace {

// Metric-column schema: the first successful point's record order.
const SweepRecord* schema_record(const std::vector<SweepPointResult>& points) {
  for (const auto& p : points) {
    if (p.ok) return &p.record;
  }
  return nullptr;
}

// Renders the sweep into the shared CsvWriter (one row per point).
CsvWriter build_csv(const SweepResult& result) {
  const std::vector<SweepPointResult>& points = result.points;
  CsvWriter csv;
  const SweepRecord* schema = schema_record(points);
  std::vector<std::string> header{"point"};
  if (!points.empty()) {
    for (const auto& [axis, value] : points.front().point.params) {
      (void)value;
      header.push_back(axis);
    }
  }
  if (schema != nullptr) {
    for (const auto& [name, value] : schema->metrics) {
      (void)value;
      header.push_back(name);
    }
  }
  header.push_back("error");
  csv.set_header(std::move(header));

  for (const auto& p : points) {
    std::vector<std::string> row{std::to_string(p.point.index)};
    for (const auto& [axis, value] : p.point.params) {
      (void)axis;
      row.push_back(value.to_string());
    }
    if (schema != nullptr) {
      for (const auto& [name, value] : schema->metrics) {
        (void)value;
        // Missing metric (failed point, or a record that diverged from the
        // schema) degrades to an empty cell — never discard the artifact.
        const std::pair<std::string, double>* found = nullptr;
        if (p.ok) {
          for (const auto& m : p.record.metrics) {
            if (m.first == name) {
              found = &m;
              break;
            }
          }
        }
        row.push_back(found != nullptr ? format_g(found->second, 12)
                                       : std::string());
      }
    }
    row.push_back(p.error);
    csv.add_row(std::move(row));
  }
  return csv;
}

}  // namespace

std::string SweepResult::to_csv() const { return build_csv(*this).to_string(); }

std::string SweepResult::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("sweep").value(name);
  w.key("elapsed_s").value(elapsed_s);
  w.key("points_per_sec").value(points_per_sec);
  w.key("points").begin_array();
  for (const auto& p : points) {
    w.begin_object();
    w.key("point").value(p.point.index);
    w.key("params").begin_object();
    for (const auto& [axis, value] : p.point.params) {
      w.key(axis);
      if (value.is_number()) {
        w.value(value.double_value());
      } else {
        w.value(value.string_value());
      }
    }
    w.end_object();
    w.key("metrics").begin_object();
    if (p.ok) {
      for (const auto& [metric, value] : p.record.metrics) {
        w.key(metric).value(value);
      }
    }
    w.end_object();
    w.key("ok").value(p.ok);
    if (p.pruned) w.key("pruned").value(true);
    if (!p.ok) w.key("error").value(p.error);
    if (!p.record.note.empty()) w.key("note").value(p.record.note);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

bool SweepResult::write_csv(const std::string& path) const {
  return build_csv(*this).write_file(path);
}

bool SweepResult::write_json(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << to_json() << '\n';
  return static_cast<bool>(file);
}

int SweepRunner::threads() const {
  return options_.threads > 0 ? options_.threads
                              : ThreadPool::recommended_threads();
}

SweepResult SweepRunner::run(const SweepSpec& spec, const SweepFn& fn) const {
  return run(spec, fn, SweepPruneFn());
}

SweepResult SweepRunner::run(const SweepSpec& spec, const SweepFn& fn,
                             const SweepPruneFn& prune) const {
  const auto t0 = std::chrono::steady_clock::now();
  // Static spec verification (src/analysis/validate.h): same exception
  // types num_points() raises, plus rule IDs in the message. Lint-only
  // findings (duplicate axis names, empty axes) pass through.
  analysis::validate_or_throw(spec);
  SweepResult result;
  result.name = spec.name();
  const int n = spec.num_points();  // validates zipped axis lengths up front
  result.points.resize(static_cast<std::size_t>(n));

  auto evaluate_into = [&](int i) {
    SweepPointResult& slot = result.points[static_cast<std::size_t>(i)];
    slot.point = spec.point(i);
    try {
      if (prune) {
        std::string reason = prune(slot.point);
        if (!reason.empty()) {
          slot.pruned = true;
          slot.error = "pruned: " + reason;
          return;
        }
      }
      slot.record = fn(slot.point);
      slot.ok = true;
    } catch (const std::exception& e) {
      slot.error = e.what();
    } catch (...) {
      slot.error = "unknown exception";
    }
  };

  ThreadPool::run(threads(), n, evaluate_into);
  result.elapsed_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  result.points_per_sec =
      result.elapsed_s > 0.0 ? static_cast<double>(n) / result.elapsed_s : 0.0;
  return result;
}

}  // namespace cnpu
