// Formatting helpers for paper-style metric rows.
#pragma once

#include <string>

#include "core/evaluator.h"

namespace cnpu {

// "E2E Lat(ms) / Pipe Lat(ms) / Energy(J) / EDP(ms*J) / Utilization(%)"
// values for one schedule, formatted like the paper's tables.
struct MetricStrings {
  std::string e2e;
  std::string pipe;
  std::string energy;
  std::string edp;
  std::string utilization;
};

MetricStrings format_metrics(const ScheduleMetrics& m);
MetricStrings format_stage_metrics(const StageMetrics& m);

// Percent change string "(-17.4%)" of `value` relative to `baseline`.
std::string delta_percent(double value, double baseline);

// Per-stage mapping summary block (Figs. 5-8): one row per stage.
std::string stage_summary_table(const ScheduleMetrics& m, const std::string& title);

// ASCII mesh map of per-chiplet busy time (ms) with the dominant stage per
// chiplet - the textual rendering of the paper's Figs. 5-8 quadrant plots.
std::string mesh_busy_map(const ScheduleMetrics& m, const PackageConfig& pkg);

}  // namespace cnpu
