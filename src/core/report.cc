#include "core/report.h"

#include <algorithm>

#include "util/strings.h"
#include "util/table.h"

namespace cnpu {

MetricStrings format_metrics(const ScheduleMetrics& m) {
  MetricStrings out;
  out.e2e = format_fixed(m.e2e_s * 1e3, 2);
  out.pipe = format_fixed(m.pipe_s * 1e3, 2);
  out.energy = format_fixed(m.energy_j(), 4);
  out.edp = format_fixed(m.edp_j_ms(), 2);
  out.utilization = format_fixed(m.utilization * 100.0, 2);
  return out;
}

MetricStrings format_stage_metrics(const StageMetrics& m) {
  MetricStrings out;
  out.e2e = format_fixed(m.e2e_s * 1e3, 2);
  out.pipe = format_fixed(m.pipe_s * 1e3, 2);
  out.energy = format_fixed(m.energy_j(), 4);
  out.edp = format_fixed(m.edp_j_ms(), 2);
  out.utilization = "-";
  return out;
}

std::string delta_percent(double value, double baseline) {
  if (baseline == 0.0) return "n/a";
  return format_percent_delta(value / baseline - 1.0);
}

std::string mesh_busy_map(const ScheduleMetrics& m, const PackageConfig& pkg) {
  int max_row = 0;
  int max_col = 0;
  int max_npu = 0;
  for (const auto& c : pkg.chiplets()) {
    max_row = std::max(max_row, c.coord.row);
    max_col = std::max(max_col, c.coord.col);
    max_npu = std::max(max_npu, c.npu);
  }
  auto usage_of = [&](int id) -> const ChipletUsage* {
    for (const auto& u : m.chiplets) {
      if (u.chiplet_id == id) return &u;
    }
    return nullptr;
  };
  // The stage owning most of a chiplet's time tags its cell.
  auto stage_tag = [&](const ChipletUsage& u) -> char {
    int best = -1;
    double best_busy = 0.0;
    for (std::size_t s = 0; s < u.stage_busy_s.size(); ++s) {
      if (u.stage_busy_s[s] > best_busy) {
        best_busy = u.stage_busy_s[s];
        best = static_cast<int>(s);
      }
    }
    if (best < 0) return '.';
    return best < 10 ? static_cast<char>('0' + best)
                     : static_cast<char>('a' + best - 10);
  };

  std::string out = "per-chiplet busy (ms), tagged by dominant stage:\n";
  for (int npu = 0; npu <= max_npu; ++npu) {
    if (max_npu > 0) out += "NPU " + std::to_string(npu) + ":\n";
    for (int r = 0; r <= max_row; ++r) {
      for (int c = 0; c <= max_col; ++c) {
        const auto id = pkg.find_chiplet_at(GridCoord{r, c}, npu);
        if (!id) {
          out += pad_left("-", 10);
          continue;
        }
        const ChipletUsage* u = usage_of(*id);
        if (u == nullptr || u->busy_s <= 0.0) {
          out += pad_left("idle", 9) + " ";
        } else {
          out += pad_left(format_fixed(u->busy_s * 1e3, 1), 7) +
                 std::string(1, '/') + std::string(1, stage_tag(*u)) + " ";
        }
      }
      out += "\n";
    }
  }
  return out;
}

std::string stage_summary_table(const ScheduleMetrics& m,
                                const std::string& title) {
  Table t(title);
  t.set_header({"Stage", "E2E Lat(ms)", "Pipe Lat(ms)", "Energy(J)",
                "EDP(J*ms)", "Chiplets"});
  for (const auto& s : m.stages) {
    const MetricStrings ms = format_stage_metrics(s);
    t.add_row({s.name, ms.e2e, ms.pipe, ms.energy, ms.edp,
               std::to_string(s.chiplets_used)});
  }
  const MetricStrings total = format_metrics(m);
  t.add_separator();
  t.add_row({"TOTAL", total.e2e, total.pipe, total.energy, total.edp,
             std::to_string(m.chiplets_used())});
  return t.to_string();
}

}  // namespace cnpu
