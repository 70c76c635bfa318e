// Schedule/metrics export: serializes a Schedule and its evaluation to JSON
// so deployments, visualizers, and regression baselines can consume them —
// plus a self-contained bundle format that round-trips back into a live
// Schedule (the input format of tools/cnpu_lint).
#pragma once

#include <memory>
#include <string>

#include "core/evaluator.h"
#include "core/schedule.h"

namespace cnpu {

// Full dump: package geometry, per-layer placements (with shard fractions),
// and the evaluated metrics.
std::string schedule_to_json(const Schedule& schedule,
                             const ScheduleMetrics& metrics);

// Metrics only (stage table + package totals).
std::string metrics_to_json(const ScheduleMetrics& metrics);

// Writes `json` to `path`; returns false on I/O failure.
bool write_json_file(const std::string& path, const std::string& json);

// A deserialized schedule plus the pipeline and package it references
// (Schedule stores pointers; the bundle owns their storage, so keep it
// alive as long as the schedule is in use). Move-only via unique_ptr —
// the schedule's internal pointers stay valid across moves.
struct ScheduleBundle {
  std::unique_ptr<PerceptionPipeline> pipeline;
  std::unique_ptr<PackageConfig> package;
  std::unique_ptr<Schedule> schedule;
};

// Self-contained export ("cnpu_schedule_bundle_v1"): pipeline structure
// (stages / models / full layer descriptors), package (chiplets with PE-array
// and memory specs, NoP parameters, failed sites in removal order), and the
// per-item shard placements. Unlike schedule_to_json (a one-way report whose
// byte output is pinned by tests), this format is designed to round-trip:
// bundle_from_json(bundle_to_json(s)) reconstructs an equivalent schedule,
// with doubles emitted at %.17g so fractions and calibrated rates survive
// exactly. Failed sites are replayed through PackageConfig::without_chiplet
// so degraded-package routing behaves identically after a reload.
std::string bundle_to_json(const Schedule& schedule);

// Parses a bundle document. Throws std::invalid_argument on malformed JSON,
// an unknown format tag, structurally inconsistent contents (placement
// count != schedule item count, unknown op/dataflow names), or a chiplet
// array the cost model cannot price without int64 overflow (array_h,
// array_w, tile_h or tile_w outside [1, 2^31), num_pes <= 0), or geometry
// routing would walk for too long (a chiplet or failed site's row or col
// outside [0, 4096) or npu outside [0, 64), inter_npu_hops outside
// [0, 64]); the message names the chiplet or failed site and the field.
// Semantic problems that parse cleanly (dangling chiplet ids, overfull
// residency) are deliberately NOT rejected here — that is the linter's job
// (src/analysis/validate.h), and cnpu_lint needs to load such bundles to
// diagnose them.
ScheduleBundle bundle_from_json(const std::string& json);

// Reads and parses a bundle file. Throws std::runtime_error when the file
// cannot be read (and propagates bundle_from_json's std::invalid_argument).
// Writing one is write_json_file(path, bundle_to_json(schedule)).
ScheduleBundle load_schedule_bundle(const std::string& path);

}  // namespace cnpu
