// Static verification of simulation inputs (the domain config linter).
//
// validate() evaluates every registered rule (src/analysis/rules.h) over a
// bundle of simulation inputs WITHOUT running the simulator, and returns
// the findings as a Diagnostics collection — the engine behind the
// cnpu_lint CLI (tools/cnpu_lint.cc). validate_or_throw() is the single
// enforcement entry point the runtime calls (simulate_schedule,
// serve_tenants / ServingPlan, SweepRunner): it raises the exception type
// the engine raises for the same input, with the `what()` text prefixed
// by "[<rule-id> <name>] <locus>: ".
//
// The engine's cheap checks are not restated here: validate() calls the
// engine's own check_run (sim/event_sim.h) and records every failure it
// reports (S001, T003, A002, F002, F001, R003). The deep checks below
// follow the structures the simulator builds, in the order it meets them:
//  * schedule structure  — for_each_unplaced (core/schedule.h), the walk
//    build_program rejects placements with: unassigned items (S002),
//    chiplet references that dangle (S003) or point at a without_chiplet
//    casualty (S004); then shard fractions that do not sum to 1 (S005).
//  * route reachability  — the edge set build_program wires
//    (for_each_schedule_edge: ingress into every stage-0 model, stage
//    prefix handoffs, cross-stage gathers, intra-model chains): each
//    shard -> consumer-primary pair must have a route on the schedule's
//    package, including post-fault BFS detours on the degraded copy (R001)
//    and the severed-I/O-port case (R002). Enforced unless nop_mode is
//    NopMode::kOff — with the NoP off the runtime never resolves routes,
//    so an unroutable edge is lint-only there.
//  * fault plans         — a surviving remap target (F004, via
//    core/remap.h), non-negative penalties (F003, lint-only).
//  * arrivals/admission  — generate_arrivals' precondition via
//    describe_arrival_spec_error (A001), inert shed_expired knobs (A003,
//    note).
//  * residency           — compute_residency (core/residency.h) overflow
//    (M001): enforced on the serving placement path (place_tenants
//    rejects it), lint-only on the simulate_schedule path (the simulator
//    deliberately runs overflowing remaps — degraded beats refusing).
//  * deadlines           — deadline_s strictly below the static critical
//    path (critical_path_s, analysis/bounds.h), a lower bound on every
//    frame's latency: every frame must miss (D001, lint-only — the runtime
//    accepts it; checked unless nop_mode is NopMode::kOff).
//  * sweeps              — zipped axis length mismatches (W001), cartesian
//    overflow past INT_MAX points (W002), duplicate axis names (W003),
//    empty axes (W004).
//
// validate() itself NEVER throws on bad input (that is its point); it
// throws only on programmer errors (unregistered rule IDs).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/rules.h"
#include "arch/package.h"
#include "core/schedule.h"
#include "exp/sweep.h"
#include "sim/event_sim.h"
#include "sim/serving.h"

namespace cnpu::analysis {

// Diagnostics locus of stream `index` of resolve_streams(schedule,
// options): "schedule" for the implicit stream, `tenant <index> "<name>"`
// for a TenantStream. validate and compute_bounds report streams under it.
[[nodiscard]] std::string stream_locus(const SimOptions& options,
                                       std::size_t index);

// Full rule evaluation over one simulation bundle (the simulate_schedule
// input shape: the top-level schedule plus options carrying fault plan,
// arrivals, admission control, and tenant streams).
[[nodiscard]] Diagnostics validate(const Schedule& schedule,
                                   const SimOptions& options = {});
// throw_if_enforced() over the same findings (simulate_schedule calls this
// before running).
void validate_or_throw(const Schedule& schedule, const SimOptions& options = {});

// Full rule evaluation over a tenant fleet BEFORE placement (the
// serve_tenants input shape). Placement itself is part of what is
// validated: a capacity-infeasible placement surfaces as M001.
[[nodiscard]] Diagnostics validate(const PackageConfig& package,
                                   const std::vector<TenantWorkload>& tenants,
                                   const ServingOptions& options = {});
void validate_or_throw(const PackageConfig& package,
                       const std::vector<TenantWorkload>& tenants,
                       const ServingOptions& options = {});

// Sweep-spec rules (W001..W004). validate_or_throw matches
// SweepSpec::num_points(): std::logic_error on a zipped length mismatch,
// std::overflow_error past INT_MAX points.
[[nodiscard]] Diagnostics validate(const SweepSpec& spec);
void validate_or_throw(const SweepSpec& spec);

}  // namespace cnpu::analysis
