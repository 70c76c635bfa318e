// cnpu_lint: static verification CLI for schedule bundles.
//
// Loads "cnpu_schedule_bundle_v1" documents (core/schedule_io.h), runs the
// diagnostic rule registry (src/analysis/validate.h) over each, and prints
// a diagnostics table — or machine-readable JSON — without simulating a
// single frame. Exit codes:
//   0  no errors (warnings/notes allowed unless --werror)
//   1  at least one error-severity finding (or a --self-test failure)
//   2  usage error, unreadable file, or malformed bundle
//
// --self-test runs an embedded battery of seeded-invalid fixtures (one per
// rule the schedule/sweep paths can violate) plus known-clean shipped
// configurations through an export/import round trip, and checks each is
// flagged with exactly the expected rule ID. CI runs it under Release and
// ASan and uploads the --out artifact.
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bounds.h"
#include "analysis/rules.h"
#include "analysis/validate.h"
#include "arch/package.h"
#include "core/baselines.h"
#include "core/schedule_io.h"
#include "dataflow/layer.h"
#include "exp/sweep.h"
#include "sim/event_sim.h"
#include "util/json.h"
#include "workloads/zoo.h"

namespace {

using cnpu::ArrivalKind;
using cnpu::NopMode;
using cnpu::PackageConfig;
using cnpu::PerceptionPipeline;
using cnpu::Schedule;
using cnpu::ScheduleBundle;
using cnpu::ShedPolicy;
using cnpu::SimOptions;
using cnpu::Stage;
using cnpu::StageModel;
using cnpu::SweepSpec;
using cnpu::analysis::Diagnostics;

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: cnpu_lint [options] bundle.json [bundle.json ...]\n"
      "       cnpu_lint --rules\n"
      "       cnpu_lint --self-test [--out FILE]\n"
      "\n"
      "Statically checks schedule bundles (cnpu_schedule_bundle_v1, see\n"
      "core/schedule_io.h) against the diagnostic rule registry without\n"
      "running the simulator. Options:\n"
      "  --json           print machine-readable diagnostics (one JSON\n"
      "                   document per input file) instead of the table\n"
      "  --out FILE       also write the JSON rendering to FILE\n"
      "  --werror         exit 1 on warnings, not just errors\n"
      "  --frames N       frames assumed for feasibility checks (default 8)\n"
      "  --deadline-ms X  per-frame deadline for the D001 lower-bound check\n"
      "                   (default: no deadline)\n"
      "  --no-nop         lint as if NoP delays were unmodeled (route rules\n"
      "                   R001/R002 demote to lint-only, R003 and D001\n"
      "                   are skipped)\n"
      "  --bounds         additionally run the static performance-bound\n"
      "                   analyzer (analysis/bounds.h): advisory P-rule\n"
      "                   findings join the diagnostics, plus a bounds\n"
      "                   table (or, with --json, a combined per-file\n"
      "                   {\"diagnostics\",\"bounds\"} object)\n"
      "  --rate-fps X     admitted frame rate the --bounds demand checks\n"
      "                   assume (sets the frame interval to 1/X)\n"
      "  --contended      lint under the contended NoP model (makes the\n"
      "                   --bounds link-capacity check binding)\n"
      "  --rules          print the rule catalogue and exit\n"
      "  --self-test      run the embedded fixture battery\n"
      "\n"
      "With several bundles the exit code is the worst across files; a\n"
      "malformed file is reported and linting continues.\n",
      out);
}

// Rejects a malformed numeric flag value: exit 2, naming the flag.
[[noreturn]] void bad_value(const char* flag, const char* need,
                            const char* text) {
  std::fprintf(stderr, "cnpu_lint: %s needs %s, got '%s'\n", flag, need, text);
  std::exit(2);
}

// --frames: the whole token must be an integer >= 1.
int parse_frames(const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < 1 || v > INT_MAX) {
    bad_value("--frames", "an integer >= 1", text);
  }
  return static_cast<int>(v);
}

// The whole token must be a finite, in-range number above zero.
double parse_positive(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(v) ||
      v <= 0.0) {
    bad_value(flag, "a positive number", text);
  }
  return v;
}

void print_rules() {
  std::printf("%-6s %-24s %-8s %s\n", "ID", "NAME", "SEVERITY", "SUMMARY");
  for (const auto& rule : cnpu::analysis::rule_registry()) {
    std::printf("%-6s %-24s %-8s %s\n", rule.id, rule.name,
                cnpu::analysis::severity_name(rule.severity), rule.summary);
  }
}

// --- self-test fixtures ---

// One seeded configuration and the rule it must (or must not) trip. Every
// schedule fixture passes through bundle_to_json -> bundle_from_json before
// validation, so the self-test also covers the serializer round trip.
struct Fixture {
  std::string name;
  // Rule ID that must appear in the diagnostics; empty = must lint clean.
  std::string expect_rule;
  // Whether the diagnostics must contain at least one error (drives the
  // exit-nonzero guarantee; warning-severity rules leave this false).
  bool expect_error = false;
  ScheduleBundle bundle;  // empty for sweep fixtures
  SimOptions options;
  SweepSpec sweep{"unused"};
  bool is_sweep = false;
  // Validate through the static bounds analyzer (bound_diagnostics over
  // compute_bounds) instead of the structural validators.
  bool is_bounds = false;
};

PerceptionPipeline two_conv_pipeline() {
  PerceptionPipeline pipe;
  pipe.name = "lint-fixture";
  Stage stage;
  stage.name = "stage0";
  StageModel sm;
  sm.model.name = "net";
  sm.model.layers.push_back(cnpu::conv2d("conv0", 3, 16, 32, 32, 3));
  sm.model.layers.push_back(cnpu::conv2d("conv1", 16, 16, 32, 32, 3));
  stage.models.push_back(std::move(sm));
  pipe.stages.push_back(std::move(stage));
  return pipe;
}

int io_attached_chiplet(const PackageConfig& pkg) {
  for (const auto& c : pkg.chiplets()) {
    if (pkg.io_port_attached_to(c.id)) return c.id;
  }
  return -1;
}

int chiplet_at_col(const PackageConfig& pkg, int col) {
  for (const auto& c : pkg.chiplets()) {
    if (c.coord.col == col) return c.id;
  }
  return -1;
}

// Round-trips `schedule` through the bundle format; the returned bundle
// owns fresh pipeline/package/schedule copies.
ScheduleBundle round_trip(const Schedule& schedule) {
  return cnpu::bundle_from_json(cnpu::bundle_to_json(schedule));
}

Fixture schedule_fixture(std::string name, std::string expect_rule,
                         bool expect_error, const Schedule& schedule,
                         SimOptions options = {}) {
  Fixture f;
  f.name = std::move(name);
  f.expect_rule = std::move(expect_rule);
  f.expect_error = expect_error;
  f.bundle = round_trip(schedule);
  f.options = std::move(options);
  return f;
}

std::vector<Fixture> build_fixtures() {
  std::vector<Fixture> fixtures;
  const PerceptionPipeline pipe = two_conv_pipeline();
  const PackageConfig pkg = cnpu::make_simba_package(2, 4);

  {  // Clean: every item assigned to a live chiplet, nothing to report.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    fixtures.push_back(schedule_fixture("clean-two-conv", "", false, s));
  }
  {  // Clean: a shipped multi-camera config through the default scheduler.
    const PerceptionPipeline fanin = cnpu::build_fanin_pipeline(2);
    const PackageConfig simba = cnpu::make_simba_package();
    const Schedule s = cnpu::build_fanin_schedule(fanin, simba);
    fixtures.push_back(schedule_fixture("clean-fanin-shipped", "", false, s));
  }
  {  // S001: a pipeline with no layers has nothing to simulate.
    PerceptionPipeline empty;
    empty.name = "empty";
    Schedule s(empty, pkg);
    fixtures.push_back(
        schedule_fixture("sched-empty", cnpu::analysis::kRuleSchedEmpty, true,
                         s));
  }
  {  // S002: one layer never assigned.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    fixtures.push_back(schedule_fixture(
        "sched-unassigned", cnpu::analysis::kRuleSchedUnassigned, true, s));
  }
  {  // S003: placement references a chiplet id the package never had.
    Schedule s(pipe, pkg);
    s.assign(0, 99);
    s.assign(1, pkg.chiplets()[0].id);
    fixtures.push_back(schedule_fixture(
        "sched-dangling", cnpu::analysis::kRuleSchedDanglingChiplet, true, s));
  }
  {  // S004: placement references a chiplet removed by without_chiplet.
    const int victim = chiplet_at_col(pkg, 3);
    const PackageConfig degraded = pkg.without_chiplet(victim);
    Schedule s(pipe, degraded);
    s.assign(0, victim);
    s.assign(1, degraded.chiplets()[0].id);
    fixtures.push_back(schedule_fixture(
        "sched-dead", cnpu::analysis::kRuleSchedDeadChiplet, true, s));
  }
  {  // S005: shard fractions that do not sum to 1 (restore path keeps them
     // verbatim; the checked assign_* paths cannot produce this).
    Schedule s(pipe, pkg);
    s.restore_placement(0, {{pkg.chiplets()[0].id, 0.25},
                            {pkg.chiplets()[1].id, 0.25}});
    s.assign(1, pkg.chiplets()[0].id);
    fixtures.push_back(schedule_fixture(
        "sched-shard-fraction", cnpu::analysis::kRuleSchedShardFraction, false,
        s));
  }
  {  // R001: a mid-row failure in a 1-row mesh disconnects the halves.
    const PackageConfig row = cnpu::make_simba_package(1, 5);
    const PackageConfig cut = row.without_chiplet(chiplet_at_col(row, 2));
    Schedule s(pipe, cut);
    s.assign(0, chiplet_at_col(cut, 1));
    s.assign(1, chiplet_at_col(cut, 4));
    fixtures.push_back(schedule_fixture(
        "route-unreachable", cnpu::analysis::kRuleRouteUnreachable, true, s));
  }
  {  // R002: a fault plan that kills the I/O-port router severs ingress.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.fault.chiplet_id = io_attached_chiplet(pkg);
    opt.fault.fail_time_s = 0.1;
    fixtures.push_back(schedule_fixture(
        "route-io-severed", cnpu::analysis::kRuleRouteIoSevered, true, s,
        opt));
  }
  {  // R003: a negative link bandwidth would deliver transfers before
     // they are sent.
    PackageConfig bad = pkg;
    cnpu::NopParams nop = bad.nop();
    nop.bandwidth_bytes_per_s = -1.0;
    bad.set_nop(nop);
    Schedule s(pipe, bad);
    s.assign(0, bad.chiplets()[0].id);
    s.assign(1, bad.chiplets()[1].id);
    fixtures.push_back(schedule_fixture(
        "nop-params", cnpu::analysis::kRuleNopParams, true, s));
  }
  {  // M001: resident weights exceed a 16-byte weight budget.
    PackageConfig tight = pkg;
    cnpu::MemorySpec mem;
    mem.weight_capacity_bytes = 16.0;
    tight.set_memory(mem);
    Schedule s(pipe, tight);
    s.assign(0, tight.chiplets()[0].id);
    s.assign(1, tight.chiplets()[0].id);
    fixtures.push_back(schedule_fixture(
        "residency-overflow", cnpu::analysis::kRuleResidencyOverflow, true,
        s));
  }
  {  // F001: fault plan names a chiplet the package does not have.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.fault.chiplet_id = 99;
    opt.fault.fail_time_s = 0.1;
    fixtures.push_back(schedule_fixture(
        "fault-unknown-chiplet", cnpu::analysis::kRuleFaultUnknownChiplet,
        true, s, opt));
  }
  {  // F002: recovery scheduled before the failure.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.fault.chiplet_id = chiplet_at_col(pkg, 3);
    opt.fault.fail_time_s = 0.2;
    opt.fault.recover_time_s = 0.1;
    fixtures.push_back(schedule_fixture(
        "fault-order", cnpu::analysis::kRuleFaultOrder, true, s, opt));
  }
  {  // F004: on a 1x1 package the only chiplet has no remap survivor.
    const PackageConfig solo = cnpu::make_simba_package(1, 1);
    Schedule s(pipe, solo);
    s.assign(0, solo.chiplets()[0].id);
    s.assign(1, solo.chiplets()[0].id);
    SimOptions opt;
    opt.fault.chiplet_id = solo.chiplets()[0].id;
    opt.fault.fail_time_s = 0.1;
    fixtures.push_back(schedule_fixture(
        "fault-no-survivor", cnpu::analysis::kRuleFaultNoSurvivor, true, s,
        opt));
  }
  {  // A001: a trace arrival process with no timestamps cannot admit frames.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.arrivals.kind = ArrivalKind::kTrace;
    fixtures.push_back(schedule_fixture(
        "arrival-spec-invalid", cnpu::analysis::kRuleArrivalSpecInvalid, true,
        s, opt));
  }
  {  // A002: a shed policy with no queue capacity to bound.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.admission.policy = ShedPolicy::kDropOldest;
    fixtures.push_back(schedule_fixture(
        "admission-capacity", cnpu::analysis::kRuleAdmissionCapacity, true, s,
        opt));
  }
  {  // D001: a 1 ps deadline is below the critical-path bound.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.deadline_s = 1e-12;
    fixtures.push_back(schedule_fixture(
        "deadline-infeasible", cnpu::analysis::kRuleDeadlineInfeasible, true,
        s, opt));
  }
  {  // W001: zipped axes of unequal length have no common point count.
    Fixture f;
    f.name = "sweep-zip-mismatch";
    f.expect_rule = cnpu::analysis::kRuleSweepZipMismatch;
    f.expect_error = true;
    f.is_sweep = true;
    f.sweep = SweepSpec("zip", cnpu::SweepCombine::kZipped)
                  .axis("rows", {1, 2})
                  .axis("cols", {1, 2, 3});
    fixtures.push_back(std::move(f));
  }
  {  // W003: two axes with the same name; point() keeps the first.
    Fixture f;
    f.name = "sweep-duplicate-axis";
    f.expect_rule = cnpu::analysis::kRuleSweepDuplicateAxis;
    f.expect_error = false;
    f.is_sweep = true;
    f.sweep =
        SweepSpec("dup").axis("rows", {1, 2}).axis("rows", {3, 4});
    fixtures.push_back(std::move(f));
  }
  {  // W002: a cartesian product beyond INT_MAX points.
    std::vector<cnpu::ParamValue> big;
    for (int i = 0; i < 1300; ++i) big.push_back(i);
    Fixture f;
    f.name = "sweep-overflow";
    f.expect_rule = cnpu::analysis::kRuleSweepOverflow;
    f.expect_error = true;
    f.is_sweep = true;
    f.sweep = SweepSpec("big").axis("a", big).axis("b", big).axis("c", big);
    fixtures.push_back(std::move(f));
  }
  // --- bounds (P-rule) fixtures: advisory analyzer, never error severity ---
  auto bounds_fixture = [&](std::string name, std::string expect_rule,
                            const Schedule& schedule, SimOptions options) {
    Fixture f = schedule_fixture(std::move(name), std::move(expect_rule),
                                 /*expect_error=*/false, schedule,
                                 std::move(options));
    f.is_bounds = true;
    return f;
  };
  {  // Bounds-clean: no deadline, no rate, no memory model -> no P findings.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    fixtures.push_back(bounds_fixture("bounds-clean", "", s, {}));
  }
  {  // P001: a 1 ps deadline is below any critical-path bound.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.deadline_s = 1e-12;
    fixtures.push_back(bounds_fixture(
        "bounds-deadline-dead", cnpu::analysis::kRuleBoundDeadline, s, opt));
  }
  {  // P002: a 1 GHz frame rate swamps every contended link's bandwidth.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.nop_mode = NopMode::kContended;
    opt.frame_interval_s = 1e-9;
    fixtures.push_back(bounds_fixture(
        "bounds-link-oversub", cnpu::analysis::kRuleBoundLinkOversubscribed,
        s, opt));
  }
  {  // P003: the same rate also demands > 1 chiplet-second per second.
    Schedule s(pipe, pkg);
    s.assign(0, pkg.chiplets()[0].id);
    s.assign(1, pkg.chiplets()[1].id);
    SimOptions opt;
    opt.frame_interval_s = 1e-9;
    fixtures.push_back(bounds_fixture(
        "bounds-compute-oversub",
        cnpu::analysis::kRuleBoundComputeOversubscribed, s, opt));
  }
  {  // P004: resident weights overflow a 16-byte weight budget (advisory
     // restatement of the M001 residency check from the bounds pass).
    PackageConfig tight = pkg;
    cnpu::MemorySpec mem;
    mem.weight_capacity_bytes = 16.0;
    tight.set_memory(mem);
    Schedule s(pipe, tight);
    s.assign(0, tight.chiplets()[0].id);
    s.assign(1, tight.chiplets()[0].id);
    fixtures.push_back(bounds_fixture(
        "bounds-residency", cnpu::analysis::kRuleBoundResidency, s, {}));
  }
  return fixtures;
}

int run_self_test(const std::string& out_path) {
  std::vector<Fixture> fixtures = build_fixtures();
  int failures = 0;
  cnpu::JsonWriter artifact;
  artifact.begin_object();
  artifact.key("fixtures").begin_array();
  for (const Fixture& f : fixtures) {
    const Diagnostics diags =
        f.is_sweep ? cnpu::analysis::validate(f.sweep)
        : f.is_bounds
            ? cnpu::analysis::bound_diagnostics(cnpu::analysis::compute_bounds(
                  *f.bundle.schedule, f.options))
            : cnpu::analysis::validate(*f.bundle.schedule, f.options);
    bool pass = true;
    std::string why;
    if (f.expect_rule.empty()) {
      if (!diags.empty()) {
        pass = false;
        why = "expected clean, got findings";
      }
    } else {
      if (!diags.has_rule(f.expect_rule)) {
        pass = false;
        why = "expected rule " + f.expect_rule + " was not reported";
      } else if (diags.has_errors() != f.expect_error) {
        pass = false;
        why = f.expect_error ? "expected error severity, got none"
                             : "expected no errors, got some";
      }
    }
    failures += pass ? 0 : 1;
    std::printf("[%s] %-24s expect=%s\n", pass ? "PASS" : "FAIL",
                f.name.c_str(),
                f.expect_rule.empty() ? "clean" : f.expect_rule.c_str());
    if (!pass) {
      std::printf("       %s\n%s\n", why.c_str(), diags.table().c_str());
    }
    artifact.begin_object();
    artifact.key("name").value(f.name);
    artifact.key("expect").value(f.expect_rule.empty() ? "clean"
                                                       : f.expect_rule);
    artifact.key("pass").value(pass);
    artifact.key("rules").begin_array();
    for (const auto& d : diags.items()) artifact.value(d.rule->id);
    artifact.end_array();
    artifact.end_object();
  }
  artifact.end_array();
  artifact.key("pass").value(failures == 0);
  artifact.end_object();
  if (!out_path.empty() &&
      !cnpu::write_json_file(out_path, artifact.str())) {
    std::fprintf(stderr, "cnpu_lint: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("%zu fixtures, %d failure(s)\n", fixtures.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
  bool self_test = false;
  bool rules = false;
  bool bounds = false;
  bool no_nop = false;
  std::string out_path;
  SimOptions options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "cnpu_lint: %s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--rules") {
      rules = true;
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--frames") {
      options.frames = parse_frames(next("--frames"));
    } else if (arg == "--deadline-ms") {
      options.deadline_s =
          parse_positive("--deadline-ms", next("--deadline-ms")) * 1e-3;
    } else if (arg == "--no-nop") {
      no_nop = true;
    } else if (arg == "--bounds") {
      bounds = true;
    } else if (arg == "--contended") {
      options.nop_mode = NopMode::kContended;
    } else if (arg == "--rate-fps") {
      options.frame_interval_s =
          1.0 / parse_positive("--rate-fps", next("--rate-fps"));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cnpu_lint: unknown option %s\n", arg.c_str());
      print_usage(stderr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  // After parsing, so --no-nop wins over --contended in either order.
  if (no_nop) options.nop_mode = NopMode::kOff;

  if (rules) {
    print_rules();
    return 0;
  }
  if (self_test) return run_self_test(out_path);
  if (files.empty()) {
    print_usage(stderr);
    return 2;
  }

  // Worst-of aggregation across files: a malformed bundle (2) is reported
  // and linting continues, error findings give 1, clean files 0.
  int worst = 0;
  auto raise_exit = [&](int code) { worst = code > worst ? code : worst; };
  std::string json_out;
  for (const std::string& path : files) {
    ScheduleBundle bundle;
    try {
      bundle = cnpu::load_schedule_bundle(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cnpu_lint: %s: %s\n", path.c_str(), e.what());
      raise_exit(2);
      continue;
    }
    Diagnostics diags = cnpu::analysis::validate(*bundle.schedule, options);
    std::string rendered;
    std::string bounds_table;
    if (bounds) {
      // Advisory P rules ride in the same diagnostics rendering; the
      // quantitative report is printed (or embedded) alongside.
      const cnpu::analysis::BoundsReport report =
          cnpu::analysis::compute_bounds(*bundle.schedule, options);
      cnpu::analysis::collect_bound_diagnostics(report, diags);
      bounds_table = report.table();
      cnpu::JsonWriter w;
      w.begin_object();
      w.key("diagnostics");
      diags.write_json(w);
      w.key("bounds");
      report.write_json(w);
      w.end_object();
      rendered = w.str();
    } else {
      rendered = diags.to_json();
    }
    if (diags.count(cnpu::analysis::Severity::kError) > 0) {
      raise_exit(1);
    } else if (werror &&
               diags.count(cnpu::analysis::Severity::kWarning) > 0) {
      raise_exit(1);
    }
    if (json) {
      std::printf("%s\n", rendered.c_str());
    } else {
      if (files.size() > 1) std::printf("== %s ==\n", path.c_str());
      std::printf("%s\n", diags.table().c_str());
      if (bounds) std::printf("%s\n", bounds_table.c_str());
    }
    if (!json_out.empty()) json_out += "\n";
    json_out += rendered;
  }
  if (!out_path.empty() && !cnpu::write_json_file(out_path, json_out)) {
    std::fprintf(stderr, "cnpu_lint: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return worst;
}
