// cnpu_lint: static verification CLI for schedule bundles.
//
// Loads "cnpu_schedule_bundle_v1" documents (core/schedule_io.h), runs the
// diagnostic rule registry (src/analysis/validate.h) over each, and prints
// a diagnostics table — or machine-readable JSON — without simulating a
// single frame. Exit codes:
//   0  no errors (warnings/notes allowed unless --werror)
//   1  at least one error-severity finding
//   2  usage error, unreadable file, or malformed bundle
//
// CTest runs this CLI over the committed bundles in tests/bundles/, one
// case per bundle and flag set (tools/CMakeLists.txt), checking each
// case's exit code and the rule ID it must report.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "analysis/bounds.h"
#include "analysis/rules.h"
#include "analysis/validate.h"
#include "core/schedule_io.h"
#include "sim/event_sim.h"
#include "util/json.h"

namespace {

using cnpu::NopMode;
using cnpu::ScheduleBundle;
using cnpu::SimOptions;
using cnpu::analysis::Diagnostics;

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: cnpu_lint [options] bundle.json [bundle.json ...]\n"
      "       cnpu_lint --rules\n"
      "\n"
      "Statically checks schedule bundles (cnpu_schedule_bundle_v1, see\n"
      "core/schedule_io.h) against the diagnostic rule registry without\n"
      "running the simulator. Options:\n"
      "  --json           print machine-readable diagnostics (one JSON\n"
      "                   document per input file) instead of the table\n"
      "  --out FILE       also write the JSON rendering to FILE\n"
      "  --werror         exit 1 on warnings, not just errors\n"
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

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool werror = false;
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
    } else if (arg == "--rules") {
      rules = true;
    } else if (arg == "--out") {
      out_path = next("--out");
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
