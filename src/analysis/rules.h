// Diagnostic rule registry for the static verification layer.
//
// Every invariant the simulator, serving layer, or sweep engine enforces at
// run time — plus a set of lint-only feasibility checks — is named by a
// stable rule ID here. src/analysis/validate.h evaluates the rules over a
// Package + Schedule(s) + SimOptions / TenantWorkload fleet BEFORE any
// simulated second is spent; tools/cnpu_lint.cc renders the results as a
// diagnostics table or machine-readable JSON. This header is a leaf (no
// project includes), so the simulator's own checks (check_run in
// sim/event_sim.h) name their failures with the same IDs.
//
// Severities:
//  * kError   - the configuration is rejected (by validate_or_throw for
//               runtime-enforced rules, by cnpu_lint's exit code always).
//  * kWarning - suspicious but currently accepted by every entry point;
//               cnpu_lint prints it and exits 0 (unless --werror).
//  * kNote    - informational (e.g. a knob documented to be inert).
//
// Throw mapping: each runtime-enforced rule records the exception type the
// runtime raises for it, so validate_or_throw and a bare SimEngine run
// reject an input the same way (pinned in tests/test_sim.cc,
// tests/test_analysis.cc and the ValidatorAgreesWithEngineAcceptance fuzz
// property). Lint-only rules map to ThrowKind::kNone and never reject at
// run time.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cnpu {
class JsonWriter;
}

namespace cnpu::analysis {

enum class Severity { kError, kWarning, kNote };

// Exception type validate_or_throw raises for a violated rule; kNone marks
// lint-only rules that never reject at run time.
enum class ThrowKind {
  kNone,
  kInvalidArgument,  // std::invalid_argument
  kLogicError,       // std::logic_error
  kOutOfRange,       // std::out_of_range
  kRuntimeError,     // std::runtime_error
  kOverflowError,    // std::overflow_error
};

[[nodiscard]] const char* severity_name(Severity severity);

// One registered rule. IDs are STABLE: artifacts, docs/DIAGNOSTICS.md, and
// user suppressions key on them, so an ID is never renamed or reused (a
// retired rule's ID is retired with it).
struct RuleInfo {
  const char* id;       // stable short ID, e.g. "S001"
  const char* name;     // kebab-case slug, e.g. "sched-empty"
  Severity severity;    // default severity of a violation
  ThrowKind throws_as;  // how validate_or_throw surfaces it
  const char* summary;  // one-line catalogue text (docs/DIAGNOSTICS.md)
};

// All registered rules, in catalogue (ID) order.
[[nodiscard]] const std::vector<RuleInfo>& rule_registry();

// Lookup by ID ("S001") or name ("sched-empty"); nullptr when unknown.
[[nodiscard]] const RuleInfo* find_rule(std::string_view id_or_name);

// --- rule ID constants (single source for validators and tests) ---
// Schedule structure.
inline constexpr const char* kRuleSchedEmpty = "S001";
inline constexpr const char* kRuleSchedUnassigned = "S002";
inline constexpr const char* kRuleSchedDanglingChiplet = "S003";
inline constexpr const char* kRuleSchedDeadChiplet = "S004";
inline constexpr const char* kRuleSchedShardFraction = "S005";
// Tenant fleet structure.
inline constexpr const char* kRuleFleetEmpty = "T001";
inline constexpr const char* kRuleTenantNoPipeline = "T002";
inline constexpr const char* kRuleTenantForeignPackage = "T003";
// Route reachability.
inline constexpr const char* kRuleRouteUnreachable = "R001";
inline constexpr const char* kRuleRouteIoSevered = "R002";
inline constexpr const char* kRuleNopParams = "R003";
// Memory residency.
inline constexpr const char* kRuleResidencyOverflow = "M001";
// Fault-plan sanity.
inline constexpr const char* kRuleFaultUnknownChiplet = "F001";
inline constexpr const char* kRuleFaultOrder = "F002";
inline constexpr const char* kRuleFaultPenaltySign = "F003";
inline constexpr const char* kRuleFaultNoSurvivor = "F004";
// Arrivals / admission control.
inline constexpr const char* kRuleArrivalSpecInvalid = "A001";
inline constexpr const char* kRuleAdmissionCapacity = "A002";
inline constexpr const char* kRuleAdmissionInertExpiry = "A003";
// Deadline feasibility (critical-path lower bound).
inline constexpr const char* kRuleDeadlineInfeasible = "D001";
// Sweep specifications.
inline constexpr const char* kRuleSweepZipMismatch = "W001";
inline constexpr const char* kRuleSweepOverflow = "W002";
inline constexpr const char* kRuleSweepDuplicateAxis = "W003";
inline constexpr const char* kRuleSweepEmptyAxis = "W004";
// Retired, never reused: C001 (report-width).
// Static performance bounds (advisory — bounds advise, the sim decides;
// every P rule is ThrowKind::kNone by construction and can never throw).
inline constexpr const char* kRuleBoundDeadline = "P001";
inline constexpr const char* kRuleBoundLinkOversubscribed = "P002";
inline constexpr const char* kRuleBoundComputeOversubscribed = "P003";
inline constexpr const char* kRuleBoundResidency = "P004";

// One finding: a violated rule, the source object it anchors to (locus),
// and the human-readable explanation. `enforced` marks whether THIS
// instance is rejected at run time: it defaults from the rule (error
// severity with a non-kNone ThrowKind), but a validator may demote an
// instance the runtime entry point accepts — e.g. residency overflow is
// enforced by the serving placement path yet only linted on the
// simulate_schedule path, and an unroutable edge only throws when NoP
// delays are modeled.
struct Diagnostic {
  const RuleInfo* rule = nullptr;
  // Source-object locus, e.g. "tenant 1 \"vit\" / item 14 (stage 2, layer
  // S_QKV_Proj)" or "options.fault".
  std::string locus;
  std::string message;
  bool enforced = false;
};

// An ordered collection of findings plus the renderings the CLI and the
// JSON artifact writer consume.
class Diagnostics {
 public:
  // Records a finding. Enforcement defaults from the rule (kError severity
  // with a mapped exception type); the second overload pins it explicitly
  // for instances the runtime entry point accepts (see Diagnostic).
  void add(const char* rule_id, std::string locus, std::string message);
  void add(const char* rule_id, std::string locus, std::string message,
           bool enforced);

  [[nodiscard]] const std::vector<Diagnostic>& items() const { return items_; }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] int count(Severity severity) const;
  [[nodiscard]] bool has_errors() const { return count(Severity::kError) > 0; }
  // True when any finding violates the rule with this ID or name.
  [[nodiscard]] bool has_rule(std::string_view id_or_name) const;

  // Fixed-width human diagnostics table (one row per finding) followed by a
  // "N error(s), M warning(s), K note(s)" summary line. "no diagnostics"
  // when empty.
  [[nodiscard]] std::string table() const;
  // Machine-readable rendering through the existing JSON writer:
  // {"diagnostics":[{"rule","name","severity","enforced","locus",
  //  "message"},...],"errors":N,"warnings":N,"notes":N}.
  [[nodiscard]] std::string to_json() const;
  // Same object emitted as one value into an open writer, for callers that
  // compose it into a larger document (cnpu_lint --bounds --json).
  void write_json(JsonWriter& w) const;

  // Throws the mapped exception of the FIRST enforced finding (in
  // insertion order, which validators keep aligned with the order the
  // runtime checks in); returns normally when every finding is lint-only.
  // The exception message is "[<id> <name>] <locus>: <message>".
  void throw_if_enforced() const;

 private:
  std::vector<Diagnostic> items_;
};

}  // namespace cnpu::analysis
