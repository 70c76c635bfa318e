#include "analysis/rules.h"

#include <algorithm>
#include <stdexcept>

#include "util/json.h"
#include "util/table.h"

namespace cnpu::analysis {

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kError: return "error";
    case Severity::kWarning: return "warning";
    case Severity::kNote: return "note";
  }
  return "?";
}

const std::vector<RuleInfo>& rule_registry() {
  // Catalogue order == ID order; docs/DIAGNOSTICS.md mirrors this table.
  static const std::vector<RuleInfo> kRules = {
      {kRuleSchedEmpty, "sched-empty", Severity::kError,
       ThrowKind::kInvalidArgument,
       "schedule has no items (empty pipeline)"},
      {kRuleSchedUnassigned, "sched-unassigned", Severity::kError,
       ThrowKind::kLogicError,
       "an item has no chiplet assignment"},
      {kRuleSchedDanglingChiplet, "sched-dangling-chiplet", Severity::kError,
       ThrowKind::kOutOfRange,
       "a shard references a chiplet id the package never had"},
      {kRuleSchedDeadChiplet, "sched-dead-chiplet", Severity::kError,
       ThrowKind::kOutOfRange,
       "a shard references a chiplet removed by without_chiplet"},
      {kRuleSchedShardFraction, "sched-shard-fraction", Severity::kWarning,
       ThrowKind::kNone,
       "shard fractions are non-positive or do not sum to 1"},
      {kRuleFleetEmpty, "fleet-empty", Severity::kError,
       ThrowKind::kInvalidArgument, "no tenant workloads"},
      {kRuleTenantNoPipeline, "tenant-no-pipeline", Severity::kError,
       ThrowKind::kInvalidArgument, "a tenant workload has a null pipeline"},
      {kRuleTenantForeignPackage, "tenant-foreign-package", Severity::kError,
       ThrowKind::kInvalidArgument,
       "a tenant schedule is placed on a different package"},
      {kRuleRouteUnreachable, "route-unreachable", Severity::kError,
       ThrowKind::kRuntimeError,
       "a schedule edge has no route (failed sites disconnect the pair)"},
      {kRuleRouteIoSevered, "route-io-severed", Severity::kError,
       ThrowKind::kRuntimeError,
       "the I/O-port router is dead or unreachable: ingress is severed"},
      {kRuleNopParams, "nop-params", Severity::kError,
       ThrowKind::kInvalidArgument,
       "NoP link bandwidth is not positive or hop latency is negative"},
      {kRuleResidencyOverflow, "residency-overflow", Severity::kError,
       ThrowKind::kInvalidArgument,
       "combined resident weights/activations overflow a chiplet's memory"},
      {kRuleFaultUnknownChiplet, "fault-unknown-chiplet", Severity::kError,
       ThrowKind::kInvalidArgument,
       "FaultPlan names a chiplet not in the package"},
      {kRuleFaultOrder, "fault-order", Severity::kError,
       ThrowKind::kInvalidArgument,
       "fail instant is negative or NaN, or recovery precedes it"},
      {kRuleFaultPenaltySign, "fault-penalty-sign", Severity::kWarning,
       ThrowKind::kNone,
       "reschedule penalty is negative (treated as a time travel stall)"},
      {kRuleFaultNoSurvivor, "fault-no-survivor", Severity::kError,
       ThrowKind::kInvalidArgument,
       "no surviving chiplet can host the failed chiplet's work"},
      {kRuleArrivalSpecInvalid, "arrival-spec-invalid", Severity::kError,
       ThrowKind::kInvalidArgument,
       "an ArrivalSpec cannot generate admissions (rate, profile, or trace)"},
      {kRuleAdmissionCapacity, "admission-capacity", Severity::kError,
       ThrowKind::kInvalidArgument,
       "a ShedPolicy is set without a positive queue_capacity"},
      {kRuleAdmissionInertExpiry, "admission-inert-expiry", Severity::kNote,
       ThrowKind::kNone,
       "shed_expired is set but the stream has no deadline (inert)"},
      {kRuleDeadlineInfeasible, "deadline-infeasible", Severity::kError,
       ThrowKind::kNone,
       "deadline is below the static critical-path latency bound: every "
       "frame must miss"},
      {kRuleSweepZipMismatch, "sweep-zip-mismatch", Severity::kError,
       ThrowKind::kLogicError, "zipped sweep axes have unequal lengths"},
      {kRuleSweepOverflow, "sweep-overflow", Severity::kError,
       ThrowKind::kOverflowError, "cartesian sweep exceeds INT_MAX points"},
      {kRuleSweepDuplicateAxis, "sweep-duplicate-axis", Severity::kWarning,
       ThrowKind::kNone,
       "two sweep axes share a name (lookups resolve to the first)"},
      {kRuleSweepEmptyAxis, "sweep-empty-axis", Severity::kNote,
       ThrowKind::kNone, "an axis has no values: the sweep is empty"},
      {kRuleBoundDeadline, "bound-deadline-infeasible", Severity::kWarning,
       ThrowKind::kNone,
       "the static critical-path latency bound exceeds the stream's "
       "deadline: every frame must miss"},
      {kRuleBoundLinkOversubscribed, "bound-link-oversubscribed",
       Severity::kWarning, ThrowKind::kNone,
       "steady-state byte demand on a NoP link exceeds its bandwidth at "
       "the admitted rate: the open-loop queue diverges"},
      {kRuleBoundComputeOversubscribed, "bound-compute-oversubscribed",
       Severity::kWarning, ThrowKind::kNone,
       "steady-state compute demand on a chiplet exceeds 100% at the "
       "admitted rate: the open-loop queue diverges"},
      {kRuleBoundResidency, "bound-residency-overflow", Severity::kNote,
       ThrowKind::kNone,
       "combined resident weights/activations overflow a chiplet's memory "
       "(advisory restatement of M001 from the bounds pass)"},
  };
  return kRules;
}

const RuleInfo* find_rule(std::string_view id_or_name) {
  for (const RuleInfo& r : rule_registry()) {
    if (id_or_name == r.id || id_or_name == r.name) return &r;
  }
  return nullptr;
}

void Diagnostics::add(const char* rule_id, std::string locus,
                      std::string message) {
  const RuleInfo* rule = find_rule(rule_id);
  if (rule == nullptr) {
    throw std::logic_error(std::string("Diagnostics::add: unregistered rule "
                                       "id \"") +
                           rule_id + "\"");
  }
  const bool enforced =
      rule->severity == Severity::kError && rule->throws_as != ThrowKind::kNone;
  items_.push_back(
      Diagnostic{rule, std::move(locus), std::move(message), enforced});
}

void Diagnostics::add(const char* rule_id, std::string locus,
                      std::string message, bool enforced) {
  add(rule_id, std::move(locus), std::move(message));
  items_.back().enforced =
      enforced && items_.back().rule->throws_as != ThrowKind::kNone;
}

int Diagnostics::count(Severity severity) const {
  return static_cast<int>(
      std::count_if(items_.begin(), items_.end(), [&](const Diagnostic& d) {
        return d.rule->severity == severity;
      }));
}

bool Diagnostics::has_rule(std::string_view id_or_name) const {
  return std::any_of(items_.begin(), items_.end(), [&](const Diagnostic& d) {
    return id_or_name == d.rule->id || id_or_name == d.rule->name;
  });
}

std::string Diagnostics::table() const {
  if (items_.empty()) return "no diagnostics\n";
  Table t;
  t.set_header({"severity", "rule", "locus", "message"});
  for (const Diagnostic& d : items_) {
    t.add_row({severity_name(d.rule->severity),
               std::string(d.rule->id) + " " + d.rule->name, d.locus,
               d.message});
  }
  std::string out = t.to_string();
  out += std::to_string(count(Severity::kError)) + " error(s), " +
         std::to_string(count(Severity::kWarning)) + " warning(s), " +
         std::to_string(count(Severity::kNote)) + " note(s)\n";
  return out;
}

std::string Diagnostics::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

void Diagnostics::write_json(JsonWriter& w) const {
  w.begin_object();
  w.key("diagnostics").begin_array();
  for (const Diagnostic& d : items_) {
    w.begin_object();
    w.key("rule").value(d.rule->id);
    w.key("name").value(d.rule->name);
    w.key("severity").value(severity_name(d.rule->severity));
    w.key("enforced").value(d.enforced);
    w.key("locus").value(d.locus);
    w.key("message").value(d.message);
    w.end_object();
  }
  w.end_array();
  w.key("errors").value(count(Severity::kError));
  w.key("warnings").value(count(Severity::kWarning));
  w.key("notes").value(count(Severity::kNote));
  w.end_object();
}

void Diagnostics::throw_if_enforced() const {
  for (const Diagnostic& d : items_) {
    if (!d.enforced || d.rule->throws_as == ThrowKind::kNone) continue;
    const std::string what = "[" + std::string(d.rule->id) + " " +
                             d.rule->name + "] " + d.locus + ": " + d.message;
    switch (d.rule->throws_as) {
      case ThrowKind::kInvalidArgument: throw std::invalid_argument(what);
      case ThrowKind::kLogicError: throw std::logic_error(what);
      case ThrowKind::kOutOfRange: throw std::out_of_range(what);
      case ThrowKind::kRuntimeError: throw std::runtime_error(what);
      case ThrowKind::kOverflowError: throw std::overflow_error(what);
      case ThrowKind::kNone: break;  // unreachable: filtered above
    }
  }
}

}  // namespace cnpu::analysis
