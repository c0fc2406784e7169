#include "verify/checker.hpp"

#include <sstream>

namespace surgeon::verify {

const char* invariant_name(int id) noexcept {
  switch (id) {
    case 1: return "binding integrity: exactly one live routing target";
    case 2: return "captured state equals restored state (single lineage)";
    case 3: return "rebind only after quiescence/divulge (the watershed)";
    case 4: return "service continuity across the replacement";
    case 5: return "transition monotonicity (no watershed reversal)";
    case 6: return "exactly one live instance of the replaced module";
    case 7: return "acked-write durability across machine loss";
  }
  return "plan well-formedness";
}

char inv_status_letter(InvStatus s) noexcept {
  switch (s) {
    case InvStatus::kPreserved: return 'P';
    case InvStatus::kEstablished: return 'E';
    case InvStatus::kViolated: return 'V';
  }
  return '?';
}

bool invariant_holds(int id, const AbsState& s) {
  switch (id) {
    case 1:
      // The binding set routes to exactly one instance, and that instance
      // exists.
      return (s.bound_to_old != s.bound_to_new) &&
             (!s.bound_to_old || s.old_life != OldLife::kRemoved) &&
             (!s.bound_to_new || s.clone != CloneLife::kAbsent);
    case 2:
      // Only the divulged capture ever reaches a successor, and nothing
      // claims to be restored without having received it.
      return (!s.state_delivered || s.divulged) &&
             (s.clone != CloneLife::kRestored || s.state_delivered) &&
             (!s.replica_has_state || s.divulged) &&
             (s.replica != CloneLife::kRestored || s.replica_has_state);
    case 3:
      // Bindings and streams move only after the watershed, and the
      // watershed implies the module left its main loop.
      return (!s.bound_to_new || s.divulged) &&
             (s.streams != StreamOwner::kNew || s.divulged) &&
             (!s.divulged || s.old_life != OldLife::kActive);
    case 4:
      // Removing the old instance requires a successor holding the
      // bindings; an abort restores the pre-script configuration.
      return (s.old_life != OldLife::kRemoved ||
              (s.bound_to_new && s.clone != CloneLife::kAbsent)) &&
             (!s.aborted ||
              (s.old_life == OldLife::kActive && s.bound_to_old &&
               s.clone == CloneLife::kAbsent));
    case 6:
      // Never two serving instances of the replaced module.
      return !(s.old_life == OldLife::kActive &&
               (s.clone == CloneLife::kStarted ||
                s.clone == CloneLife::kRestored)) &&
             !(s.old_life == OldLife::kActive &&
               (s.replica == CloneLife::kStarted ||
                s.replica == CloneLife::kRestored));
    case 7:
      // No acked write lost, none resurfacing stale: the dead member's
      // traffic only ever routes to an heir holding the divulged capture
      // (every acked write lives in any survivor's state), and the corpse
      // is only retired once that heir took over.
      return (!s.dead_adopted || (s.divulged && s.replica_has_state)) &&
             (!s.dead_retired || s.dead_adopted);
    default:
      return true;
  }
}

namespace {

/// Invariant 5 (transition property): monotone facts never revert across a
/// step. Returns the violated-clause text, or nullptr if the transition is
/// clean.
const char* transition_violation(const AbsState& before,
                                 const AbsState& after) {
  if (before.divulged && !after.divulged) {
    return "the divulge watershed was reversed";
  }
  if (before.state_durable && !after.state_durable) {
    return "the durable watershed record vanished";
  }
  if (before.committed && !after.committed) return "a commit was undone";
  if (before.aborted && !after.aborted) return "an abort was undone";
  if (before.old_life == OldLife::kRemoved &&
      after.old_life != OldLife::kRemoved) {
    return "a removed instance was resurrected";
  }
  if (before.clone == CloneLife::kRestored &&
      after.clone != CloneLife::kRestored) {
    return "a restored clone regressed";
  }
  if (before.machine_lost && !after.machine_lost) {
    return "a dead machine came back mid-plan";
  }
  if (before.dead_adopted && !after.dead_adopted) {
    return "the heir un-adopted the dead member's bindings";
  }
  if (before.dead_retired && !after.dead_retired) {
    return "a retired member was resurrected";
  }
  if (after.committed && after.aborted) {
    return "the transaction both committed and aborted";
  }
  return nullptr;
}

/// The declared-outcome check: does the final state match what the plan
/// promises? Returns the violated-clause text or nullptr.
const char* outcome_violation(Outcome outcome, const AbsState& s) {
  if (outcome == Outcome::kCommitted) {
    if (!s.committed) return "the plan never committed";
    if (s.old_life != OldLife::kRemoved) {
      return "committed with the old instance still present";
    }
    if (s.clone != CloneLife::kRestored) {
      return "committed before the clone restored the state";
    }
    if (!s.bound_to_new) return "committed with bindings off the clone";
    if (s.streams != StreamOwner::kNew) {
      return "committed with streams still owned by the old instance";
    }
    if (s.replica != CloneLife::kAbsent &&
        s.replica != CloneLife::kRestored) {
      return "committed with a half-installed replica";
    }
    if (s.machine_lost && !s.dead_retired) {
      return "committed with the dead member still registered";
    }
  } else {
    if (!s.aborted) return "the plan never aborted";
    if (s.committed) return "aborted after committing";
    if (s.old_life != OldLife::kActive || !s.bound_to_old ||
        s.clone != CloneLife::kAbsent || s.replica != CloneLife::kAbsent) {
      return "abort did not restore the pre-script configuration";
    }
  }
  return nullptr;
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

PlanReport check_plan(const Plan& plan) {
  PlanReport report;
  report.plan = plan.name;
  report.description = plan.description;

  AbsState state;
  int index = 0;
  for (const Step& step : plan.steps) {
    ++index;
    StepReport sr;
    sr.index = index;
    sr.prim = step.prim;
    sr.label = step.label;
    sr.before = state;

    for (const PreViolation& pv : precondition(step.prim, state)) {
      sr.pre_ok = false;
      report.violations.push_back(Violation{
          index, step.label, pv.invariant, "precondition", pv.clause,
          state.describe()});
    }

    // Postcondition applies even after a failed precondition: a broken
    // plan's downstream damage must surface, not stop at the first clause.
    apply(step.prim, state, plan.journaled);
    sr.after = state;

    for (int inv = 1; inv <= 7; ++inv) {
      InvStatus status;
      if (inv == 5) {
        const char* bad = transition_violation(sr.before, sr.after);
        status = bad == nullptr ? InvStatus::kPreserved : InvStatus::kViolated;
        if (bad != nullptr) {
          report.violations.push_back(Violation{index, step.label, 5,
                                                "boundary", bad,
                                                state.describe()});
        }
      } else {
        const bool held = invariant_holds(inv, sr.before);
        const bool holds = invariant_holds(inv, sr.after);
        status = !holds ? InvStatus::kViolated
                 : held ? InvStatus::kPreserved
                        : InvStatus::kEstablished;
        if (!holds) {
          report.violations.push_back(Violation{
              index, step.label, inv, "boundary",
              std::string("invariant does not hold after the step: ") +
                  invariant_name(inv),
              state.describe()});
        }
      }
      sr.invariants[static_cast<std::size_t>(inv - 1)] = status;
    }
    report.steps.push_back(std::move(sr));
  }

  report.end_state = state;
  if (const char* bad = outcome_violation(plan.outcome, state)) {
    report.violations.push_back(Violation{index, "end", 6, "outcome", bad,
                                          state.describe()});
  }
  report.ok = report.violations.empty();
  return report;
}

std::string PlanReport::to_text() const {
  std::ostringstream os;
  os << "plan " << plan << " -- " << description << "\n";
  os << "   # step                       prim                   pre  "
        "i1 i2 i3 i4 i5 i6 i7\n";
  for (const StepReport& sr : steps) {
    os << "  ";
    std::string idx = std::to_string(sr.index);
    if (idx.size() < 2) os << ' ';
    os << idx << ' ' << sr.label;
    for (std::size_t i = sr.label.size(); i < 26; ++i) os << ' ';
    const std::string prim = prim_name(sr.prim);
    os << ' ' << prim;
    for (std::size_t i = prim.size(); i < 22; ++i) os << ' ';
    os << (sr.pre_ok ? " ok  " : " BAD ");
    for (InvStatus s : sr.invariants) {
      os << ' ' << inv_status_letter(s) << ' ';
    }
    os << "\n";
    for (const Violation& v : violations) {
      if (v.step_index != sr.index || v.kind == "outcome") continue;
      os << "       !! invariant " << v.invariant << " (" << v.kind
         << "): " << v.detail << "\n";
      os << "          state: " << v.state << "\n";
    }
  }
  os << "  end: " << end_state.describe() << "\n";
  for (const Violation& v : violations) {
    if (v.kind != "outcome") continue;
    os << "  !! invariant " << v.invariant << " (outcome): " << v.detail
       << "\n";
  }
  if (ok) {
    os << "  result: PASS (" << steps.size() << " steps)\n";
  } else {
    os << "  result: FAIL (" << violations.size() << " violation"
       << (violations.size() == 1 ? "" : "s") << ")\n";
  }
  return os.str();
}

std::string PlanReport::to_json() const {
  std::ostringstream os;
  os << "{\"plan\":\"" << json_escape(plan) << "\",\"ok\":"
     << (ok ? "true" : "false") << ",\"steps\":[";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepReport& sr = steps[i];
    if (i != 0) os << ",";
    os << "{\"index\":" << sr.index << ",\"step\":\""
       << json_escape(sr.label) << "\",\"prim\":\"" << prim_name(sr.prim)
       << "\",\"pre_ok\":" << (sr.pre_ok ? "true" : "false")
       << ",\"invariants\":\"";
    for (InvStatus s : sr.invariants) os << inv_status_letter(s);
    os << "\",\"state\":\"" << json_escape(sr.after.describe()) << "\"}";
  }
  os << "],\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    if (i != 0) os << ",";
    os << "{\"step_index\":" << v.step_index << ",\"step\":\""
       << json_escape(v.step) << "\",\"invariant\":" << v.invariant
       << ",\"kind\":\"" << v.kind << "\",\"detail\":\""
       << json_escape(v.detail) << "\",\"state\":\"" << json_escape(v.state)
       << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace surgeon::verify
