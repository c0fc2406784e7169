#include "verify/plan.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "reconfig/scripts.hpp"

namespace surgeon::verify {

const char* old_life_name(OldLife v) noexcept {
  switch (v) {
    case OldLife::kActive: return "active";
    case OldLife::kPassive: return "passive";
    case OldLife::kRemoved: return "removed";
  }
  return "?";
}

const char* clone_life_name(CloneLife v) noexcept {
  switch (v) {
    case CloneLife::kAbsent: return "absent";
    case CloneLife::kRegistered: return "registered";
    case CloneLife::kStarted: return "started";
    case CloneLife::kRestored: return "restored";
    case CloneLife::kCrashed: return "crashed";
  }
  return "?";
}

std::string AbsState::describe() const {
  std::ostringstream os;
  os << "old=" << old_life_name(old_life)
     << " clone=" << clone_life_name(clone) << " bound="
     << (bound_to_old ? (bound_to_new ? "both" : "old")
                      : (bound_to_new ? "new" : "none"))
     << " streams=" << (streams == StreamOwner::kOld ? "old" : "new")
     << " divulged=" << (divulged ? 1 : 0)
     << " durable=" << (state_durable ? 1 : 0)
     << " delivered=" << (state_delivered ? 1 : 0)
     << " txn=" << (txn_open ? "open" : committed ? "committed"
                                    : aborted     ? "aborted"
                                                  : "none");
  if (replica != CloneLife::kAbsent || replica_has_state) {
    os << " replica=" << clone_life_name(replica)
       << " replica_state=" << (replica_has_state ? 1 : 0);
  }
  if (machine_lost || dead_adopted || dead_retired) {
    os << " machine_lost=" << (machine_lost ? 1 : 0)
       << " dead_adopted=" << (dead_adopted ? 1 : 0)
       << " dead_retired=" << (dead_retired ? 1 : 0);
  }
  return os.str();
}

const char* prim_name(Prim p) noexcept {
  switch (p) {
    case Prim::kBeginTxn: return "begin_txn";
    case Prim::kObjCap: return "obj_cap";
    case Prim::kRegisterClone: return "register_clone";
    case Prim::kPrepBindings: return "prep_bindings";
    case Prim::kSignal: return "signal";
    case Prim::kPassivate: return "passivate";
    case Prim::kDivulge: return "divulge";
    case Prim::kDeliverState: return "deliver_state";
    case Prim::kRebind: return "rebind";
    case Prim::kStartClone: return "start_clone";
    case Prim::kSweepQueues: return "sweep_queues";
    case Prim::kRemoveOld: return "remove_old";
    case Prim::kAwaitRestore: return "await_restore";
    case Prim::kCommit: return "commit";
    case Prim::kAbortRollback: return "abort_rollback";
    case Prim::kCloneCrashed: return "clone_crashed";
    case Prim::kRetrySwap: return "retry_swap";
    case Prim::kCoordinatorCrash: return "coordinator_crash";
    case Prim::kRestartFromWal: return "restart_from_wal";
    case Prim::kRegisterReplica: return "register_replica";
    case Prim::kDeliverStateReplica: return "deliver_state_replica";
    case Prim::kBindReplica: return "bind_replica";
    case Prim::kStartReplica: return "start_replica";
    case Prim::kAwaitRestoreReplica: return "await_restore_replica";
    case Prim::kMachineKill: return "machine_kill";
    case Prim::kAdoptDeadBindings: return "adopt_dead_bindings";
    case Prim::kRetireDead: return "retire_dead";
  }
  return "?";
}

std::vector<PreViolation> precondition(Prim prim, const AbsState& s) {
  std::vector<PreViolation> v;
  auto need = [&v](bool ok, int invariant, const char* clause) {
    if (!ok) v.push_back(PreViolation{invariant, clause});
  };
  switch (prim) {
    case Prim::kBeginTxn:
      need(!s.txn_open, 0, "a transaction is already open");
      break;
    case Prim::kObjCap:
    case Prim::kPrepBindings:
      need(s.old_life != OldLife::kRemoved, 0,
           "the module is already removed");
      break;
    case Prim::kRegisterClone:
      need(s.clone == CloneLife::kAbsent, 6,
           "a clone is already registered (two replacement instances)");
      need(s.old_life != OldLife::kRemoved, 0,
           "the module is already removed");
      break;
    case Prim::kSignal:
    case Prim::kPassivate:
      need(s.old_life == OldLife::kActive, 0,
           "the module is not running its main loop");
      break;
    case Prim::kDivulge:
      need(s.old_life == OldLife::kPassive, 3,
           "divulge requires the module at its reconfiguration point "
           "(quiescence)");
      need(!s.divulged, 2, "the state was already captured (double capture "
                           "would fork the state)");
      break;
    case Prim::kDeliverState:
      need(s.divulged, 2, "only the divulged capture may be delivered");
      need(s.clone == CloneLife::kRegistered ||
               s.clone == CloneLife::kStarted,
           0, "no clone to deliver the state to");
      break;
    case Prim::kRebind:
      need(s.divulged, 3,
           "rebind before the module divulged (quiescence) routes live "
           "traffic away from undivulged state");
      need(s.clone != CloneLife::kAbsent, 1,
           "bindings must route to a registered instance");
      need(s.bound_to_old, 0, "bindings were already moved");
      break;
    case Prim::kStartClone:
      need(s.clone == CloneLife::kRegistered, 0,
           "the clone is not in the registered state");
      need(s.old_life != OldLife::kActive, 6,
           "starting the clone while the old instance serves gives two "
           "live instances");
      break;
    case Prim::kSweepQueues:
      need(s.bound_to_new, 0,
           "queue sweep runs only after the bindings moved");
      break;
    case Prim::kRemoveOld:
      need(s.old_life != OldLife::kActive, 4,
           "removing a serving instance loses requests");
      need(s.old_life != OldLife::kRemoved, 0,
           "the module is already removed");
      need(s.divulged, 2,
           "the state must be captured before its holder is removed");
      need(s.bound_to_new, 1,
           "bindings must be off the instance being removed");
      need(s.state_delivered, 4,
           "the successor must hold the state before the old is removed");
      break;
    case Prim::kAwaitRestore:
      need(s.clone == CloneLife::kStarted, 0, "the clone is not running");
      need(s.state_delivered, 2,
           "nothing to restore: the state was never delivered");
      break;
    case Prim::kCommit:
      need(s.old_life == OldLife::kRemoved, 6,
           "commit with the old instance still present leaves two "
           "instances");
      need(s.clone == CloneLife::kRestored, 4,
           "commit before the clone restored breaks service continuity");
      need(s.bound_to_new, 1, "commit with bindings off the clone");
      break;
    case Prim::kAbortRollback:
      need(!s.divulged, 2,
           "post-divulge rollback discards the captured state (the "
           "watershed only rolls forward)");
      need(s.clone == CloneLife::kAbsent ||
               s.clone == CloneLife::kRegistered,
           6, "a started clone cannot be silently discarded");
      need(s.replica == CloneLife::kAbsent ||
               s.replica == CloneLife::kRegistered,
           6, "a started replica cannot be silently discarded");
      break;
    case Prim::kCloneCrashed:
      need(s.clone == CloneLife::kRegistered ||
               s.clone == CloneLife::kStarted,
           0, "no live clone process to crash");
      break;
    case Prim::kRetrySwap:
      need(s.clone == CloneLife::kCrashed, 0,
           "retry runs only after the clone crashed");
      need(s.divulged, 2, "retry re-delivers the divulged capture");
      need(s.bound_to_new, 1,
           "the fresh clone adopts the holder's bindings");
      break;
    case Prim::kCoordinatorCrash:
      need(s.txn_open, 0,
           "only a journaled script survives its coordinator");
      break;
    case Prim::kRestartFromWal:
      need(s.txn_open, 0, "no open transaction to recover");
      need(!s.divulged || s.state_durable, 2,
           "roll-forward needs the watershed record durable");
      break;
    case Prim::kRegisterReplica:
      need(s.replica == CloneLife::kAbsent, 0,
           "a replica is already registered");
      break;
    case Prim::kDeliverStateReplica:
      need(s.divulged, 2, "only the divulged capture may be delivered");
      need(s.replica == CloneLife::kRegistered ||
               s.replica == CloneLife::kStarted,
           0, "no replica to deliver the state to");
      break;
    case Prim::kBindReplica:
      need(s.replica != CloneLife::kAbsent, 1,
           "bindings must route to a registered replica");
      break;
    case Prim::kStartReplica:
      need(s.replica == CloneLife::kRegistered, 0,
           "the replica is not in the registered state");
      need(s.old_life != OldLife::kActive, 6,
           "starting the replica while the old instance serves gives two "
           "live instances");
      break;
    case Prim::kAwaitRestoreReplica:
      need(s.replica == CloneLife::kStarted, 0,
           "the replica is not running");
      need(s.replica_has_state, 2,
           "nothing to restore: the state was never delivered");
      break;
    case Prim::kMachineKill:
      need(!s.machine_lost, 0, "the machine is already dead");
      break;
    case Prim::kAdoptDeadBindings:
      need(s.machine_lost, 0,
           "no dead member whose bindings need an heir");
      need(s.replica != CloneLife::kAbsent, 1,
           "the dead member's bindings must route to a registered heir");
      need(s.divulged, 7,
           "adopting the dead member's traffic before the survivor "
           "divulged serves requests from a state missing acked writes");
      need(s.replica_has_state, 7,
           "the heir must hold the divulged capture before it takes the "
           "dead member's traffic (else acked writes resurface stale)");
      break;
    case Prim::kRetireDead:
      need(s.machine_lost, 0, "no dead member to retire");
      need(s.dead_adopted, 7,
           "retiring the dead member before an heir adopted its bindings "
           "drops its queued acked traffic");
      break;
  }
  return v;
}

void apply(Prim prim, AbsState& s, bool journaled) {
  switch (prim) {
    case Prim::kBeginTxn:
      if (journaled) s.txn_open = true;
      break;
    case Prim::kObjCap:
    case Prim::kPrepBindings:
    case Prim::kSignal:
    case Prim::kCoordinatorCrash:
    case Prim::kRestartFromWal:
    case Prim::kBindReplica:
      break;  // read-only / marker
    case Prim::kRegisterClone:
      s.clone = CloneLife::kRegistered;
      break;
    case Prim::kPassivate:
      s.old_life = OldLife::kPassive;
      break;
    case Prim::kDivulge:
      s.divulged = true;
      if (journaled) s.state_durable = true;
      break;
    case Prim::kDeliverState:
      s.state_delivered = true;
      break;
    case Prim::kRebind:
      s.bound_to_old = false;
      s.bound_to_new = true;
      s.streams = StreamOwner::kNew;
      break;
    case Prim::kStartClone:
      s.clone = CloneLife::kStarted;
      break;
    case Prim::kSweepQueues:
      s.streams = StreamOwner::kNew;
      break;
    case Prim::kRemoveOld:
      s.old_life = OldLife::kRemoved;
      break;
    case Prim::kAwaitRestore:
      s.clone = CloneLife::kRestored;
      break;
    case Prim::kCommit:
      s.committed = true;
      s.txn_open = false;
      break;
    case Prim::kAbortRollback:
      s.clone = CloneLife::kAbsent;
      s.replica = CloneLife::kAbsent;
      s.aborted = true;
      s.txn_open = false;
      break;
    case Prim::kCloneCrashed:
      s.clone = CloneLife::kCrashed;
      s.state_delivered = false;  // the mailbox copy dies with the process
      break;
    case Prim::kRetrySwap:
      s.clone = CloneLife::kStarted;
      s.state_delivered = true;
      s.streams = StreamOwner::kNew;
      break;
    case Prim::kRegisterReplica:
      s.replica = CloneLife::kRegistered;
      break;
    case Prim::kDeliverStateReplica:
      s.replica_has_state = true;
      break;
    case Prim::kStartReplica:
      s.replica = CloneLife::kStarted;
      break;
    case Prim::kAwaitRestoreReplica:
      s.replica = CloneLife::kRestored;
      break;
    case Prim::kMachineKill:
      s.machine_lost = true;
      break;
    case Prim::kAdoptDeadBindings:
      s.dead_adopted = true;
      break;
    case Prim::kRetireDead:
      s.dead_retired = true;
      break;
  }
}

std::vector<std::string> Plan::journal_boundaries() const {
  std::vector<std::string> out;
  for (const Step& step : steps) {
    if (!step.journal.empty()) out.push_back(step.journal);
  }
  return out;
}

namespace {

using reconfig::Action;
using reconfig::Binding;
using reconfig::Shape;

/// The model's primitive for one engine row; a second clone plays the
/// abstract state's replica.
Prim prim_of(Action action, bool replica, Binding bindings) {
  switch (action) {
    case Action::kBegin: return Prim::kBeginTxn;
    case Action::kObjCap: return Prim::kObjCap;
    case Action::kRegister:
      return replica ? Prim::kRegisterReplica : Prim::kRegisterClone;
    case Action::kPrep: return Prim::kPrepBindings;
    case Action::kSignal: return Prim::kSignal;
    case Action::kPassivate: return Prim::kPassivate;
    case Action::kDivulge: return Prim::kDivulge;
    case Action::kDeliver:
      return replica ? Prim::kDeliverStateReplica : Prim::kDeliverState;
    case Action::kRebind:
      return bindings == Binding::kAdopt  ? Prim::kAdoptDeadBindings
             : bindings == Binding::kCopy ? Prim::kBindReplica
                                          : Prim::kRebind;
    case Action::kStart:
      return replica ? Prim::kStartReplica : Prim::kStartClone;
    case Action::kAwait:
      return replica ? Prim::kAwaitRestoreReplica : Prim::kAwaitRestore;
    case Action::kDrain: return Prim::kSweepQueues;
    case Action::kRemove: return Prim::kRemoveOld;
    case Action::kRetire: return Prim::kRetireDead;
    case Action::kCommit: break;
  }
  return Prim::kCommit;
}

/// `shape`'s rows of the engine's step table (reconfig::shape_rows), in run
/// order. A row reads "step", or "step.action" when its step runs several
/// table rows; a second clone's rows read "heir.action" when it adopts a
/// dead member and "replica.action" otherwise, and a `prefix` replaces the
/// step (a second clone's role follows it). When journaled, the begin row
/// carries "begin" and each row that writes an intent carries its step.
std::vector<Step> engine_steps(const Shape& shape, bool journaled,
                               const std::string& prefix = "") {
  const std::vector<reconfig::RowRun> rows =
      reconfig::shape_rows(shape, journaled);
  std::vector<Step> steps;
  for (const auto& [row, i, intent] : rows) {
    const bool alone = std::all_of(rows.begin(), rows.end(), [&](auto& r) {
      return r.row == row || r.row->step != row->step;
    });
    const char* role =
        shape.clones[i].bindings == Binding::kAdopt ? "heir." : "replica.";
    const std::string label =
        i != 0            ? prefix + role + row->label
        : !prefix.empty() ? prefix + row->label
        : alone           ? std::string(row->step)
                          : std::string(row->step) + "." + row->label;
    const bool journal = row->action == Action::kBegin || (journaled && intent);
    steps.push_back({prim_of(row->action, i != 0, shape.clones[i].bindings),
                     label, journal ? row->step : ""});
  }
  return steps;
}

/// `steps` with `rows` inserted before the first step of `prim`; `cut`
/// drops that step and everything after it (a crash or abort point).
std::vector<Step> splice(std::vector<Step> steps, Prim prim,
                         const std::vector<Step>& rows, bool cut) {
  auto at = std::find_if(steps.begin(), steps.end(),
                         [prim](const Step& s) { return s.prim == prim; });
  if (cut) at = steps.erase(at, steps.end());
  steps.insert(at, rows.begin(), rows.end());
  return steps;
}

/// `plan` with its first `moved` step run just before its first `before`
/// step instead (the seeded broken plans).
Plan reordered(Plan plan, Prim moved, Prim before) {
  auto at = std::find_if(plan.steps.begin(), plan.steps.end(),
                         [moved](const Step& s) { return s.prim == moved; });
  const Step step = *at;
  plan.steps.erase(at);
  plan.steps = splice(std::move(plan.steps), before, {step}, false);
  return plan;
}

Plan engine_plan(std::string name, std::string description,
                 const Shape& shape, bool journaled = true) {
  return Plan{std::move(name), std::move(description), journaled,
              Outcome::kCommitted, engine_steps(shape, journaled)};
}

/// `run`'s coordinator dies at the objstate_move boundary, before the
/// watershed: the successor scans the WAL and runs the engine's rollback,
/// which removes every logged clone (recover::recover_coordinator).
Plan recover_rollback(std::string name, std::string description,
                      const Plan& run) {
  return Plan{std::move(name), std::move(description), /*journaled=*/true,
              Outcome::kAborted,
              splice(run.steps, Prim::kSignal,
                     {{Prim::kCoordinatorCrash, "crash", ""},
                      {Prim::kRestartFromWal, "recover.scan", ""},
                      {Prim::kAbortRollback, "recover.rollback", "abort"}},
                     true)};
}

/// `run` (of `shape`)'s coordinator dies at the add boundary, past the
/// watershed: the successor re-enters the engine with the logged shape and
/// the WAL's state record. Its rows before the delivery only re-read what
/// the dead coordinator set up (each probes live state first), and the
/// rebind it already applied degenerates to a sweep of straggler messages.
Plan recover_rollforward(std::string name, std::string description,
                         const Plan& run, Shape shape) {
  shape.state.emplace();
  std::vector<Step> steps = engine_steps(shape, false, "recover.");
  steps.erase(steps.begin(),
              std::find_if(steps.begin(), steps.end(), [](const Step& s) {
                return s.prim == Prim::kDeliverState;
              }));
  for (Step& step : steps) {
    if (step.prim == Prim::kRebind) step.prim = Prim::kSweepQueues;
  }
  steps.insert(steps.begin(), {{Prim::kCoordinatorCrash, "crash", ""},
                               {Prim::kRestartFromWal, "recover.scan", ""}});
  return Plan{std::move(name), std::move(description), /*journaled=*/true,
              Outcome::kCommitted,
              splice(run.steps, Prim::kStartClone, steps, true)};
}

}  // namespace

std::vector<Plan> shipped_plans() {
  const Plan replace = engine_plan(
      "replace",
      "Figure 5 replacement: divulge, move state, rebind, swap instances "
      "(reconfig::replace_module)",
      reconfig::replace_shape());
  const auto derived = [](const char* name, const char* description,
                          Outcome outcome, std::vector<Step> steps) {
    return Plan{name, description, /*journaled=*/true, outcome,
                std::move(steps)};
  };
  Plan rebuild = engine_plan(
      "group_rebuild",
      "machine loss: a group member died with its machine; the survivor "
      "divulges once, its continuation stays in place, and a fresh heir on "
      "a spare adopts the dead member's bindings (replicate::rebuild_group)",
      reconfig::rebuild_shape());
  rebuild.steps.insert(rebuild.steps.begin(),
                       {Prim::kMachineKill, "machine_kill", ""});
  return {
      replace,
      engine_plan("move",
                  "process migration: the Figure 5 script with the same "
                  "program on another machine (reconfig::move_module)",
                  reconfig::replace_shape()),
      engine_plan("update",
                  "software maintenance: the Figure 5 script with a new "
                  "program version in place (reconfig::update_module)",
                  reconfig::replace_shape()),
      derived("abort_divulge_timeout",
              "divulge timeout: the module never complied, everything rolls "
              "back and the old instance keeps serving "
              "(reconfig::replace_module abort path)",
              Outcome::kAborted,
              splice(replace.steps, Prim::kPassivate,
                     {{Prim::kAbortRollback, "abort", "abort"}}, true)),
      // The clone crashes during the first await; the retry chain inside
      // the restore row replaces it before the await succeeds.
      derived("retry_reinstall",
              "post-divulge retry chain: the clone crashes while restoring; "
              "a fresh clone adopts bindings, queues, and the saved state "
              "(reconfig::replace_module, max_attempts > 1)",
              Outcome::kCommitted,
              splice(replace.steps, Prim::kAwaitRestore,
                     {{Prim::kCloneCrashed, "clone_crash", ""},
                      {Prim::kRetrySwap, "retry_swap", ""}},
                     false)),
      recover_rollback(
          "recover_rollback",
          "coordinator dies before the watershed; the successor scans the "
          "WAL, removes the clone, and the old instance keeps serving "
          "(recover::recover_coordinator)",
          replace),
      recover_rollforward(
          "recover_rollforward",
          "coordinator dies after the watershed; the successor finishes the "
          "script from the WAL: re-deliver, rebind remnants, start, retire "
          "(recover::recover_coordinator)",
          replace, reconfig::replace_shape()),
      engine_plan("replicate",
                  "replication: divulge once, install the state in a "
                  "replacing clone AND a fresh replica "
                  "(reconfig::replicate_module, unjournaled)",
                  reconfig::replicate_shape(), /*journaled=*/false),
      rebuild,
      engine_plan("rebalance",
                  "placement repair: a machine joined the ring and a member "
                  "off its placement migrates via the Figure 5 move script "
                  "(replicate::GroupManager::rebalance)",
                  reconfig::replace_shape()),
      engine_plan("replace_native",
                  "native module swap: the telemetry collector or SLO monitor "
                  "installs the divulged windows on its own tick, and the "
                  "old instance retires once the clone serves "
                  "(reconfig::replace_module over a native module)",
                  reconfig::native_shape()),
      recover_rollback(
          "group_rebuild_recover_rollback",
          "a group rebuild's coordinator dies before the watershed; the "
          "successor scans the WAL, removes both logged clones, and the "
          "survivor keeps serving (recover::recover_coordinator)",
          rebuild),
      recover_rollforward(
          "group_rebuild_recover_rollforward",
          "a group rebuild's coordinator dies after the watershed; the "
          "successor re-enters the engine with the logged two-clone shape: "
          "re-deliver, rebind remnants, start both clones, retire the "
          "survivor and the corpse (recover::recover_coordinator)",
          rebuild, reconfig::rebuild_shape()),
  };
}

Plan shipped_plan(const std::string& name) {
  for (Plan& plan : shipped_plans()) {
    if (plan.name == name) return plan;
  }
  throw std::out_of_range("no shipped plan named '" + name + "'");
}

Plan plan_broken_rebind_before_divulge() {
  Plan p = reordered(shipped_plan("replace"), Prim::kRebind, Prim::kSignal);
  p.name = "broken_rebind_before_divulge";
  p.description =
      "SEEDED BROKEN PLAN: the rebind runs before the module divulged -- "
      "invariant 3 must flag it (checker self-test, not shipped)";
  return p;
}

Plan plan_broken_adopt_before_divulge() {
  Plan p = reordered(shipped_plan("group_rebuild"), Prim::kAdoptDeadBindings,
                     Prim::kSignal);
  p.name = "broken_adopt_before_divulge";
  p.description =
      "SEEDED BROKEN PLAN: the heir adopts the dead member's bindings "
      "before the survivor divulged -- invariant 7 must flag it (checker "
      "self-test, not shipped)";
  return p;
}

}  // namespace surgeon::verify
