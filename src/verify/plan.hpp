// Reconfiguration plans and their primitives' pre/postconditions.
//
// A plan is the declarative skeleton of a reconfiguration script: the
// ordered sequence of primitives (passivate, capture/divulge, rebind,
// restore, commit, abort/rollback, restart-from-WAL, ...) the script
// executes, stripped of timing, retries-not-taken, and transport detail.
// Each primitive carries a declared precondition and postcondition over an
// ABSTRACT configuration state -- module liveness, the binding set, the
// divulge watershed, stream ownership -- in the spirit of the Hoare-style
// reconfiguration calculus (arXiv 2107.05253) and Lanoix-Kouchnarenko's
// verified component substitution (arXiv 1404.0848).
//
// The checker (verify/checker.hpp) symbolically executes a plan over this
// state and reports, per step boundary, which of the chaos harness's
// invariants 1-7 are established, preserved, or violated -- BEFORE the
// script ever runs against a simulator. Every shipped plan is generated
// from the step table the transaction engine runs (reconfig/transaction.hpp):
// each engine row maps onto a primitive, and only the environment's events
// (machine kill, clone or coordinator crash) and the recovery scan are
// added here, so a plan cannot drift from its script.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace surgeon::verify {

// --- abstract configuration state -------------------------------------------

/// Liveness of the module being replaced ("old" instance).
enum class OldLife : std::uint8_t {
  kActive,   // serving in its main loop
  kPassive,  // reached its reconfiguration point and divulged control
  kRemoved,  // deregistered from the bus
};

/// Liveness of the replacement ("clone") instance.
enum class CloneLife : std::uint8_t {
  kAbsent,      // not registered
  kRegistered,  // registered (STATUS=clone), process not started
  kStarted,     // process running, restoring or about to
  kRestored,    // finished installing the abstract state; serving
  kCrashed,     // process died (retry chain takes over)
};

/// Who owns the replaced module's message queues (streams).
enum class StreamOwner : std::uint8_t { kOld, kNew };

const char* old_life_name(OldLife v) noexcept;
const char* clone_life_name(CloneLife v) noexcept;

/// The abstract configuration state a plan transforms. One replaced module,
/// its clone, and (for the replication script) one extra replica.
struct AbsState {
  OldLife old_life = OldLife::kActive;
  CloneLife clone = CloneLife::kAbsent;
  bool bound_to_old = true;   // binding set routes to the old instance
  bool bound_to_new = false;  // binding set routes to the clone
  StreamOwner streams = StreamOwner::kOld;
  bool divulged = false;         // the watershed: abstract state captured
  bool state_durable = false;    // divulged record hit the WAL
  bool state_delivered = false;  // buffer in the clone's decode mailbox
  bool txn_open = false;         // WAL transaction open
  bool committed = false;
  bool aborted = false;
  // Replication only: the additional replica instance.
  CloneLife replica = CloneLife::kAbsent;
  bool replica_has_state = false;
  // Machine loss (group rebuild) only: a replica-group member's machine
  // died; the plan must hand its bindings to an heir that can restore the
  // divulged capture, then retire the corpse (invariant 7).
  bool machine_lost = false;   // a member's machine is dead
  bool dead_adopted = false;   // the dead member's bindings found an heir
  bool dead_retired = false;   // the dead member left the bus

  [[nodiscard]] std::string describe() const;
  bool operator==(const AbsState&) const = default;
};

// --- primitives -------------------------------------------------------------

/// The reconfiguration primitives plans are built from. Read-only markers
/// (kObjCap, kPrepBindings, kSignal, kCoordinatorCrash) transform nothing
/// but still carry preconditions and mark journal boundaries.
enum class Prim : std::uint8_t {
  kBeginTxn,         // open the WAL transaction
  kObjCap,           // mh_obj_cap: read the current specification
  kRegisterClone,    // register the clone (STATUS=clone, not started)
  kPrepBindings,     // mh_bind_cap/mh_edit_bind: prepare the rebind batch
  kSignal,           // signal the module; compliance not yet observed
  kPassivate,        // module reached its reconfiguration point
  kDivulge,          // capture the abstract state (the watershed)
  kDeliverState,     // move the state buffer toward the clone's mailbox
  kRebind,           // mh_rebind: atomically repoint bindings + queues
  kStartClone,       // mh_chg_obj "add": start the clone
  kSweepQueues,      // drain window: late in-flight messages swept across
  kRemoveOld,        // mh_chg_obj "del": retire the old instance
  kAwaitRestore,     // clone finished installing the state
  kCommit,           // close the transaction (commit record)
  kAbortRollback,    // pre-divulge rollback: clones gone, old keeps serving
  kCloneCrashed,     // environment: the clone process died
  kRetrySwap,        // retry chain: fresh clone adopts bindings + state
  kCoordinatorCrash, // environment: the coordinator process died
  kRestartFromWal,   // successor coordinator scans the WAL and resumes
  kRegisterReplica,  // replication: register the extra replica
  kDeliverStateReplica,
  kBindReplica,      // replica receives copies of the original's bindings
  kStartReplica,
  kAwaitRestoreReplica,
  kMachineKill,       // environment: a group member's machine dies
  kAdoptDeadBindings, // heir adopts the dead member's bindings + queues
  kRetireDead,        // the dead member is deregistered from the bus
};

const char* prim_name(Prim p) noexcept;

/// Every primitive, for table-driven tests and the DESIGN.md table.
inline constexpr std::array<Prim, 27> kAllPrims = {
    Prim::kBeginTxn,        Prim::kObjCap,
    Prim::kRegisterClone,   Prim::kPrepBindings,
    Prim::kSignal,          Prim::kPassivate,
    Prim::kDivulge,         Prim::kDeliverState,
    Prim::kRebind,          Prim::kStartClone,
    Prim::kSweepQueues,     Prim::kRemoveOld,
    Prim::kAwaitRestore,    Prim::kCommit,
    Prim::kAbortRollback,   Prim::kCloneCrashed,
    Prim::kRetrySwap,       Prim::kCoordinatorCrash,
    Prim::kRestartFromWal,  Prim::kRegisterReplica,
    Prim::kDeliverStateReplica, Prim::kBindReplica,
    Prim::kStartReplica,    Prim::kAwaitRestoreReplica,
    Prim::kMachineKill,     Prim::kAdoptDeadBindings,
    Prim::kRetireDead,
};

/// One violated precondition clause: which invariant the clause guards
/// (1-7, or 0 for plan well-formedness) and the clause's text.
struct PreViolation {
  int invariant = 0;
  std::string clause;
};

/// Evaluates `prim`'s precondition against `s`; empty result = enabled.
[[nodiscard]] std::vector<PreViolation> precondition(Prim prim,
                                                     const AbsState& s);

/// Applies `prim`'s postcondition to `s` (unconditionally -- the checker
/// applies it even after a failed precondition so downstream damage
/// surfaces too). `journaled` selects whether kDivulge makes the state
/// durable and kBeginTxn/kCommit touch the transaction.
void apply(Prim prim, AbsState& s, bool journaled);

// --- plans ------------------------------------------------------------------

/// One plan step: the primitive, a label for diagnostics, and the journal
/// boundary the engine writes just before it ("" = none). The non-empty
/// journal fields of a plan, in order, equal the intent sequence a run
/// reports through reconfig::ScriptJournal (verify_test runs every
/// journaled configuration against a recording journal).
struct Step {
  Prim prim;
  std::string label;
  std::string journal;
};

/// What a plan promises about its final state.
enum class Outcome : std::uint8_t { kCommitted, kAborted };

struct Plan {
  std::string name;
  std::string description;
  bool journaled = true;
  Outcome outcome = Outcome::kCommitted;
  std::vector<Step> steps;

  /// The journal boundary names, in order (the ScriptJournal intent
  /// sequence, plus "begin").
  [[nodiscard]] std::vector<std::string> journal_boundaries() const;
};

/// Every shipped plan, in a stable order (the plan_check default), each
/// generated from the transaction engine's step table for one of its
/// configurations plus the environment's events on that path:
///   replace, move, update, rebalance -- the Figure 5 replacement, as
///     replace/move/update_module and GroupManager::rebalance run it;
///   abort_divulge_timeout -- the module never divulges; all rolls back;
///   retry_reinstall -- the clone crashes while restoring and a fresh one
///     takes over with the saved state (max_attempts > 1);
///   recover_rollback, recover_rollforward -- the coordinator dies before
///     or after the watershed and recover_coordinator finishes from the WAL;
///   replicate -- a primary plus a replica copying the bindings;
///   group_rebuild -- a member died with its machine: the survivor's
///     continuation plus an heir that adopts the dead member's bindings;
///   replace_native -- the collector/monitor swap, restoring in place;
///   group_rebuild_recover_rollback, group_rebuild_recover_rollforward --
///     the recovery pair derived from the rebuild's shape, as for replace.
[[nodiscard]] std::vector<Plan> shipped_plans();
/// The shipped plan called `name`; throws std::out_of_range for none.
[[nodiscard]] Plan shipped_plan(const std::string& name);

/// Deliberately broken: rebind BEFORE the module divulged. Violates
/// invariant 3 (rebind-after-quiescence); plan_check must reject it, and
/// verify_test pins the invariant id. Not part of shipped_plans().
[[nodiscard]] Plan plan_broken_rebind_before_divulge();

/// Deliberately broken: the heir adopts the dead member's bindings BEFORE
/// the survivor divulged. Violates invariant 7 (acked-write durability);
/// not part of shipped_plans().
[[nodiscard]] Plan plan_broken_adopt_before_divulge();

}  // namespace surgeon::verify
