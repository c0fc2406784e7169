// Reconfiguration scripts: the procedural descriptions of Figure 5,
// parameterized over module name and attributes as Section 2.2 proposes.
//
// A script coordinates the application-level reconfiguration primitives
// (ref [9]: bind edits, queue capture, state movement, module add/remove)
// with the module-level participation that the transformer installed
// (divulging state at a reconfiguration point, installing it in a clone).
//
// The canonical replacement script, step by step (Figure 5):
//   1. mh_obj_cap        -- obtain the current specification of the module
//   2. register the new instance (same spec, new MACHINE, STATUS="clone")
//   3. mh_bind_cap / mh_edit_bind -- prepare del/add rebinding commands plus
//      "cap" (move queued messages) and "rmq" (clear old queues)
//   4. mh_objstate_move  -- signal the old module, wait for it to divulge,
//      move the abstract state to the new module's decode mailbox
//   5. mh_rebind         -- apply the binding commands atomically
//   6. mh_chg_obj "add"  -- start the new module (it restores itself)
//   7. mh_chg_obj "del"  -- remove the old module
//
// Our addition beyond the figure: an optional drain window between rebind
// and removal, during which messages that were already in flight toward the
// old instance land in its (now unbound) queues and are moved to the new
// instance. The 1993 bus had no delivery latency, so the paper never faced
// in-flight messages; the simulated network does.
//
// One transaction engine (transaction.cpp) implements these steps for every
// reconfiguration in the repository. A Shape configures one run: the clones
// to create, how each takes its bindings, and whether the state is divulged
// by the source or supplied by the caller. The engine runs shape_rows(), a
// shape's rows of kStepTable; the journal and verify::shipped_plans() read
// the same rows, so a plan cannot drift from its script.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "bus/native.hpp"

namespace surgeon::reconfig {

// Span names of the replacement script's phases, as recorded into
// rt.metrics() (scope = the replaced instance) and into the
// surgeon_reconfig_step_us histogram. The first seven are the Figure 5
// steps in script order; kStepDrain is our drain-window addition, nested
// inside kStepDel on the timeline. Span timestamps are virtual
// microseconds, so they correlate 1:1 with flight-recorder timestamps.
inline constexpr const char* kStepObjCap = "obj_cap";
inline constexpr const char* kStepCloneRegister = "clone_register";
inline constexpr const char* kStepBindEditPrep = "bind_edit_prep";
inline constexpr const char* kStepObjstateMove = "objstate_move";
inline constexpr const char* kStepRebind = "rebind";
inline constexpr const char* kStepAdd = "add";
inline constexpr const char* kStepDel = "del";
inline constexpr const char* kStepDrain = "drain";
/// Not a Figure 5 step: the journal boundary just before the commit record
/// is written, i.e. after kStepDel completed (surgeon::recover).
inline constexpr const char* kStepCommit = "commit";
/// Rows of the step table that write no intent: the journal's begin
/// record, and the wait for the clones to finish restoring.
inline constexpr const char* kStepBegin = "begin";
inline constexpr const char* kStepRestore = "restore";

/// The seven Figure 5 steps, in the order the script performs them.
inline constexpr std::array<const char*, 7> kFigure5Steps = {
    kStepObjCap,  kStepCloneRegister, kStepBindEditPrep, kStepObjstateMove,
    kStepRebind,  kStepAdd,           kStepDel};

/// Thrown when a script cannot complete (module missing, no divulged state
/// within the budget, faulted clone). The message names the script, the
/// Figure 5 step and the instance at which it failed, e.g.
///   replace_module[objstate_move] module 'server': never divulged ...
class ScriptError : public support::Error {
 public:
  using Error::Error;
};

/// Observer for write-ahead journaling of a replacement (surgeon::recover
/// implements it over the per-machine durable store). The engine reports
/// every transaction boundary *before* acting on it, so a coordinator that
/// crashes mid-script leaves enough on disk for a successor to roll the
/// replacement forward (post-divulge) or back (pre-divulge).
///
/// The boundaries follow shape_rows(): the begin record, then one intent
/// per step that runs (the restore wait writes none), in table order.
/// verify::shipped_plans() is generated from the same rows, and
/// verify_test runs every journaled configuration against a recording
/// journal, so a plan's boundaries cannot drift from a run's.
struct Shape;

class ScriptJournal {
 public:
  virtual ~ScriptJournal() = default;
  /// A transaction opened: the source and the shape it runs, each clone
  /// named, so a successor can re-enter the same run (surgeon::recover).
  virtual void begin(const std::string& source, const Shape& shape) = 0;
  /// About to execute the named step (one of kFigure5Steps, or kStepCommit
  /// just before the commit record is written).
  virtual void intent(const char* step) = 0;
  /// The old module divulged; `state` is the abstract state buffer. This is
  /// the roll-forward watershed: once logged, the replacement can always be
  /// completed from the log alone.
  virtual void divulged(const std::vector<std::uint8_t>& state) = 0;
  /// The script finished; the transaction is closed.
  virtual void committed() = 0;
  /// The script rolled back before the divulge point.
  virtual void aborted(const std::string& reason) = 0;
};

struct ReplaceOptions {
  /// Target machine; empty keeps the module's current machine. A group
  /// rebuild places its new member here.
  std::string machine;
  /// Replacement program; null migrates the existing program unchanged.
  /// A replacement must be reconfiguration-compatible: same reconfiguration
  /// graph shape (edge numbering) and captured-variable layouts, so the old
  /// instance's frames install cleanly in the new code.
  std::shared_ptr<const vm::CompiledProgram> program;
  /// Scheduling budget for each wait inside the script.
  std::uint64_t max_rounds = 1'000'000;
  /// Drain window (virtual us) before the old instance is removed; 0
  /// removes it immediately, as the paper's script does.
  net::SimTime drain_us = 10'000;
  /// Wait until the clone has fully restored (reached its reconfiguration
  /// point) before returning.
  bool wait_for_restore = true;
  // --- fault tolerance (surgeon::chaos; appended so positional
  // --- initialization of the original five fields stays valid) ------------
  /// Attempts for the post-divulge installation: when a clone crashes or
  /// its state transfer gives up, the script registers a fresh clone, moves
  /// the bindings/queues across, and re-delivers the saved state buffer.
  /// 1 (the default) reproduces the original single-shot script.
  int max_attempts = 1;
  /// Virtual-time budget for the old module to divulge after the signal.
  /// 0 = wait forever in virtual time (only the scheduling-rounds budget
  /// bounds the wait — a module that never reaches a reconfiguration point
  /// burns all of max_rounds before the script aborts). On expiry, or when
  /// the old module crashes first, the script aborts and rolls back: the
  /// clones are removed, pending control traffic is cancelled, and the
  /// application keeps serving on the old instance. The default is
  /// deliberately generous: 5 virtual seconds dwarfs any drain/retransmit
  /// window the chaos harness produces.
  net::SimTime divulge_timeout_us = 5'000'000;
  /// Virtual-time budget per attempt for the clone to finish restoring;
  /// 0 = wait forever in virtual time (rounds budget only), as above.
  net::SimTime restore_timeout_us = 10'000'000;
  // --- crash recovery (surgeon::recover) ----------------------------------
  /// When set, the script reports each transaction boundary here before
  /// acting on it (write-ahead journaling).
  ScriptJournal* journal = nullptr;
  /// Test/fault-injection hook invoked at every step boundary, after the
  /// journal intent is written and before the step executes. Throwing from
  /// it models a coordinator crash at exactly that boundary.
  std::function<void(const char* step)> crash_hook;
  /// Observes the divulged state buffer (the production capture path);
  /// surgeon::recover persists it as the module's checkpoint.
  std::function<void(const std::vector<std::uint8_t>&)> state_sink;
  /// Wakes the old module during the divulge wait, at its start and then
  /// every 2 virtual ms: a module blocked in mh_read only reaches its
  /// reconfiguration point when traffic arrives (KvRouter::nudge of its
  /// replica group, for instance).
  std::function<void()> nudge{};
};

struct ReplaceReport {
  std::string old_instance;
  std::string new_instance;        // clones[0]: took the old one's place
  std::vector<std::string> clones; // every clone the script installed
  net::SimTime requested_at = 0;   // when the signal was sent
  net::SimTime divulged_at = 0;    // when the old module divulged its state
  net::SimTime rebound_at = 0;     // when bindings were switched
  net::SimTime restored_at = 0;    // when the last clone finished restoring
                                   // (0 when wait_for_restore was off)
  net::SimTime completed_at = 0;   // when the script finished
  std::size_t state_bytes = 0;
  std::size_t state_frames = 0;
  std::size_t queued_messages_moved = 0;
  /// Installation attempts consumed (1 = no retry was needed).
  int attempts = 1;
  /// Flight-recorder trace grouping of this replacement (0 when causal
  /// tracing was off); filter exporters on it to isolate the operation.
  std::uint64_t trace_id = 0;

  [[nodiscard]] net::SimTime total_delay() const noexcept {
    return completed_at - requested_at;
  }
  [[nodiscard]] net::SimTime reaction_delay() const noexcept {
    return divulged_at - requested_at;
  }
  /// The disruption window: from the moment the old instance passivated
  /// (divulged -- it serves no request after this) until the clone finished
  /// restoring and can serve. Zero when the script did not wait for the
  /// restore. Also observed into surgeon_reconfig_blackout_us.
  [[nodiscard]] net::SimTime blackout_us() const noexcept {
    return restored_at > divulged_at ? restored_at - divulged_at : 0;
  }
  /// Redundancy-restoration time of a group rebuild: request to every
  /// clone restored.
  [[nodiscard]] net::SimTime restore_us() const noexcept {
    return restored_at - requested_at;
  }
};

// --- the engine's configurations --------------------------------------------

/// What one row of kStepTable does.
enum class Action : std::uint8_t {
  kBegin, kObjCap, kRegister, kPrep, kSignal, kPassivate, kDivulge,
  kDeliver, kRebind, kStart, kAwait, kDrain, kRemove, kRetire, kCommit,
};

/// How a clone takes its bindings at the rebind step.
enum class Binding : std::uint8_t {
  kInherit,  // the source's bindings and queued messages
  kAdopt,    // `holder`'s bindings and queues; the holder retires at del
  kCopy,     // copies of the source's bindings (add-only)
  kNone,     // no bindings: an unbound replica
};

struct CloneSpec {
  Binding bindings = Binding::kInherit;
  std::string machine{};  // "" = the source's machine
  std::string holder{};   // kAdopt: the instance whose place the clone takes
  std::string name{};     // preassigned (a clone the WAL named); "" = fresh
};

struct Shape {
  std::string script;             // names the run in ScriptError messages
  std::vector<CloneSpec> clones;  // clones[0] takes the source's place
  /// State supplied instead of divulged (a checkpoint, the WAL's divulged
  /// record): the run starts past the watershed. Every later row probes
  /// live state first, so it also finishes a run a dead coordinator left.
  std::optional<std::vector<std::uint8_t>> state{};
  /// Native clones install their state on their own tick: the add step
  /// awaits the restore, and the source retires after it with no drain.
  bool restores_in_place = false;
};

struct StepRow {
  const char* step;   // journal intent and obs::Span name
  Action action;
  const char* label;  // the action in generated plan labels
  bool per_clone;
};

inline constexpr std::array<StepRow, 16> kStepTable = {{
    {kStepBegin, Action::kBegin, "begin", false},
    {kStepObjCap, Action::kObjCap, "obj_cap", false},
    {kStepCloneRegister, Action::kRegister, "register", true},
    {kStepBindEditPrep, Action::kPrep, "prep", false},
    {kStepObjstateMove, Action::kSignal, "signal", false},
    {kStepObjstateMove, Action::kPassivate, "passivate", false},
    {kStepObjstateMove, Action::kDivulge, "divulge", false},
    {kStepObjstateMove, Action::kDeliver, "deliver", true},
    {kStepRebind, Action::kRebind, "rebind", true},
    {kStepAdd, Action::kStart, "start", true},
    {kStepAdd, Action::kAwait, "restore", true},
    {kStepDel, Action::kDrain, "drain", false},
    {kStepDel, Action::kRemove, "remove", false},
    {kStepDel, Action::kRetire, "retire", true},
    {kStepRestore, Action::kAwait, "restore", true},
    {kStepCommit, Action::kCommit, "commit", false},
}};

/// One row of a shape's run: the table row, its clone (0 for a row run once),
/// and whether it enters a step that journals an intent (all but begin and
/// the restore wait).
struct RowRun {
  const StepRow* row;
  std::size_t clone;
  bool intent;
};

/// `shape`'s rows of kStepTable in run order (`journaled` adds the begin
/// record): the engine runs them and journal_intents() and verify map them.
[[nodiscard]] std::vector<RowRun> shape_rows(const Shape& shape,
                                             bool journaled);

/// The intents a journaled run of `shape` writes, in table order, so
/// kStepCommit comes last. They are the boundaries its coordinator can die
/// at (surgeon::recover, chaos::explore); for replace_shape() the seven
/// Figure 5 steps and then commit.
[[nodiscard]] std::vector<const char*> journal_intents(const Shape& shape);

/// The shipped configurations; defaulted arguments only name machines.
[[nodiscard]] Shape replace_shape(std::string machine = "");
[[nodiscard]] Shape native_shape(std::string machine = "");
[[nodiscard]] Shape replicate_shape(std::string replica_machine = "",
                                    bool bind_replica = true);
[[nodiscard]] Shape rebuild_shape(std::string dead_member = "",
                                  std::string machine = "");

/// Runs `shape` over VM modules cloned from `source`'s image.
ReplaceReport run_transaction(app::Runtime& rt, const std::string& source,
                              const Shape& shape,
                              const ReplaceOptions& options);

/// The engine's pre-watershed rollback of a VM run of `shape` (clones named):
/// cancels the source's control traffic and pending signal, and removes
/// every registered clone with its control traffic.
void roll_back(app::Runtime& rt, const std::string& source,
               const Shape& shape);

// --- the scripts -------------------------------------------------------------

/// The parameterized replacement script. Works on any module that was
/// prepared for reconfiguration. Returns a report with the new instance
/// name and the timing/size measurements the benchmarks consume.
ReplaceReport replace_module(app::Runtime& rt, const std::string& instance,
                             const ReplaceOptions& options = {});

/// The replacement script over a native module (bus::NativeModule) such as
/// profile::Collector or slo::Monitor: it divulges its state and a passive
/// clone from `make_clone(name, machine)` installs it, a crashed clone being
/// replaced up to options.max_attempts, as a VM clone is. The clone installs
/// on its own tick, so the old instance retires only once the clone serves
/// (no drain window), and `adopt` then takes the clone.
using NativeFactory = std::function<std::unique_ptr<bus::NativeModule>(
    const std::string& name, const std::string& machine)>;
using NativeHeir = std::function<void(std::unique_ptr<bus::NativeModule>)>;
ReplaceReport replace_native(app::Runtime& rt, const std::string& module,
                             const NativeFactory& make_clone,
                             const NativeHeir& adopt,
                             const ReplaceOptions& options);

/// replace_native for a Module constructed as (bus, name, machine, options,
/// status); `options.machine` places the clone, which replaces `module`.
template <typename Module>
ReplaceReport replace_module(app::Runtime& rt, std::unique_ptr<Module>& module,
                             const ReplaceOptions& options = {}) {
  if (module == nullptr) {
    throw ScriptError("replace_module: no module attached");
  }
  const Module& source = *module;
  return replace_native(
      rt, source.module_name(),
      [&](const std::string& name, const std::string& machine) {
        return std::unique_ptr<bus::NativeModule>(std::make_unique<Module>(
            rt.bus(), name, machine, source.options(), "clone"));
      },
      [&](std::unique_ptr<bus::NativeModule> heir) {
        module.reset(static_cast<Module*>(heir.release()));
      },
      options);
}

/// Process migration: replacement with the same program on another machine
/// (the Monitor example's reconfiguration, Figure 1).
ReplaceReport move_module(app::Runtime& rt, const std::string& instance,
                          const std::string& machine);

/// Software maintenance: replacement with a new program version in place.
ReplaceReport update_module(
    app::Runtime& rt, const std::string& instance,
    std::shared_ptr<const vm::CompiledProgram> program);

/// Replication (the SURGEON activity of ref [5]): divulge once, install the
/// same abstract state in TWO clones -- one replacing the original in its
/// bindings (new_instance), one fresh replica on another machine
/// (clones[1]). The replica gets copies of the original's bindings unless
/// `bind_replica` is false.
ReplaceReport replicate_module(app::Runtime& rt, const std::string& instance,
                               const std::string& replica_machine,
                               bool bind_replica = true);

}  // namespace surgeon::reconfig
