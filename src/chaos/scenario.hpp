// Randomized reconfiguration-under-faults scenarios.
//
// A scenario builds one of the sample applications (counter, pipeline,
// monitor), turns on reliable delivery, attaches a seeded FaultInjector,
// replaces the app's reconfigurable module mid-run -- optionally crashing
// the clone on its first state delivery -- and then checks the five
// invariants of the chaos harness:
//
//   1. no client request lost or double-applied,
//   2. captured state equals restored state byte-for-byte,
//   3. the rebind never fires before the old module reached quiescence
//      (divulged its state),
//   4. the application's final output matches the fault-free golden run
//      (counter and pipeline; the monitor's sensor is random, so it is
//      checked for liveness instead of output equality),
//   5. the causal event stream satisfies the happens-before protocol
//      invariants (trace::HbChecker, run online over the flight recorder),
//   6. the final configuration is consistent: exactly one instance of the
//      replaced logical module remains -- never the half-rebound old+clone
//      pair a mid-script coordinator crash would otherwise leave behind.
//
// SampleApp::kKv scenarios swap the module replacement for a machine loss:
// the sharded KV service (replica groups + GroupManager self-healing) runs
// under link faults while one -- sometimes two -- ring machines are killed
// mid-workload. Invariants 4, 5, and 6 keep their meaning (output equals
// the kill-free golden run, happens-before holds, every group ends at full
// strength on distinct live machines) and invariant 7 is checked instead
// of 1-3:
//
//   7. no acknowledged write is lost and no committed write resurfaces
//      stale across the kill + rebuild (client ledger, router stale-read
//      counter, and zero groups left without a survivor to pull from).
//
// Every scenario is a pure function of its ScenarioSpec -- in particular
// of `seed` -- so a failing run is replayed by constructing the same spec.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "chaos/fault.hpp"

namespace surgeon::app {
class Runtime;
}

namespace surgeon::chaos {

enum class SampleApp : std::uint8_t { kCounter, kPipeline, kMonitor, kKv };

[[nodiscard]] const char* sample_app_name(SampleApp app) noexcept;

struct ScenarioSpec {
  std::uint64_t seed = 1;
  SampleApp app = SampleApp::kCounter;
  /// Client requests / pipeline items (the monitor runs on virtual time).
  int work_items = 12;
  /// Faults applied to every link, both directions.
  LinkFaults faults;
  std::vector<Partition> partitions;
  /// Kill the clone when its first state buffer lands, forcing the script
  /// onto its retry path (a second clone restores from the same buffer).
  bool crash_clone = false;
  /// Kill the *coordinator* at this Figure 5 step boundary (an index into
  /// reconfig::journal_intents(reconfig::replace_shape()): the seven steps
  /// plus the commit record); -1 = never. The pass then runs
  /// recover::recover_coordinator, exactly as a restarted coordinator
  /// scanning the WAL would, and the invariants verify the application
  /// converged (roll-forward or roll-back).
  int crash_coordinator_at_step = -1;
  /// Observed output lines before the replacement is launched.
  int replace_after_outputs = 3;
  /// Machine for the replacement; empty replaces in place.
  std::string target_machine;
  int max_attempts = 5;
  net::SimTime divulge_timeout_us = 5'000'000;
  net::SimTime restore_timeout_us = 5'000'000;
  bus::DeliveryOptions delivery = {.reliable = true};
  /// --- SampleApp::kKv only (ignored by the other apps) ----------------
  /// Shard replica groups, members per group, ring machines m0..m{n-1},
  /// and spare machines sp0..sp{n-1} the GroupManager may rebuild onto.
  int kv_shards = 3;
  int kv_group_size = 2;
  int kv_machines = 3;
  int kv_spares = 2;
  /// Kill ring machine m<kv_kill_machine> at kv_kill_at_us virtual time;
  /// -1 = no kill (the chaos pass degenerates to faults-only).
  int kv_kill_machine = -1;
  net::SimTime kv_kill_at_us = 0;
  /// Optional second kill while the first rebuild is likely in flight.
  /// Only sensible when kv_group_size >= 3: a 2-group that loses two
  /// machines can lose both members of one group, which is real data loss,
  /// not a harness bug.
  int kv_second_kill_machine = -1;
  net::SimTime kv_second_kill_at_us = 0;
  /// Called at the end of the chaos pass with the runtime still alive, so
  /// a sweep driver can dump the flight recorder for a failing seed. Not
  /// part of the scenario identity: it observes, never steers.
  std::function<void(app::Runtime&)> chaos_pass_observer;

  /// One-line human description, seed first, for failure messages.
  [[nodiscard]] std::string describe() const;
};

struct ScenarioResult {
  /// Replacement completed; false = the script aborted cleanly (the
  /// application kept serving on the old instance, which is verified).
  /// For kv scenarios: at least one machine's groups were fully rebuilt.
  bool replaced = false;
  /// A coordinator crash was injected and recovery rolled the transaction
  /// forward (true) or back (false, with `replaced` false as well).
  bool recovered_forward = false;
  std::string abort_reason;  // ScriptError text when !replaced
  /// First violated invariant, or empty when the scenario passed. Always
  /// equal to violations.front() (or empty); kept so existing callers and
  /// failure messages stay stable.
  std::string failure;
  /// EVERY violated invariant, one message each, in check order -- a run
  /// that loses a request usually also diverges from the golden output,
  /// and the checker/explorer diagnostics are only comparable when both
  /// are reported. Fatal harness failures (VM fault, wedged application,
  /// bookkeeping leak) stop the pass and appear alone.
  std::vector<std::string> violations;
  std::string old_instance;
  std::string new_instance;
  int attempts = 0;
  std::vector<std::string> output;  // chaos run's observed output
  std::vector<std::string> golden;  // fault-free reference output
  bus::ReliableStats rstats;
  FaultStats fstats;
  /// Causal events the happens-before checker observed in the chaos pass
  /// (nonzero proves invariant 5 was actually exercised, not skipped).
  std::uint64_t hb_events = 0;

  [[nodiscard]] bool ok() const noexcept { return failure.empty(); }
};

/// Runs the golden pass and the chaos pass and checks every invariant.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Same, but with a caller-supplied fault source (the systematic explorer's
/// deterministic schedules) instead of the spec-seeded random injector, and
/// optionally a precomputed golden output: when `golden` is non-null the
/// fault-free reference pass is skipped and invariant 4 compares against
/// *golden -- the explorer runs thousands of schedules of one spec and
/// needs the reference only once.
[[nodiscard]] ScenarioResult run_scenario_with(
    const ScenarioSpec& spec, FaultSource& source,
    const std::vector<std::string>* golden = nullptr);

/// The fault-free reference output for a spec (the golden pass, alone).
/// Throws support::Error if the fault-free run itself cannot complete --
/// the spec is broken, not the schedule under test.
[[nodiscard]] std::vector<std::string> golden_output(const ScenarioSpec& spec);

/// Invariant ids named by a result's violations, sorted and deduplicated:
/// "invariant N: ..." messages yield N; fatal harness failures (VM fault,
/// wedged application, bookkeeping leak) yield 0. The comparable currency
/// between the random sweeps, the systematic explorer, and plan_check.
[[nodiscard]] std::vector<int> violated_invariants(const ScenarioResult& r);

/// Derives a full scenario (app, workload, fault mix, partition, crash)
/// from a single seed; the sweeps enumerate seeds through this.
[[nodiscard]] ScenarioSpec random_scenario(std::uint64_t seed);

/// Derives a kv (replica-group) scenario from a seed: mild link faults, a
/// machine kill mid-workload, and -- at some 3-group seeds -- a second
/// kill while the first rebuild is in flight. The KvSweep and the
/// chaos_sweep --kv mode enumerate seeds through this.
[[nodiscard]] ScenarioSpec random_kv_scenario(std::uint64_t seed);

}  // namespace surgeon::chaos
