// Systematic (exhaustive, bounded) exploration of fault schedules.
//
// Random chaos seeds *sample* the space of fault schedules; for small
// scenarios the space is small enough to cover outright. A schedule here is
// a deterministic choice of
//
//   crash point       -- coordinator killed at one Figure 5 step boundary
//                        (or none),
//   message drops     -- a SET of wire points (net::WirePoint: the k-th
//                        copy on a directed link) eaten by the network,
//   partition window  -- one of a caller-given list of machine partitions
//                        (or none),
//   machine kill      -- for SampleApp::kKv, one of a caller-given list of
//                        (ring machine, virtual time) kill points (or
//                        none): the whole host dies and the GroupManager
//                        must rebuild its replica groups, so the drop sets
//                        compose with every rebuild schedule.
//
// Exploration is DPOR-flavored: wire events on distinct links -- and
// distinct copies on one link -- are independent (they commute; see
// net::LinkKey), so schedules that differ only by the ORDER faults are
// injected are the same execution. The explorer therefore enumerates
// unordered drop *sets* in the canonical (link, index) order, never the
// d! orderings of each set, and it discovers the enabled wire points
// DYNAMICALLY: a child schedule `S + {p}` is generated only if point p was
// actually observed on the wire while running S (dropping a copy spawns
// its retransmissions, which become new droppable points -- persistent-set
// style extension rather than a static universe).
//
// Every explored schedule runs the full scenario harness: all six chaos
// invariants plus the happens-before checker, with the fault-free golden
// output computed once and shared.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "chaos/scenario.hpp"
#include "net/sim.hpp"

namespace surgeon::chaos {

/// A machine-level kill point for kv explorations: ring machine
/// m<machine> dies at `at_us` virtual time.
struct MachineKillPoint {
  int machine = 0;
  net::SimTime at_us = 0;
};

/// One point in the systematic space. Value-identity is the schedule: two
/// equal FaultSchedules replay the same execution bit-for-bit.
struct FaultSchedule {
  /// Index into the replace shape's crash boundaries (its journal intents,
  /// reconfig::journal_intents); -1 = coordinator survives.
  int crash_boundary = -1;
  /// Index into SystematicOptions::partition_windows; -1 = no partition.
  int partition_window = -1;
  /// Machine kill (kv scenarios): ring machine index and virtual time;
  /// kill_machine -1 = every machine survives. Held by value, not as an
  /// index, so a failing schedule's describe() names the dead machine.
  int kill_machine = -1;
  net::SimTime kill_at_us = 0;
  /// Dropped wire copies, kept in canonical (link, index) order.
  std::vector<net::WirePoint> drops;

  [[nodiscard]] std::string describe() const;
};

/// Deterministic fault source replaying one FaultSchedule: drops exactly
/// the scheduled wire points (and everything crossing an active partition
/// window), delivers everything else cleanly, and records the per-link
/// copy counts that define the child schedules' candidate points.
class ScheduleInjector : public FaultSource {
 public:
  ScheduleInjector(const FaultSchedule& schedule,
                   const std::vector<Partition>& partition_windows);

  void attach(bus::Bus& bus) override;
  [[nodiscard]] const FaultStats& stats() const noexcept override {
    return stats_;
  }

  /// Copies observed per directed link (loopback links excluded: with
  /// reliable delivery their drops are already covered by the random
  /// sweeps, and the systematic mode targets the cross-machine replacement
  /// traffic). This is the enabled-point universe for child schedules.
  [[nodiscard]] const std::map<net::LinkKey, std::uint32_t>& copies()
      const noexcept {
    return copies_;
  }
  /// How many scheduled drop points actually fired; a schedule whose drops
  /// did not all fire is degenerate (equivalent to a smaller, already
  /// explored set).
  [[nodiscard]] std::size_t drops_fired() const noexcept {
    return drops_fired_;
  }

 private:
  [[nodiscard]] bus::FaultDecision decide(const std::string& src,
                                          const std::string& dst);

  FaultSchedule schedule_;
  const Partition* window_ = nullptr;  // active partition, if any
  net::Simulator* sim_ = nullptr;
  std::map<net::LinkKey, std::uint32_t> copies_;
  std::size_t drops_fired_ = 0;
  FaultStats stats_;
};

struct SystematicOptions {
  /// The scenario under exploration: one replacement of the app's target
  /// module under a paced workload, same as the random harness.
  SampleApp app = SampleApp::kCounter;
  int work_items = 4;
  int replace_after_outputs = 2;
  /// Machine the replacement targets; "" replaces in place. "sparc" makes
  /// the replacement itself cross the vax->sparc wire (state delivery,
  /// clone control), which is the richest small scenario to explore.
  std::string target_machine;
  /// Bound on dropped wire copies per schedule (the DPOR depth bound).
  int max_drops = 1;
  /// Enumerate a coordinator kill at each of the eight Figure 5 step
  /// boundaries alongside the no-crash schedules.
  bool explore_crash_boundaries = true;
  /// Partition windows to enumerate (each as its own schedule dimension);
  /// windows must heal inside the script's divulge/restore timeouts or the
  /// abort path dominates the exploration.
  std::vector<Partition> partition_windows;
  /// Machine kills to enumerate (SampleApp::kKv only, each its own
  /// schedule dimension alongside the no-kill schedules). Set
  /// explore_crash_boundaries = false with these: kv scenarios have no
  /// replacement coordinator, so the crash dimension only multiplies
  /// identical executions.
  std::vector<MachineKillPoint> machine_kill_points;
  /// kv topology (SampleApp::kKv only), forwarded to the ScenarioSpec.
  int kv_shards = 2;
  int kv_group_size = 2;
  int kv_machines = 3;
  int kv_spares = 1;
  /// Keep per-schedule outcomes in SystematicResult::outcomes (coverage
  /// assertions in tests); off for big sweeps.
  bool record_outcomes = false;
  /// Safety valve for the nightly sweep; hitting it is reported, never
  /// silent (SystematicResult::truncated).
  std::uint64_t max_schedules = 250'000;
  bus::DeliveryOptions delivery = {.reliable = true};
  net::SimTime divulge_timeout_us = 5'000'000;
  net::SimTime restore_timeout_us = 5'000'000;
  int max_attempts = 5;

  /// The equivalent ScenarioSpec (seed fixed: the schedule, not the seed,
  /// is the identity) for one schedule of this exploration.
  [[nodiscard]] ScenarioSpec scenario_spec(const FaultSchedule& s) const;
};

/// Outcome of one explored schedule (recorded when record_outcomes is on,
/// and always for violating schedules).
struct ScheduleOutcome {
  FaultSchedule schedule;
  bool replaced = false;
  bool recovered_forward = false;
  std::string abort_reason;
  std::vector<std::string> violations;  // ALL violated invariants

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
};

struct SystematicResult {
  /// Distinct schedules executed (each one full scenario run).
  std::uint64_t schedules_explored = 0;
  /// Orderings never run because they are reorderings of independent
  /// events already covered: sum over explored schedules of (d! - 1) for d
  /// scheduled drops. The pinned regression currency for the pruner.
  std::uint64_t schedules_pruned = 0;
  /// Candidate extensions rejected because the parent run never put the
  /// point on the wire (dynamic enabled-set pruning).
  std::uint64_t points_disabled = 0;
  /// Degenerate schedules: executed, but some scheduled drop never fired.
  std::uint64_t schedules_degenerate = 0;
  /// Distinct wire points that appeared in any explored run.
  std::uint64_t wire_points_discovered = 0;
  bool truncated = false;  // max_schedules hit
  std::vector<ScheduleOutcome> failures;  // every violating schedule
  std::vector<ScheduleOutcome> outcomes;  // all, when record_outcomes
  /// Crash boundaries (indices as in FaultSchedule::crash_boundary) that were
  /// enumerated -- coverage proof for the promoted recover_test scenarios.
  std::vector<int> crash_boundaries_covered;
  /// Machine-kill points (indices into machine_kill_points) that were
  /// enumerated -- coverage proof for the kv rebuild schedules.
  std::vector<int> machine_kills_covered;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Exhaustively explores the bounded schedule space of `options`.
[[nodiscard]] SystematicResult explore(const SystematicOptions& options);

}  // namespace surgeon::chaos
