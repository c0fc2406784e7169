// Tests of the systematic (bounded-exhaustive, DPOR-style) fault-schedule
// explorer: the ISSUE acceptance scenario (2 machines, 1 replacement,
// pinned schedule count, zero violations), the promotion of the eight
// coordinator-crash-boundary scenarios out of recover_test's hand-rolled
// loop, the pruning-regression pins, and cross-validation against a
// 500-seed random sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "chaos/scenario.hpp"
#include "chaos/systematic.hpp"
#include "reconfig/scripts.hpp"

namespace surgeon::chaos {
namespace {

/// The acceptance scenario: counter app on vax, control plane and the
/// replacement target on sparc -- every replacement byte crosses the wire.
SystematicOptions small_scenario() {
  SystematicOptions options;
  options.app = SampleApp::kCounter;
  options.work_items = 4;
  options.replace_after_outputs = 2;
  options.target_machine = "sparc";
  return options;
}

// ISSUE acceptance: the explorer exhaustively covers the 2-machine /
// 1-replacement scenario; the schedule count is pinned and every explored
// schedule satisfies all six invariants. The space is a pure function of
// the (deterministic) simulator, so the pins are exact, not bounds; a
// change here means the schedule space itself changed and must be
// re-reviewed, not silently re-pinned.
TEST(Systematic, ExhaustsTheSmallScenarioWithZeroViolations) {
  SystematicOptions options = small_scenario();
  options.max_drops = 1;
  const SystematicResult result = explore(options);
  EXPECT_TRUE(result.ok()) << result.failures.size()
                           << " violating schedules, first: "
                           << (result.failures.empty()
                                   ? ""
                                   : result.failures[0].schedule.describe());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.schedules_explored, 67u);
  EXPECT_EQ(result.wire_points_discovered, 12u);
  EXPECT_EQ(result.crash_boundaries_covered.size(),
            reconfig::journal_intents(reconfig::replace_shape()).size());
}

// Depth 2: the combination pruning starts to pay. Every explored schedule
// is an unordered drop SET; the d! - 1 reorderings of each set are pruned
// by construction. These pins are the pruner's regression currency.
TEST(Systematic, DepthTwoPrunesReorderingsOfIndependentDrops) {
  SystematicOptions options = small_scenario();
  options.max_drops = 2;
  const SystematicResult result = explore(options);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.schedules_explored, 448u);
  EXPECT_EQ(result.schedules_pruned, 381u);
  EXPECT_GT(result.points_disabled, 0u);
}

// The eight coordinator-crash-boundary scenarios that recover_test used to
// hand-roll (BoundarySweep over Range(0, 8)) are now ENUMERATED by the
// explorer from the replace shape's journal intents (the seven Figure 5
// steps, then commit): boundaries 0..3 precede the divulge watershed and
// must roll back, 4..7 follow it and must roll forward, and every run
// converges to the golden output (invariant 4).
TEST(Systematic, BoundariesPromotedFromRecoverTest) {
  SystematicOptions options = small_scenario();
  options.max_drops = 0;  // crash dimension only
  options.record_outcomes = true;
  const SystematicResult result = explore(options);
  EXPECT_TRUE(result.ok());
  // One fault-free schedule plus one per crash boundary.
  const std::size_t crash_boundaries =
      reconfig::journal_intents(reconfig::replace_shape()).size();
  ASSERT_EQ(result.schedules_explored, 1 + crash_boundaries);
  ASSERT_EQ(result.outcomes.size(), result.schedules_explored);
  std::set<int> boundaries(result.crash_boundaries_covered.begin(),
                           result.crash_boundaries_covered.end());
  for (int b = 0; b < static_cast<int>(crash_boundaries); ++b) {
    EXPECT_TRUE(boundaries.count(b)) << "boundary " << b << " not explored";
  }
  for (const ScheduleOutcome& outcome : result.outcomes) {
    const int b = outcome.schedule.crash_boundary;
    if (b < 0) {
      EXPECT_TRUE(outcome.replaced);
      continue;
    }
    if (b >= 4) {
      EXPECT_TRUE(outcome.replaced) << outcome.schedule.describe();
      EXPECT_TRUE(outcome.recovered_forward) << outcome.schedule.describe();
    } else {
      EXPECT_FALSE(outcome.replaced) << outcome.schedule.describe();
      EXPECT_FALSE(outcome.recovered_forward);
      EXPECT_NE(outcome.abort_reason.find("coordinator crashed"),
                std::string::npos)
          << outcome.abort_reason;
    }
  }
}

// A degenerate schedule (a scheduled drop that never fires) cannot happen
// at depth 1: every candidate point was observed on its parent's wire, and
// the deterministic replay reaches it again.
TEST(Systematic, DepthOneSchedulesAreNeverDegenerate) {
  SystematicOptions options = small_scenario();
  options.max_drops = 1;
  const SystematicResult result = explore(options);
  EXPECT_EQ(result.schedules_degenerate, 0u);
}

TEST(Systematic, TruncationIsReportedNeverSilent) {
  SystematicOptions options = small_scenario();
  options.max_drops = 2;
  options.max_schedules = 5;
  const SystematicResult result = explore(options);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.schedules_explored, 5u);
}

TEST(Systematic, ScheduleDescribeNamesTheCrashBoundary) {
  FaultSchedule s;
  s.crash_boundary = 4;
  s.drops.push_back(net::WirePoint{net::LinkKey{"vax", "sparc"}, 2});
  const std::string text = s.describe();
  EXPECT_NE(text.find("crash=rebind"), std::string::npos) << text;
  EXPECT_NE(text.find("vax->sparc#2"), std::string::npos) << text;
  EXPECT_NE(text.find("kill=none"), std::string::npos) << text;
  s.kill_machine = 1;
  s.kill_at_us = 30'000;
  EXPECT_NE(s.describe().find("kill=m1@30000us"), std::string::npos)
      << s.describe();
}

// --- kv machine-kill schedules ----------------------------------------------

SystematicOptions kv_scenario() {
  SystematicOptions options;
  options.app = SampleApp::kKv;
  options.work_items = 10;
  options.kv_shards = 2;
  options.kv_group_size = 2;
  options.kv_machines = 3;
  options.kv_spares = 1;
  options.explore_crash_boundaries = false;  // a kv run has no coordinator
  return options;
}

std::string first_failure(const SystematicResult& result) {
  if (result.failures.empty()) return "";
  return result.failures[0].schedule.describe() + ": " +
         result.failures[0].violations.front();
}

// Machine kills are their own schedule dimension: every (machine, time)
// rebuild schedule runs exactly once alongside the no-kill baseline, and
// each must hold invariant 7 -- no acked write lost, none stale.
TEST(Systematic, MachineKillDimensionCoversEveryRebuildSchedule) {
  SystematicOptions options = kv_scenario();
  options.max_drops = 0;  // the kill dimension alone
  options.record_outcomes = true;
  for (int m = 0; m < options.kv_machines; ++m) {
    for (net::SimTime at : {net::SimTime{10'000}, net::SimTime{40'000}}) {
      options.machine_kill_points.push_back(MachineKillPoint{m, at});
    }
  }
  const SystematicResult result = explore(options);
  EXPECT_TRUE(result.ok()) << first_failure(result);
  EXPECT_FALSE(result.truncated);
  // One kill-free schedule plus one per kill point.
  EXPECT_EQ(result.schedules_explored,
            1u + options.machine_kill_points.size());
  EXPECT_EQ(result.machine_kills_covered.size(),
            options.machine_kill_points.size());
  // The kills were real: rebuilds actually ran under at least one of them.
  bool any_rebuilt = false;
  for (const ScheduleOutcome& outcome : result.outcomes) {
    if (outcome.schedule.kill_machine >= 0 && outcome.replaced) {
      any_rebuilt = true;
    }
  }
  EXPECT_TRUE(any_rebuilt);
}

// Drops compose with the kill dimension: every enabled 1-drop schedule
// runs under the no-kill baseline AND under the machine kill, so wire loss
// during a rebuild is part of the explored space, not a gap between two
// harnesses.
TEST(Systematic, MachineKillComposesWithDropSchedules) {
  SystematicOptions options = kv_scenario();
  options.work_items = 6;
  options.max_drops = 1;
  options.machine_kill_points.push_back(MachineKillPoint{0, 15'000});
  const SystematicResult result = explore(options);
  EXPECT_TRUE(result.ok()) << first_failure(result);
  EXPECT_FALSE(result.truncated);
  // At minimum: the two drop-free roots plus a 1-drop schedule per wire
  // point of each root's run.
  EXPECT_GT(result.schedules_explored, 2u);
  EXPECT_GT(result.wire_points_discovered, 0u);
  EXPECT_EQ(result.machine_kills_covered.size(), 1u);
}

// --- cross-validation against the random sweeps -----------------------------

/// Union of violated-invariant ids over a 500-seed random sweep of the
/// same application spec (unreliable delivery, lossy links -- a scenario
/// family where violations genuinely occur, so agreement is not vacuous).
std::set<int> random_sweep_ids(int seeds) {
  std::set<int> ids;
  for (int seed = 1; seed <= seeds; ++seed) {
    ScenarioSpec spec;
    spec.seed = static_cast<std::uint64_t>(seed);
    spec.app = SampleApp::kCounter;
    spec.work_items = 4;
    spec.replace_after_outputs = 2;
    spec.target_machine = "sparc";
    spec.delivery.reliable = false;
    spec.faults.drop = 0.05;
    const ScenarioResult r = run_scenario(spec);
    for (int id : violated_invariants(r)) ids.insert(id);
  }
  return ids;
}

/// Union of violated-invariant ids over the systematic exploration of the
/// same spec: unreliable delivery, every 1- and 2-drop schedule.
std::set<int> systematic_ids() {
  SystematicOptions options = small_scenario();
  options.delivery.reliable = false;
  options.explore_crash_boundaries = false;  // match the random family
  options.max_drops = 2;
  const SystematicResult result = explore(options);
  std::set<int> ids;
  for (const ScheduleOutcome& failure : result.failures) {
    ScenarioResult as_result;
    as_result.violations = failure.violations;
    for (int id : violated_invariants(as_result)) ids.insert(id);
  }
  return ids;
}

// ISSUE acceptance: the systematic explorer's verdict agrees with a
// 500-seed random sweep -- every invariant class of violation found by one
// is found by the other. (Unreliable delivery makes message loss
// permanent, so both sides DO find violations; this is not two empty
// sets.)
TEST(CrossValidation, SystematicAgreesWithFiveHundredRandomSeeds) {
  const std::set<int> random_ids = random_sweep_ids(500);
  const std::set<int> sys_ids = systematic_ids();
  EXPECT_FALSE(random_ids.empty())
      << "lossy unreliable sweep found nothing -- cross-validation vacuous";
  EXPECT_EQ(random_ids, sys_ids);
}

}  // namespace
}  // namespace surgeon::chaos
