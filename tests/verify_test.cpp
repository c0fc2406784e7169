// Unit tests for surgeon::verify: the primitives' pre/postconditions, the
// static plan checker over every shipped script, the seeded broken plan
// (rebind before divulge -> invariant 3), the golden-pinned plan_check
// diagnostics, the journal-boundary conformance that ties each plan to the
// real script it models, and a journaled group rebuild recovered from a
// coordinator crash at every boundary its plans cross.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string_view>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "profile/telemetry.hpp"
#include "reconfig/scripts.hpp"
#include "recover/recovery.hpp"
#include "recover/wal.hpp"
#include "replicate/kv.hpp"
#include "replicate/rebuild.hpp"
#include "verify/checker.hpp"
#include "verify/plan.hpp"

namespace surgeon::verify {
namespace {

AbsState at_divulged() {
  AbsState s;
  s.old_life = OldLife::kPassive;
  s.clone = CloneLife::kRegistered;
  s.divulged = true;
  s.state_durable = true;
  s.txn_open = true;
  return s;
}

bool violates(const std::vector<PreViolation>& v, int invariant) {
  for (const PreViolation& pv : v) {
    if (pv.invariant == invariant) return true;
  }
  return false;
}

// --- primitive preconditions ------------------------------------------------

TEST(Primitives, InitialStateSatisfiesEveryInvariant) {
  const AbsState s;
  for (int inv : {1, 2, 3, 4, 6, 7}) {
    EXPECT_TRUE(invariant_holds(inv, s)) << "invariant " << inv;
  }
}

TEST(Primitives, EveryPrimHasAName) {
  for (Prim p : kAllPrims) {
    EXPECT_STRNE(prim_name(p), "?");
  }
}

TEST(Primitives, RegisterCloneRejectsASecondClone) {
  AbsState s;
  EXPECT_TRUE(precondition(Prim::kRegisterClone, s).empty());
  s.clone = CloneLife::kRegistered;
  EXPECT_TRUE(violates(precondition(Prim::kRegisterClone, s), 6));
}

TEST(Primitives, DivulgeRequiresQuiescenceAndSingleCapture) {
  AbsState s;  // still active
  EXPECT_TRUE(violates(precondition(Prim::kDivulge, s), 3));
  s.old_life = OldLife::kPassive;
  EXPECT_TRUE(precondition(Prim::kDivulge, s).empty());
  s.divulged = true;
  EXPECT_TRUE(violates(precondition(Prim::kDivulge, s), 2));
}

TEST(Primitives, RebindRequiresTheWatershed) {
  AbsState s;
  s.clone = CloneLife::kRegistered;
  EXPECT_TRUE(violates(precondition(Prim::kRebind, s), 3));
  AbsState d = at_divulged();
  EXPECT_TRUE(precondition(Prim::kRebind, d).empty());
  d.clone = CloneLife::kAbsent;
  EXPECT_TRUE(violates(precondition(Prim::kRebind, d), 1));
}

TEST(Primitives, StartCloneRejectsTwoLiveInstances) {
  AbsState s;
  s.clone = CloneLife::kRegistered;
  EXPECT_TRUE(violates(precondition(Prim::kStartClone, s), 6));
  s.old_life = OldLife::kPassive;
  EXPECT_TRUE(precondition(Prim::kStartClone, s).empty());
}

TEST(Primitives, RemoveOldGuardsContinuity) {
  AbsState s;  // active, bound to old, nothing captured
  auto v = precondition(Prim::kRemoveOld, s);
  EXPECT_TRUE(violates(v, 4));  // removing a serving instance
  EXPECT_TRUE(violates(v, 1));  // bindings still on it
  EXPECT_TRUE(violates(v, 2));  // state never captured
  AbsState d = at_divulged();
  d.bound_to_old = false;
  d.bound_to_new = true;
  d.streams = StreamOwner::kNew;
  d.clone = CloneLife::kStarted;
  d.state_delivered = true;
  EXPECT_TRUE(precondition(Prim::kRemoveOld, d).empty());
}

TEST(Primitives, AbortRollbackOnlyBeforeTheWatershed) {
  AbsState s;
  s.clone = CloneLife::kRegistered;
  s.replica = CloneLife::kRegistered;
  s.txn_open = true;
  EXPECT_TRUE(precondition(Prim::kAbortRollback, s).empty());
  EXPECT_TRUE(violates(precondition(Prim::kAbortRollback, at_divulged()), 2));
  // A started replica (a rebuild's heir) cannot be discarded either.
  s.replica = CloneLife::kStarted;
  EXPECT_TRUE(violates(precondition(Prim::kAbortRollback, s), 6));
}

TEST(Primitives, CommitRequiresTheFinishedConfiguration) {
  AbsState s = at_divulged();
  auto v = precondition(Prim::kCommit, s);
  EXPECT_TRUE(violates(v, 6));  // old still present
  EXPECT_TRUE(violates(v, 4));  // clone not restored
  EXPECT_TRUE(violates(v, 1));  // bindings not moved
  s.old_life = OldLife::kRemoved;
  s.clone = CloneLife::kRestored;
  s.bound_to_old = false;
  s.bound_to_new = true;
  s.state_delivered = true;
  EXPECT_TRUE(precondition(Prim::kCommit, s).empty());
}

TEST(Primitives, RestartFromWalNeedsTheDurableWatershed) {
  AbsState s = at_divulged();
  EXPECT_TRUE(precondition(Prim::kRestartFromWal, s).empty());
  s.state_durable = false;  // unjournaled divulge cannot roll forward
  EXPECT_TRUE(violates(precondition(Prim::kRestartFromWal, s), 2));
}

TEST(Primitives, AdoptDeadBindingsNeedsTheDivulgedCaptureInTheHeir) {
  AbsState s = at_divulged();
  s.machine_lost = true;
  s.replica = CloneLife::kRegistered;
  EXPECT_TRUE(violates(precondition(Prim::kAdoptDeadBindings, s), 7));
  s.replica_has_state = true;
  EXPECT_TRUE(precondition(Prim::kAdoptDeadBindings, s).empty());
  s.divulged = false;  // adoption before the watershed loses acked writes
  EXPECT_TRUE(violates(precondition(Prim::kAdoptDeadBindings, s), 7));
}

TEST(Primitives, RetireDeadOnlyAfterAdoption) {
  AbsState s;
  s.machine_lost = true;
  EXPECT_TRUE(violates(precondition(Prim::kRetireDead, s), 7));
  s.dead_adopted = true;
  EXPECT_TRUE(precondition(Prim::kRetireDead, s).empty());
}

TEST(Primitives, Invariant7TracksTheAdoptionWatershed) {
  AbsState s;
  s.machine_lost = true;
  EXPECT_TRUE(invariant_holds(7, s));  // loss alone violates nothing
  s.dead_adopted = true;               // ...but adopting without the state does
  EXPECT_FALSE(invariant_holds(7, s));
  s.divulged = true;
  s.replica_has_state = true;
  EXPECT_TRUE(invariant_holds(7, s));
  s.dead_adopted = false;
  s.dead_retired = true;  // retired without an heir: queued acks dropped
  EXPECT_FALSE(invariant_holds(7, s));
}

// --- primitive postconditions -----------------------------------------------

TEST(Primitives, ApplyTransformsTheAbstractState) {
  AbsState s;
  apply(Prim::kBeginTxn, s, /*journaled=*/true);
  EXPECT_TRUE(s.txn_open);
  apply(Prim::kRegisterClone, s, true);
  EXPECT_EQ(s.clone, CloneLife::kRegistered);
  apply(Prim::kPassivate, s, true);
  EXPECT_EQ(s.old_life, OldLife::kPassive);
  apply(Prim::kDivulge, s, true);
  EXPECT_TRUE(s.divulged);
  EXPECT_TRUE(s.state_durable);  // journaled: the watershed is durable
  apply(Prim::kRebind, s, true);
  EXPECT_FALSE(s.bound_to_old);
  EXPECT_TRUE(s.bound_to_new);
  EXPECT_EQ(s.streams, StreamOwner::kNew);
}

TEST(Primitives, UnjournaledDivulgeIsNotDurable) {
  AbsState s;
  s.old_life = OldLife::kPassive;
  apply(Prim::kDivulge, s, /*journaled=*/false);
  EXPECT_TRUE(s.divulged);
  EXPECT_FALSE(s.state_durable);
}

TEST(Primitives, CloneCrashLosesTheMailboxCopyAndRetryRestoresIt) {
  AbsState s = at_divulged();
  s.clone = CloneLife::kStarted;
  s.state_delivered = true;
  s.bound_to_old = false;
  s.bound_to_new = true;
  apply(Prim::kCloneCrashed, s, true);
  EXPECT_EQ(s.clone, CloneLife::kCrashed);
  EXPECT_FALSE(s.state_delivered);
  EXPECT_TRUE(precondition(Prim::kRetrySwap, s).empty());
  apply(Prim::kRetrySwap, s, true);
  EXPECT_EQ(s.clone, CloneLife::kStarted);
  EXPECT_TRUE(s.state_delivered);
}

TEST(Primitives, AbortRestoresThePreScriptConfiguration) {
  AbsState s;
  s.txn_open = true;
  s.clone = CloneLife::kRegistered;
  s.replica = CloneLife::kRegistered;
  apply(Prim::kAbortRollback, s, true);
  EXPECT_TRUE(s.aborted);
  EXPECT_FALSE(s.txn_open);
  EXPECT_EQ(s.clone, CloneLife::kAbsent);
  EXPECT_EQ(s.replica, CloneLife::kAbsent);
  EXPECT_EQ(s.old_life, OldLife::kActive);
  EXPECT_TRUE(s.bound_to_old);
  EXPECT_TRUE(invariant_holds(4, s));
}

// --- the checker over shipped plans -----------------------------------------

TEST(Checker, EveryShippedPlanPasses) {
  for (const Plan& plan : shipped_plans()) {
    const PlanReport report = check_plan(plan);
    EXPECT_TRUE(report.ok) << plan.name << ":\n" << report.to_text();
    EXPECT_EQ(report.steps.size(), plan.steps.size());
    EXPECT_TRUE(report.violations.empty());
    if (plan.outcome == Outcome::kCommitted) {
      EXPECT_TRUE(report.end_state.committed) << plan.name;
    } else {
      EXPECT_TRUE(report.end_state.aborted) << plan.name;
    }
  }
}

TEST(Checker, ShippedPlanCountAndNamesAreStable) {
  const std::vector<Plan> plans = shipped_plans();
  ASSERT_EQ(plans.size(), 13u);
  EXPECT_EQ(plans[0].name, "replace");
  EXPECT_EQ(plans[5].name, "recover_rollback");
  EXPECT_EQ(plans[6].name, "recover_rollforward");
  EXPECT_EQ(plans[8].name, "group_rebuild");
  EXPECT_EQ(plans[9].name, "rebalance");
  EXPECT_EQ(plans[10].name, "replace_native");
  EXPECT_EQ(plans[11].name, "group_rebuild_recover_rollback");
  EXPECT_EQ(plans[12].name, "group_rebuild_recover_rollforward");
}

TEST(Checker, EstablishedStatusAppearsWhereAnInvariantFlipsOn) {
  // In the broken plan invariant 3 is violated at the early rebind and
  // then ESTABLISHED by the later divulge -- all three statuses occur.
  const PlanReport report = check_plan(plan_broken_rebind_before_divulge());
  bool saw_violated = false;
  bool saw_established = false;
  for (const StepReport& sr : report.steps) {
    if (sr.invariants[2] == InvStatus::kViolated) saw_violated = true;
    if (sr.invariants[2] == InvStatus::kEstablished) saw_established = true;
  }
  EXPECT_TRUE(saw_violated);
  EXPECT_TRUE(saw_established);
}

TEST(Checker, BrokenPlanFailsWithInvariant3) {
  const PlanReport report = check_plan(plan_broken_rebind_before_divulge());
  EXPECT_FALSE(report.ok);
  // The machine-readable diagnostic names the step, the invariant id, and
  // carries the counterexample state.
  bool pre_hit = false;
  bool boundary_hit = false;
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.invariant, 3) << v.kind << ": " << v.detail;
    if (v.kind == "precondition" && v.step == "rebind") pre_hit = true;
    if (v.kind == "boundary" && v.step == "rebind") boundary_hit = true;
    EXPECT_FALSE(v.state.empty());
  }
  EXPECT_TRUE(pre_hit) << report.to_text();
  EXPECT_TRUE(boundary_hit) << report.to_text();
  EXPECT_NE(report.to_json().find("\"invariant\":3"), std::string::npos);
}

TEST(Checker, BrokenAdoptPlanFailsWithInvariant7) {
  const PlanReport report = check_plan(plan_broken_adopt_before_divulge());
  EXPECT_FALSE(report.ok);
  bool pre_hit = false;
  bool boundary_hit = false;
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.invariant, 7) << v.kind << ": " << v.detail;
    if (v.kind == "precondition" && v.step == "heir.rebind") pre_hit = true;
    if (v.kind == "boundary" && v.step == "heir.rebind") boundary_hit = true;
  }
  EXPECT_TRUE(pre_hit) << report.to_text();
  EXPECT_TRUE(boundary_hit) << report.to_text();
  EXPECT_NE(report.to_json().find("\"invariant\":7"), std::string::npos);
}

// The orphan a rollback of one clone leaves: an aborted plan that ends with
// a replica registered fails its outcome, as one with the clone does.
TEST(Checker, AbortThatLeavesTheReplicaRegisteredFails) {
  Plan plan = shipped_plan("group_rebuild_recover_rollback");
  EXPECT_TRUE(check_plan(plan).ok);
  plan.steps.push_back({Prim::kRegisterReplica, "orphan", ""});
  const PlanReport report = check_plan(plan);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_text();
  EXPECT_EQ(report.violations[0].kind, "outcome");
  EXPECT_EQ(report.violations[0].invariant, 6);
}

TEST(Checker, JsonIsWellFormedEnoughForTheCiGate) {
  const PlanReport report = check_plan(shipped_plan("replace"));
  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"plan\":\"replace\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos);
}

// --- golden-pinned diagnostics ----------------------------------------------

TEST(Checker, PlanCheckOutputMatchesGolden) {
  std::ostringstream got;
  const std::vector<Plan> plans = shipped_plans();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (i != 0) got << "\n";
    got << check_plan(plans[i]).to_text();
  }
  std::ifstream in(std::string(SURGEON_GOLDEN_DIR) + "/plan_check.txt");
  ASSERT_TRUE(in.good()) << "tests/golden/plan_check.txt missing";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got.str(), want.str())
      << "plan_check diagnostics drifted; regenerate tests/golden/"
         "plan_check.txt from `tools/plan_check` if the change is intended";
}

// --- journal-boundary conformance: plans pinned to the real scripts ---------

/// Records the transaction-boundary sequence a script reports, in the same
/// currency as Plan::journal_boundaries().
class RecordingJournal : public reconfig::ScriptJournal {
 public:
  void begin(const std::string&, const reconfig::Shape&) override {
    boundaries.push_back("begin");
  }
  void intent(const char* step) override { boundaries.push_back(step); }
  void divulged(const std::vector<std::uint8_t>&) override {
    divulge_records += 1;
  }
  void committed() override { committed_records += 1; }
  void aborted(const std::string&) override {
    boundaries.push_back("abort");
  }

  std::vector<std::string> boundaries;
  int divulge_records = 0;
  int committed_records = 0;
};

std::unique_ptr<app::Runtime> make_counter(int requests = 8) {
  auto rt = std::make_unique<app::Runtime>(2);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  rt->load_application(config, "counter", [&](const cfg::ModuleSpec& spec) {
    if (spec.name == "client") {
      return app::samples::counter_client_source(requests);
    }
    return app::samples::counter_server_source();
  });
  return rt;
}

/// A two-member KV group whose first member died with its machine; `sp0`
/// is the spare that receives the heir.
struct LostMember {
  app::Runtime rt;
  std::unique_ptr<replicate::KvService> service;
  std::string survivor;
  std::string dead;

  LostMember() {
    replicate::KvOptions options;
    options.shards = 1;
    options.group_size = 2;
    options.machines = {"m0", "m1"};
    for (const auto& m : options.machines) rt.add_machine(m, net::arch_vax());
    rt.add_machine("sp0", net::arch_vax());
    rt.add_machine(options.control_machine, net::arch_vax());
    service = std::make_unique<replicate::KvService>(rt, options);
    service->launch(60);  // long script: still mid-run at the kill
    (void)rt.run_for(20'000, 50'000'000);
    const auto members = service->router().members(0);
    dead = members.at(0);
    survivor = members.at(1);
    (void)rt.crash_machine(rt.bus().module_info(dead).machine);
  }

  /// rebuild_group onto the spare, nudging the group toward the divulge.
  reconfig::ReplaceReport rebuild(reconfig::ReplaceOptions options) {
    options.machine = "sp0";
    options.nudge = [this] { service->router().nudge(0); };
    return replicate::rebuild_group(rt, survivor, dead, options);
  }

  [[nodiscard]] std::set<std::string> registered() {
    const auto names = rt.bus().module_names();
    return {names.begin(), names.end()};
  }
};

/// Every journaled configuration of the transaction engine, run for real
/// against a recording journal: the intents it writes must be exactly the
/// journal boundaries of the plan generated for it.
TEST(Conformance, EveryJournaledConfigurationMatchesItsPlan) {
  struct Case {
    Plan plan;
    std::function<void(reconfig::ReplaceOptions&)> run;
  };
  const Case cases[] = {
      {shipped_plan("replace"),
       [](reconfig::ReplaceOptions& options) {
         auto rt = make_counter();
         (void)reconfig::replace_module(*rt, "server", options);
       }},
      {shipped_plan("move"),
       [](reconfig::ReplaceOptions& options) {
         auto rt = make_counter();
         options.machine = "sparc";
         (void)reconfig::replace_module(*rt, "server", options);
       }},
      {shipped_plan("update"),
       [](reconfig::ReplaceOptions& options) {
         auto rt = make_counter();
         options.program = rt->image_of("server")->program;
         (void)reconfig::replace_module(*rt, "server", options);
       }},
      // The client has no reconfiguration points: the engine signals,
      // waits, times out, and rolls back.
      {shipped_plan("abort_divulge_timeout"),
       [](reconfig::ReplaceOptions& options) {
         auto rt = make_counter();
         options.divulge_timeout_us = 50'000;
         EXPECT_THROW((void)reconfig::replace_module(*rt, "client", options),
                      reconfig::ScriptError);
       }},
      // The clone crashes on its first state delivery; the retry chain
      // installs a second one within the same transaction.
      {shipped_plan("retry_reinstall"),
       [](reconfig::ReplaceOptions& options) {
         auto rt = make_counter();
         bool armed = true;
         rt->bus().set_state_observer(
             [&](const std::string& module, const char* phase,
                 const std::vector<std::uint8_t>&) {
               if (armed && std::string_view(phase) == "delivered" &&
                   rt->module_running(module)) {
                 armed = false;
                 rt->crash_module(module, "crashed on first state delivery");
               }
             });
         options.max_attempts = 2;
         const reconfig::ReplaceReport report =
             reconfig::replace_module(*rt, "server", options);
         EXPECT_EQ(report.attempts, 2);
         EXPECT_FALSE(armed);
       }},
      {shipped_plan("group_rebuild"),
       [](reconfig::ReplaceOptions& options) {
         LostMember group;
         (void)group.rebuild(options);
       }},
      {shipped_plan("replace_native"),
       [](reconfig::ReplaceOptions& options) {
         auto rt = make_counter(2'000);
         rt->enable_metrics();
         auto collector =
             std::make_unique<profile::Collector>(rt->bus(), "collector", "vax");
         profile::Reporter reporter(rt->bus(), rt->metrics(), "vax",
                                    "collector");
         rt->run_for(200'000);
         options.machine = "sparc";
         (void)reconfig::replace_module(*rt, collector, options);
         EXPECT_EQ(collector->module_name(), "collector#2");
       }},
  };
  for (const Case& c : cases) {
    RecordingJournal journal;
    reconfig::ReplaceOptions options;
    options.journal = &journal;
    c.run(options);
    const int closed = c.plan.outcome == Outcome::kCommitted ? 1 : 0;
    EXPECT_EQ(journal.boundaries, c.plan.journal_boundaries()) << c.plan.name;
    EXPECT_EQ(journal.divulge_records, closed) << c.plan.name;
    EXPECT_EQ(journal.committed_records, closed) << c.plan.name;
  }
}

// --- a journaled rebuild whose coordinator dies ------------------------------

const std::vector<const char*> kRebuildBoundaries =
    reconfig::journal_intents(reconfig::rebuild_shape());

/// The coordinator of a journaled rebuild dies at one journal boundary, and
/// recover_coordinator finishes from the WAL, as group_rebuild's recovery
/// plans promise. Before the divulge the rebuild rolls back to the modules
/// registered before it; after it, the group ends as a crash-free rebuild
/// leaves it, and the client finishes.
class RebuildCoordinatorKill : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RebuildCoordinatorKill, RecoveryLeavesTheGroupWhole) {
  const std::string boundary = kRebuildBoundaries[GetParam()];
  // Past the objstate_move boundary the state is divulged: roll forward.
  const auto divulge =
      std::find(kRebuildBoundaries.begin(), kRebuildBoundaries.end(),
                std::string_view(reconfig::kStepObjstateMove));
  const bool forward = GetParam() > static_cast<std::size_t>(
                                        divulge - kRebuildBoundaries.begin());
  std::set<std::string> rebuilt;
  std::vector<std::string> clones;
  {
    LostMember clean;
    clones = clean.rebuild({}).clones;
    rebuilt = clean.registered();
  }

  LostMember group;
  const std::set<std::string> before = group.registered();
  app::Runtime& rt = group.rt;
  recover::Wal wal(rt.simulator().durable_store("ctl"));
  reconfig::ReplaceOptions options;
  options.journal = &wal;
  options.crash_hook = [&boundary](const char* step) {
    if (step == boundary) {
      throw recover::CoordinatorCrash("test: died at " + boundary);
    }
  };
  EXPECT_THROW((void)group.rebuild(options), recover::CoordinatorCrash);
  const recover::RecoveryReport report = recover::recover_coordinator(rt, wal);
  EXPECT_EQ(report.rolled_forward, forward);
  EXPECT_EQ(report.rolled_back, !forward);
  EXPECT_FALSE(wal.open_transaction().has_value());
  if (!forward) {
    EXPECT_EQ(group.registered(), before);
    return;
  }
  EXPECT_EQ(group.registered(), rebuilt);
  EXPECT_FALSE(rt.bus().has_module(group.survivor));
  EXPECT_FALSE(rt.bus().has_module(group.dead));
  const auto members = group.service->router().members(0);
  std::set<std::string> hosts;
  for (const std::string& m : members) {
    EXPECT_TRUE(rt.module_running(m)) << m;
    const vm::Machine* vm = rt.machine_of(m);
    EXPECT_TRUE(vm != nullptr && vm->decode_count() > 0 &&
                vm->restore_frames_remaining() == 0)
        << m << " never restored";
    hosts.insert(rt.bus().module_info(m).machine);
  }
  EXPECT_EQ(std::set<std::string>(members.begin(), members.end()),
            std::set<std::string>(clones.begin(), clones.end()));
  EXPECT_EQ(hosts, (std::set<std::string>{"m0", "sp0"}));
  ASSERT_TRUE(group.service->run_to_completion(5'000'000, 50'000'000))
      << "the client never finished";
  EXPECT_TRUE(group.service->client().ledger_violations().empty());
  EXPECT_EQ(group.service->router().stats().stale_gets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, RebuildCoordinatorKill,
    ::testing::Range<std::size_t>(0, kRebuildBoundaries.size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kRebuildBoundaries[info.param]);
    });

}  // namespace
}  // namespace surgeon::verify
