// surgeon::recover -- WAL'd Figure 5 transactions, the heartbeat failure
// detector, coordinator-crash recovery at every step boundary, and
// checkpoint-based module recovery.
//
// The CoordinatorKillSweep at the bottom kills the coordinator at all eight
// step boundaries across 25 random scenarios (200 runs); every failure
// message starts with the scenario's describe() line for replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "chaos/scenario.hpp"
#include "net/arch.hpp"
#include "net/durable.hpp"
#include "recover/detector.hpp"
#include "recover/recovery.hpp"
#include "recover/supervisor.hpp"
#include "recover/wal.hpp"
#include "reconfig/scripts.hpp"
#include "support/diag.hpp"
#include "support/rng.hpp"

namespace surgeon {
namespace {

using app::Runtime;

// --- write-ahead log --------------------------------------------------------

/// `shape` as a run logs it: clone k named `names[k]`.
reconfig::Shape named(reconfig::Shape shape,
                      const std::vector<std::string>& names) {
  for (std::size_t k = 0; k < names.size(); ++k) {
    shape.clones.at(k).name = names[k];
  }
  return shape;
}

reconfig::Shape logged_replace(const std::string& clone,
                               const std::string& machine = "") {
  return named(reconfig::replace_shape(machine), {clone});
}

TEST(Wal, CommittedTransactionRoundTrips) {
  net::DurableStore store;
  recover::Wal wal(store);
  wal.begin("server", logged_replace("server@2", "sparc"));
  wal.intent(reconfig::kStepObjCap);
  wal.intent(reconfig::kStepObjstateMove);
  wal.divulged({1, 2, 3, 4});
  wal.intent(reconfig::kStepCommit);
  wal.committed();

  std::vector<recover::WalTxn> txns = wal.scan();
  ASSERT_EQ(txns.size(), 1u);
  const recover::WalTxn& t = txns[0];
  EXPECT_EQ(t.id, 1u);
  EXPECT_EQ(t.source, "server");
  ASSERT_EQ(t.shape.clones.size(), 1u);
  EXPECT_EQ(t.shape.clones[0].name, "server@2");
  EXPECT_EQ(t.shape.clones[0].machine, "sparc");
  EXPECT_EQ(t.shape.clones[0].bindings, reconfig::Binding::kInherit);
  ASSERT_EQ(t.steps.size(), 3u);
  EXPECT_EQ(t.steps.front(), reconfig::kStepObjCap);
  EXPECT_EQ(t.last_step(), reconfig::kStepCommit);
  ASSERT_TRUE(t.shape.state.has_value());
  EXPECT_EQ(*t.shape.state, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_TRUE(t.committed);
  EXPECT_FALSE(t.open());
  EXPECT_FALSE(wal.open_transaction().has_value());
  EXPECT_EQ(wal.records(), 6u);
}

TEST(Wal, OpenTransactionExposesProgress) {
  net::DurableStore store;
  recover::Wal wal(store);
  wal.begin("server", logged_replace("server@2"));
  wal.intent(reconfig::kStepObjCap);
  wal.intent(reconfig::kStepCloneRegister);
  // The coordinator dies here: no divulged record, no commit.
  std::optional<recover::WalTxn> open = wal.open_transaction();
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->id, 1u);
  EXPECT_EQ(open->last_step(), reconfig::kStepCloneRegister);
  EXPECT_FALSE(open->shape.state.has_value());
  EXPECT_TRUE(open->open());
}

TEST(Wal, AbortClosesTransaction) {
  net::DurableStore store;
  recover::Wal wal(store);
  wal.begin("server", logged_replace("server@2"));
  wal.intent(reconfig::kStepObjstateMove);
  wal.aborted("divulge timeout");
  std::vector<recover::WalTxn> txns = wal.scan();
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_TRUE(txns[0].aborted);
  EXPECT_EQ(txns[0].abort_reason, "divulge timeout");
  EXPECT_FALSE(wal.open_transaction().has_value());
}

TEST(Wal, IdsContinueAcrossCoordinatorRestarts) {
  net::DurableStore store;
  {
    recover::Wal wal(store);
    wal.begin("a", logged_replace("a@2"));
    wal.committed();
  }
  recover::Wal successor(store);  // restarted coordinator, same disk
  successor.begin("b", logged_replace("b@2"));
  successor.aborted("rolled back");
  std::vector<recover::WalTxn> txns = successor.scan();
  ASSERT_EQ(txns.size(), 2u);
  EXPECT_EQ(txns[0].id, 1u);
  EXPECT_EQ(txns[1].id, 2u);
  EXPECT_TRUE(txns[1].aborted);
}

TEST(Wal, MarkCommittedClosesScannedTransaction) {
  net::DurableStore store;
  recover::Wal wal(store);
  wal.begin("server", logged_replace("server@2"));
  wal.intent(reconfig::kStepRebind);
  std::optional<recover::WalTxn> open = wal.open_transaction();
  ASSERT_TRUE(open.has_value());
  wal.mark_committed(open->id);
  EXPECT_FALSE(wal.open_transaction().has_value());
  EXPECT_TRUE(wal.scan()[0].committed);
}

// The begin record carries the whole shape: every clone's name, machine,
// binding source and holder, and whether the clones restore in place.
TEST(Wal, BeginRecordCarriesTheWholeShape) {
  net::DurableStore store;
  recover::Wal wal(store);
  const reconfig::Shape rebuild =
      named(reconfig::rebuild_shape("s0x0", "sp0"), {"s0x1@2", "s0x1@3"});
  wal.begin("s0x1", rebuild);
  const reconfig::Shape native =
      named(reconfig::native_shape("sparc"), {"collector#2"});
  wal.begin("collector", native);
  const std::vector<recover::WalTxn> txns = wal.scan();
  ASSERT_EQ(txns.size(), 2u);
  const auto expect_logged = [](const recover::WalTxn& t,
                                const std::string& source,
                                const reconfig::Shape& shape) {
    EXPECT_EQ(t.source, source);
    EXPECT_EQ(t.shape.restores_in_place, shape.restores_in_place);
    ASSERT_EQ(t.shape.clones.size(), shape.clones.size());
    for (std::size_t k = 0; k < shape.clones.size(); ++k) {
      EXPECT_EQ(t.shape.clones[k].name, shape.clones[k].name);
      EXPECT_EQ(t.shape.clones[k].machine, shape.clones[k].machine);
      EXPECT_EQ(t.shape.clones[k].bindings, shape.clones[k].bindings);
      EXPECT_EQ(t.shape.clones[k].holder, shape.clones[k].holder);
    }
  };
  expect_logged(txns[0], "s0x1", rebuild);
  expect_logged(txns[1], "collector", native);
}

/// A log with one record of every type, as the write side produces it.
std::vector<net::DurableStore::Record> every_record_type() {
  net::DurableStore store;
  recover::Wal wal(store);
  wal.begin("s0x1", named(reconfig::rebuild_shape("s0x0", "sp0"),
                          {"s0x1@2", "s0x1@3"}));
  wal.intent(reconfig::kStepObjCap);
  wal.divulged({1, 2, 3, 4, 5});
  wal.committed();
  wal.begin("server", logged_replace("server@2", "sparc"));
  wal.aborted("divulge timeout");
  return store.log(wal.log_name());
}

/// `log` with record `at` replaced by `record`.
net::DurableStore with_record(std::vector<net::DurableStore::Record> log,
                              std::size_t at,
                              net::DurableStore::Record record) {
  log[at] = std::move(record);
  net::DurableStore store;
  for (auto& r : log) store.append("reconfig.wal", std::move(r));
  return store;
}

TEST(Wal, MalformedRecordsThrow) {
  net::DurableStore store;
  store.append("reconfig.wal", {1});  // begin record cut off mid-header
  recover::Wal wal(store);
  EXPECT_THROW((void)wal.scan(), recover::WalError);

  net::DurableStore store2;
  store2.append("reconfig.wal",
                {99, 1, 0, 0, 0, 0, 0, 0, 0});  // unknown record type
  recover::Wal wal2(store2);
  EXPECT_THROW((void)wal2.scan(), recover::WalError);

  // A divulged record whose length field is 2^64 - 1: the length must not
  // wrap a bounds check into a read past the record.
  const std::vector<net::DurableStore::Record> log = every_record_type();
  net::DurableStore::Record huge = log[2];
  std::fill(huge.begin() + 9, huge.begin() + 17, std::uint8_t{0xff});
  net::DurableStore store3 = with_record(log, 2, huge);
  EXPECT_THROW((void)recover::Wal(store3).scan(), recover::WalError);

  // A begin record whose first clone's binding byte is outside the enum:
  // type, txn, "s0x1", in-place flag, clone count, "s0x1@2", "" machine.
  net::DurableStore::Record binding = log[0];
  binding[9 + 8 + 1 + 4 + 10 + 4] = 7;
  net::DurableStore store4 = with_record(log, 0, binding);
  EXPECT_THROW((void)recover::Wal(store4).scan(), recover::WalError);
}

// Truncated, bit-flipped, length-mutated and randomly mutated copies of
// every record type, one record at a time inside an otherwise valid log: a
// scan either succeeds or throws WalError -- never another exception, a
// crash, or an absurd allocation.
TEST(Wal, FuzzedLogsNeverCrashTheScan) {
  const std::vector<net::DurableStore::Record> log = every_record_type();
  std::size_t scans = 0;
  auto try_scan = [&](std::size_t at, net::DurableStore::Record record) {
    net::DurableStore store = with_record(log, at, std::move(record));
    ++scans;
    try {
      (void)recover::Wal(store).scan();
    } catch (const recover::WalError&) {
      // expected for a corrupt record
    }
  };
  support::SplitMix64 rng(23);
  for (std::size_t at = 0; at < log.size(); ++at) {
    const net::DurableStore::Record& valid = log[at];
    for (std::size_t i = 0; i < valid.size(); ++i) {
      try_scan(at, {valid.begin(),
                    valid.begin() + static_cast<std::ptrdiff_t>(i)});
      for (int bit = 0; bit < 8; ++bit) {
        net::DurableStore::Record flipped = valid;
        flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
        try_scan(at, flipped);
      }
      // A length (or count) field read at offset i becomes huge.
      for (const std::uint8_t fill : {std::uint8_t{0xff}, std::uint8_t{0x7f}}) {
        net::DurableStore::Record lengthy = valid;
        for (std::size_t k = i; k < std::min(i + 8, valid.size()); ++k) {
          lengthy[k] = fill;
        }
        try_scan(at, lengthy);
      }
    }
    for (int round = 0; round < 100; ++round) {
      net::DurableStore::Record mutated = valid;
      for (int n = 1 + static_cast<int>(rng.next_below(4)); n > 0; --n) {
        mutated[rng.next_below(mutated.size())] =
            static_cast<std::uint8_t>(rng.next());
      }
      try_scan(at, mutated);
    }
  }
  EXPECT_GT(scans, 2'000u);
}

// --- failure detector -------------------------------------------------------

/// Processes a hand-built heartbeat tick lists, all on one host.
struct Listing {
  std::vector<std::string> names;
  std::string host = "vax";
  [[nodiscard]] std::vector<app::LiveProcess> live() const {
    std::vector<app::LiveProcess> out;
    for (const std::string& name : names) out.push_back({&name, &host});
    return out;
  }
};

TEST(Detector, SuspectsModulesAfterSilence) {
  recover::FailureDetector det(recover::DetectorOptions{.suspicion_timeout_us = 100});
  det.tick(0, 1, Listing{{"a", "b"}}.live());
  det.tick(90, 2, Listing{{"a"}}.live());
  EXPECT_TRUE(det.silent_modules(50).empty());
  std::vector<std::string> s = det.silent_modules(150);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], "b");  // a beat at 90, b has been silent for 150
  s = det.silent_modules(500);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0], "a");  // sorted by name
  EXPECT_EQ(s[1], "b");
  EXPECT_EQ(det.beats_observed(), 3u);
  ASSERT_TRUE(det.module_last_beat("a").has_value());
  EXPECT_EQ(*det.module_last_beat("a"), 90u);
}

TEST(Detector, ForgetStopsTracking) {
  recover::FailureDetector det(recover::DetectorOptions{.suspicion_timeout_us = 10});
  det.tick(0, 1, Listing{{"a"}}.live());
  EXPECT_EQ(det.tracked_modules(), 1u);
  det.forget_module("a");
  EXPECT_EQ(det.tracked_modules(), 0u);
  EXPECT_TRUE(det.silent_modules(1000).empty());
  EXPECT_FALSE(det.module_last_beat("a").has_value());
}

// --- runtime heartbeats -----------------------------------------------------

std::unique_ptr<Runtime> make_counter(int requests = 8) {
  auto rt = std::make_unique<Runtime>(2);
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

std::vector<std::string> golden_counter_output(int requests) {
  auto rt = make_counter(requests);
  EXPECT_TRUE(rt->run_until([&] { return rt->module_finished("client"); },
                            4'000'000));
  return rt->machine_of("client")->output();
}

TEST(Heartbeats, EveryLiveProcessBeatsOnTheVirtualClock) {
  auto rt = make_counter();
  recover::FailureDetector det(
      recover::DetectorOptions{.suspicion_timeout_us = 5'000});
  det.start(*rt, 1'000);
  EXPECT_TRUE(det.running());
  rt->run_for(10'000);
  EXPECT_EQ(det.tracked_modules(), 2u);  // client and server both beat
  EXPECT_GE(det.beats_observed(), 10u);
  EXPECT_TRUE(det.silent_modules(rt->now()).empty());

  // A crashed module stops beating and crosses the suspicion timeout.
  rt->crash_module("server", "test crash");
  rt->run_for(10'000);
  std::vector<std::string> s = det.silent_modules(rt->now());
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], "server");

  // stop() invalidates the pending tick.
  std::uint64_t before = det.beats_observed();
  det.stop();
  rt->run_for(10'000);
  EXPECT_EQ(det.beats_observed(), before);
}

TEST(Heartbeats, ZeroIntervalRejected) {
  auto rt = make_counter();
  recover::FailureDetector det;
  EXPECT_THROW(det.start(*rt, 0), support::BusError);
}

// --- coordinator crash recovery (directed, one test per watershed side) ----

TEST(Recovery, NoOpenTransactionIsANoOp) {
  auto rt = make_counter();
  net::DurableStore& store = rt->simulator().durable_store("vax");
  recover::Wal wal(store);
  recover::RecoveryReport rep = recover::recover_coordinator(*rt, wal);
  EXPECT_FALSE(rep.found_open_txn);
  EXPECT_FALSE(rep.rolled_forward);
  EXPECT_FALSE(rep.rolled_back);
}

// Kills the coordinator of a manual replacement at `boundary` and returns
// the runtime plus the WAL for recovery assertions.
struct CrashedReplacement {
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<recover::Wal> wal;
};

CrashedReplacement crash_coordinator_at(const char* boundary,
                                        int requests = 8) {
  CrashedReplacement cr;
  cr.rt = make_counter(requests);
  cr.rt->bus().set_delivery(bus::DeliveryOptions{.reliable = true});
  EXPECT_TRUE(cr.rt->run_until(
      [&] { return cr.rt->machine_of("client")->output().size() >= 2; },
      2'000'000));
  cr.wal = std::make_unique<recover::Wal>(
      cr.rt->simulator().durable_store("vax"));
  reconfig::ReplaceOptions options;
  options.journal = cr.wal.get();
  options.crash_hook = [boundary](const char* step) {
    if (std::string_view(step) == boundary) {
      throw recover::CoordinatorCrash(std::string("test: died at '") + step +
                                      "'");
    }
  };
  EXPECT_THROW((void)reconfig::replace_module(*cr.rt, "server", options),
               recover::CoordinatorCrash);
  return cr;
}

TEST(Recovery, PreDivulgeCrashRollsBackAndOldKeepsServing) {
  std::vector<std::string> golden = golden_counter_output(8);
  CrashedReplacement cr = crash_coordinator_at(reconfig::kStepBindEditPrep);
  recover::RecoveryReport rep = recover::recover_coordinator(*cr.rt, *cr.wal);
  EXPECT_TRUE(rep.found_open_txn);
  EXPECT_TRUE(rep.rolled_back);
  EXPECT_FALSE(rep.rolled_forward);
  EXPECT_EQ(rep.crashed_after_step, reconfig::kStepBindEditPrep);
  // The half-born clone is gone; exactly the old instance remains.
  EXPECT_FALSE(cr.rt->bus().has_module("server@2"));
  EXPECT_TRUE(cr.rt->bus().has_module("server"));
  EXPECT_FALSE(cr.wal->open_transaction().has_value());
  ASSERT_TRUE(cr.rt->run_until(
      [&] { return cr.rt->module_finished("client"); }, 2'000'000));
  EXPECT_EQ(cr.rt->machine_of("client")->output(), golden);
  cr.rt->check_faults();
}

TEST(Recovery, PostDivulgeCrashRollsForwardToTheClone) {
  std::vector<std::string> golden = golden_counter_output(8);
  CrashedReplacement cr = crash_coordinator_at(reconfig::kStepRebind);
  recover::RecoveryReport rep = recover::recover_coordinator(*cr.rt, *cr.wal);
  EXPECT_TRUE(rep.rolled_forward);
  EXPECT_TRUE(rep.restored);
  EXPECT_EQ(rep.new_instance, "server@2");
  EXPECT_FALSE(cr.rt->bus().has_module("server"));
  EXPECT_TRUE(cr.rt->bus().has_module("server@2"));
  EXPECT_FALSE(cr.wal->open_transaction().has_value());
  ASSERT_TRUE(cr.rt->run_until(
      [&] { return cr.rt->module_finished("client"); }, 2'000'000));
  EXPECT_EQ(cr.rt->machine_of("client")->output(), golden);
  cr.rt->check_faults();
}

// ISSUE satellite: a crash landing between divulge and install -- the clone
// process dies while the coordinator is down. Recovery restarts it
// (crash_module/restart_module) and the reliable layer re-converges the
// state delivery on the fresh VM.
TEST(Recovery, CloneCrashedDuringCoordinatorOutageIsRestarted) {
  std::vector<std::string> golden = golden_counter_output(8);
  CrashedReplacement cr = crash_coordinator_at(reconfig::kStepDel);
  // The clone was started by the "add" step; kill its process before the
  // successor coordinator comes up. Its state delivery is still in flight.
  cr.rt->crash_module("server@2", "host fault during outage");
  EXPECT_TRUE(cr.rt->module_crashed("server@2"));
  recover::RecoveryReport rep = recover::recover_coordinator(*cr.rt, *cr.wal);
  EXPECT_TRUE(rep.rolled_forward);
  EXPECT_TRUE(rep.restored);
  EXPECT_FALSE(cr.rt->module_crashed("server@2"));
  ASSERT_TRUE(cr.rt->run_until(
      [&] { return cr.rt->module_finished("client"); }, 2'000'000));
  EXPECT_EQ(cr.rt->machine_of("client")->output(), golden);
  cr.rt->check_faults();
}

// The mailbox copy of the state can be lost with the crash; the WAL's
// divulged record is then the only copy, and roll-forward re-delivers it.
TEST(Recovery, StateRedeliveredFromWalWhenMailboxLost) {
  std::vector<std::string> golden = golden_counter_output(8);
  CrashedReplacement cr = crash_coordinator_at(reconfig::kStepRebind);
  cr.rt->run_for(60'000);  // let the in-flight delivery land in the mailbox
  ASSERT_TRUE(cr.rt->bus().take_incoming_state("server@2").has_value());
  std::optional<recover::WalTxn> open = cr.wal->open_transaction();
  ASSERT_TRUE(open.has_value());
  ASSERT_TRUE(open->shape.state.has_value());  // the watershed is durable
  recover::RecoveryReport rep = recover::recover_coordinator(*cr.rt, *cr.wal);
  EXPECT_TRUE(rep.rolled_forward);
  EXPECT_TRUE(rep.restored);
  ASSERT_TRUE(cr.rt->run_until(
      [&] { return cr.rt->module_finished("client"); }, 2'000'000));
  EXPECT_EQ(cr.rt->machine_of("client")->output(), golden);
  cr.rt->check_faults();
}

// The per-boundary fault-free crash sweep that used to live here (the
// hand-rolled BoundarySweep over Range(0, 8)) was promoted into the
// systematic explorer: systematic_test's BoundariesPromoted enumerates the
// same eight coordinator-crash boundaries through chaos::explore, which
// derives them from the replace shape's journal intents.

/// The replace script's crash boundaries: its journal intents, the seven
/// Figure 5 steps and then commit.
const int kBoundaries = static_cast<int>(
    reconfig::journal_intents(reconfig::replace_shape()).size());

TEST(Recovery, ReplaceBoundariesAreTheFigure5StepsThenCommit) {
  std::vector<std::string> expected(reconfig::kFigure5Steps.begin(),
                                    reconfig::kFigure5Steps.end());
  expected.emplace_back(reconfig::kStepCommit);
  const std::vector<const char*> intents =
      reconfig::journal_intents(reconfig::replace_shape());
  EXPECT_EQ(std::vector<std::string>(intents.begin(), intents.end()),
            expected);
}

// ISSUE acceptance: the coordinator is killed at every step boundary across
// 25 randomized scenarios (faults, partitions, all three apps) -- 200 runs.
// Replay: spec = random_scenario(seed); spec.crash_clone = false;
// spec.crash_coordinator_at_step = boundary (both printed by describe()).
class CoordinatorKillSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoordinatorKillSweep, Invariants) {
  const std::uint64_t seed = 500 + std::uint64_t(GetParam() / kBoundaries);
  const int boundary = GetParam() % kBoundaries;
  chaos::ScenarioSpec spec = chaos::random_scenario(seed);
  spec.crash_clone = false;  // recovery roll-forward is single-shot
  spec.crash_coordinator_at_step = boundary;
  chaos::ScenarioResult r = chaos::run_scenario(spec);
  ASSERT_TRUE(r.ok()) << r.failure << "\n  replay: " << spec.describe();
  EXPECT_TRUE(r.replaced || !r.abort_reason.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordinatorKillSweep,
                         ::testing::Range(0, 25 * kBoundaries));

// --- checkpoint-based module recovery ---------------------------------------

// A client that tags requests, ignores stale duplicate replies, and resends
// after a timeout: the at-most-once delivery a restored-from-checkpoint
// server needs to look exactly-once from the outside. Replies encode
// (total * 10 + k) so the client can match a reply to its request.
const char* kRetryClientSource = R"mc(
void main()
{
  int k;
  int reply;
  int got;
  int waited;
  k = 1;
  while (k <= 6) {
    mh_write("svc", "i", k);
    got = 0;
    waited = 0;
    while (got == 0) {
      if (mh_query_ifmsgs("svc") > 0) {
        mh_read("svc", "i", &reply);
        if (reply % 10 == k) { got = 1; }
      }
      if (got == 0) {
        sleep(1);
        waited = waited + 1;
        if (waited >= 60) {
          mh_write("svc", "i", k);
          waited = 0;
        }
      }
    }
    print("ack", k, reply / 10);
    sleep(1);
    k = k + 1;
  }
  print("client-done");
}
)mc";

// The counter server with a busy loop at the reconfiguration point, so a
// crash countdown lands mid-recursion rather than between requests.
const char* kSlowServerSource = R"mc(
int total = 0;
int spin = 0;

void bump(int k, int *out)
{
  if (k <= 0) { return; }
  bump(k - 1, out);
RP:
  spin = 0;
  while (spin < 40) { spin = spin + 1; }
  total = total + k;
  *out = total;
}

void main()
{
  int k;
  int result;
  while (1) {
    mh_read("req", "i", &k);
    bump(k, &result);
    mh_write("req", "i", result * 10 + k);
  }
}
)mc";

std::unique_ptr<Runtime> make_retry_counter() {
  auto rt = std::make_unique<Runtime>(7);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  rt->add_machine("mips", net::arch_mips());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  rt->load_application(config, "counter", [](const cfg::ModuleSpec& spec) {
    return std::string(spec.name == "client" ? kRetryClientSource
                                             : kSlowServerSource);
  });
  rt->bus().set_delivery(bus::DeliveryOptions{.reliable = true});
  return rt;
}

// ISSUE acceptance: a module crashed mid-recursion is auto-detected by
// heartbeat timeout and restored from its checkpoint on a *different*
// machine, with output identical to the fault-free run.
TEST(Supervisor, CrashedModuleRestoredFromCheckpointOnSpareMachine) {
  std::vector<std::string> golden;
  {
    auto rt = make_retry_counter();
    ASSERT_TRUE(rt->run_until(
        [&] { return rt->module_finished("client"); }, 6'000'000));
    golden = rt->machine_of("client")->output();
  }
  ASSERT_EQ(golden.size(), 7u);  // six acks + client-done

  auto rt = make_retry_counter();
  recover::Supervisor sup(*rt, rt->simulator().durable_store("sparc"));
  sup.watch("server", /*spare_machine=*/"mips");
  sup.start();
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      6'000'000));
  (void)sup.checkpoint_now("server");
  const std::string checkpointed = sup.current_instance("server");
  EXPECT_EQ(checkpointed, "server@2");
  EXPECT_TRUE(sup.has_checkpoint("server"));

  // Die mid-recursion of the first request the checkpoint does not cover.
  rt->crash_after(checkpointed, 200);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 8'000'000));
  sup.stop();

  EXPECT_EQ(rt->machine_of("client")->output(), golden);
  EXPECT_GE(sup.suspects_seen(), 1u);
  EXPECT_EQ(sup.restores(), 1u);
  const std::string heir = sup.current_instance("server");
  EXPECT_NE(heir, checkpointed);
  ASSERT_TRUE(rt->bus().has_module(heir));
  EXPECT_EQ(rt->bus().module_info(heir).machine, "mips");  // migrated
  EXPECT_FALSE(rt->bus().has_module(checkpointed));
  rt->check_faults();
}

// Periodic checkpoints are full production replacements: the instance name
// advances and the application's output is untouched.
TEST(Supervisor, PeriodicCheckpointsAreTransparent) {
  std::vector<std::string> golden;
  {
    auto rt = make_retry_counter();
    ASSERT_TRUE(rt->run_until(
        [&] { return rt->module_finished("client"); }, 6'000'000));
    golden = rt->machine_of("client")->output();
  }

  auto rt = make_retry_counter();
  recover::SupervisorOptions options;
  options.checkpoint_interval_us = 4'000'000;  // the app runs ~15 virtual s
  recover::Supervisor sup(*rt, rt->simulator().durable_store("sparc"),
                          options);
  sup.watch("server");
  sup.start();
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 8'000'000));
  sup.stop();
  EXPECT_EQ(rt->machine_of("client")->output(), golden);
  EXPECT_GE(sup.checkpoints_taken(), 1u);
  EXPECT_TRUE(sup.has_checkpoint("server"));
  EXPECT_NE(sup.current_instance("server"), "server");
  rt->check_faults();
}

// A started supervisor destroyed while its ticks (the detector's read, the
// sweep, the checkpoint tick) are pending: the runtime runs on, and each
// pending tick fires as a no-op (ASan pins it).
TEST(Supervisor, DestroyedThenTheRuntimeRunsOn) {
  auto rt = make_retry_counter();
  {
    recover::SupervisorOptions options;
    options.checkpoint_interval_us = 40'000;
    recover::Supervisor sup(*rt, rt->simulator().durable_store("sparc"),
                            options);
    sup.watch("server");
    sup.start();
    rt->run_for(30'000);
  }
  rt->run_for(100'000);
  rt->check_faults();
}

// A zero interval would reschedule its tick at the same virtual
// microsecond forever; the constructor names the option instead.
TEST(Supervisor, RejectsAZeroSweepOrHeartbeatInterval) {
  auto rt = make_counter();
  const std::size_t pending = rt->simulator().pending_events();
  for (const bool sweep : {true, false}) {
    recover::SupervisorOptions options;
    (sweep ? options.sweep_interval_us : options.heartbeat_interval_us) = 0;
    const char* option = sweep ? "SupervisorOptions::sweep_interval_us"
                               : "SupervisorOptions::heartbeat_interval_us";
    try {
      recover::Supervisor sup(*rt, rt->simulator().durable_store("sparc"),
                              options);
      ADD_FAILURE() << option << " = 0 was accepted";
    } catch (const support::BusError& e) {
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(rt->simulator().pending_events(), pending);
}

}  // namespace
}  // namespace surgeon
