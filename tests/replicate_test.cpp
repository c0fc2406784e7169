// surgeon::replicate -- consistent-hash placement, machine-level failure
// detection, the sharded KV workload, and self-healing group rebuild.
//
// The KillDuringRebuildSweep at the bottom is the 200-seed robustness
// gate: kill a machine mid-workload (and, at some seeds, a second machine
// while the first rebuild is in flight), then require the client ledger to
// hold -- no acknowledged write lost, no stale value resurfacing.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "net/arch.hpp"
#include "profile/telemetry.hpp"
#include "recover/detector.hpp"
#include "recover/supervisor.hpp"
#include "replicate/kv.hpp"
#include "replicate/manager.hpp"
#include "replicate/placement.hpp"
#include "replicate/rebuild.hpp"
#include "support/diag.hpp"

namespace surgeon {
namespace {

using recover::DetectorOptions;
using recover::FailureDetector;
using recover::MachineHealth;
using replicate::GroupManager;
using replicate::HashRing;
using replicate::KvOptions;
using replicate::KvService;
using replicate::ManagerOptions;
using replicate::RingOptions;

// --- placement ---------------------------------------------------------------

TEST(Placement, SameSeedSameRing) {
  RingOptions opts;
  opts.seed = 42;
  HashRing a(opts);
  HashRing b(opts);
  for (const char* m : {"m0", "m1", "m2", "m3"}) {
    a.add_machine(m);
    b.add_machine(m);
  }
  for (int g = 0; g < 64; ++g) {
    const std::string key = replicate::kv_group_key(g);
    EXPECT_EQ(a.place(key, 3), b.place(key, 3)) << key;
  }
}

TEST(Placement, DifferentSeedsDiffer) {
  HashRing a(RingOptions{64, 1});
  HashRing b(RingOptions{64, 2});
  for (const char* m : {"m0", "m1", "m2", "m3"}) {
    a.add_machine(m);
    b.add_machine(m);
  }
  int differing = 0;
  for (int g = 0; g < 64; ++g) {
    const std::string key = replicate::kv_group_key(g);
    if (a.place(key, 2) != b.place(key, 2)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(Placement, DistinctMachinesAndInsertionOrderIrrelevant) {
  HashRing fwd(RingOptions{64, 7});
  HashRing rev(RingOptions{64, 7});
  const std::vector<std::string> machines = {"m0", "m1", "m2", "m3", "m4"};
  for (const auto& m : machines) fwd.add_machine(m);
  for (auto it = machines.rbegin(); it != machines.rend(); ++it) {
    rev.add_machine(*it);
  }
  for (int g = 0; g < 32; ++g) {
    const std::string key = replicate::kv_group_key(g);
    const auto placed = fwd.place(key, 3);
    ASSERT_EQ(placed.size(), 3u);
    EXPECT_EQ(std::set<std::string>(placed.begin(), placed.end()).size(), 3u);
    EXPECT_EQ(placed, rev.place(key, 3));
  }
}

TEST(Placement, RemovalOnlyMovesAffectedGroups) {
  HashRing ring(RingOptions{64, 9});
  for (const char* m : {"m0", "m1", "m2", "m3"}) ring.add_machine(m);
  std::vector<std::vector<std::string>> before;
  for (int g = 0; g < 48; ++g) {
    before.push_back(ring.place(replicate::kv_group_key(g), 2));
  }
  ring.remove_machine("m2");
  for (int g = 0; g < 48; ++g) {
    const auto after = ring.place(replicate::kv_group_key(g), 2);
    const bool touched = std::find(before[g].begin(), before[g].end(),
                                   "m2") != before[g].end();
    if (!touched) {
      // Consistent hashing's whole point: unaffected groups do not move.
      EXPECT_EQ(after, before[g]) << replicate::kv_group_key(g);
    } else {
      EXPECT_EQ(std::find(after.begin(), after.end(), "m2"), after.end());
    }
  }
}

TEST(Placement, ShortRingReturnsWhatExists) {
  HashRing ring;
  EXPECT_TRUE(ring.place("k", 3).empty());
  ring.add_machine("only");
  EXPECT_EQ(ring.place("k", 3), std::vector<std::string>{"only"});
}

// --- failure detector: machine verdicts --------------------------------------

/// Feeds `det` one heartbeat tick at `at` in which exactly `live` (instance
/// -> host) is live. Each call is a new liveness generation, so the
/// detector walks the list.
void tick(FailureDetector& det, net::SimTime at,
          const std::map<std::string, std::string>& live) {
  static std::uint64_t generation = 0;
  std::vector<app::LiveProcess> list;
  for (const auto& [instance, host] : live) {
    list.push_back(app::LiveProcess{&instance, &host});
  }
  det.tick(at, ++generation, list);
}

TEST(MachineDetection, SuspectThenConfirmTransitions) {
  DetectorOptions opts;
  opts.suspicion_timeout_us = 50'000;
  opts.confirm_timeout_us = 120'000;
  FailureDetector det(opts);
  tick(det, 1'000, {{"a", "m0"}, {"b", "m0"}});
  tick(det, 2'000, {{"b", "m0"}});
  EXPECT_EQ(det.health("m0", 10'000), MachineHealth::kAlive);
  // Silence is measured from the machine's most recent beat across ALL its
  // modules: module a going quiet alone never suspects the machine.
  tick(det, 60'000, {{"b", "m0"}});
  EXPECT_EQ(det.health("m0", 100'000), MachineHealth::kAlive);
  EXPECT_EQ(det.health("m0", 60'000 + 50'001), MachineHealth::kSuspect);
  EXPECT_EQ(det.machines_in(MachineHealth::kSuspect, 60'000 + 50'001),
            std::vector<std::string>{"m0"});
  EXPECT_TRUE(det.machines_in(MachineHealth::kConfirmed, 60'000 + 50'001)
                  .empty());
  EXPECT_EQ(det.health("m0", 60'000 + 120'001), MachineHealth::kConfirmed);
  EXPECT_EQ(det.machines_in(MachineHealth::kConfirmed, 60'000 + 120'001),
            std::vector<std::string>{"m0"});
}

TEST(MachineDetection, UntrackedMachinesReadAlive) {
  FailureDetector det;
  EXPECT_EQ(det.health("ghost", 1'000'000), MachineHealth::kAlive);
  EXPECT_TRUE(det.machines_in(MachineHealth::kSuspect, 1'000'000).empty());
}

TEST(MachineDetection, MigrationReattributesTheModule) {
  FailureDetector det;
  tick(det, 1'000, {{"mod", "m0"}});
  tick(det, 2'000, {{"mod", "m1"}});
  // The old host lost its only voucher and is no longer tracked at all --
  // a stale beat must not keep a dead machine looking alive, and an empty
  // record must not make a healthy machine look silent.
  EXPECT_EQ(det.machine_names().size(), 1u);
  EXPECT_EQ(det.modules_on("m1"), std::vector<std::string>{"mod"});
  EXPECT_TRUE(det.modules_on("m0").empty());
}

TEST(MachineDetection, ForgettingTheMachineDropsItsModules) {
  FailureDetector det;
  tick(det, 1'000, {{"a", "m0"}, {"b", "m0"}, {"c", "m1"}});
  det.forget_machine("m0");
  EXPECT_EQ(det.machine_names().size(), 1u);
  EXPECT_EQ(det.machine_names(), std::vector<std::string>{"m1"});
  // a's beats start from scratch after the forget.
  tick(det, 500'000, {{"a", "m0"}});
  EXPECT_EQ(det.health("m0", 500'000), MachineHealth::kAlive);
}

// Each module record points at its machine's record. The three tests below
// pin the cases where that attribution could outlive the record it points
// at; CI runs them under ASan.

TEST(MachineDetection, BeatAfterForgetMachineRecreatesTheMachine) {
  FailureDetector det;
  tick(det, 1'000, {{"a", "m0"}});
  det.forget_machine("m0");
  EXPECT_EQ(det.machine_names().size(), 0u);
  EXPECT_FALSE(det.machine_last_beat("m0").has_value());
  tick(det, 7'000, {{"a", "m0"}});
  EXPECT_EQ(det.machine_last_beat("m0"), std::optional<net::SimTime>{7'000});
  EXPECT_EQ(det.modules_on("m0"), std::vector<std::string>{"a"});
  // Silence counts from the new beat, not the forgotten one.
  EXPECT_EQ(det.health("m0", 7'000 + 50'000), MachineHealth::kAlive);
  EXPECT_EQ(det.health("m0", 7'000 + 50'001), MachineHealth::kSuspect);
}

TEST(MachineDetection, ForgettingTheLastModuleThenBeatingAnotherOnIt) {
  FailureDetector det;
  tick(det, 1'000, {{"a", "m0"}, {"b", "m1"}});
  det.forget_module("a");  // m0's last module: the record goes with it
  EXPECT_EQ(det.machine_names(), std::vector<std::string>{"m1"});
  tick(det, 9'000, {{"c", "m0"}});
  EXPECT_EQ(det.machine_last_beat("m0"), std::optional<net::SimTime>{9'000});
  EXPECT_EQ(det.modules_on("m0"), std::vector<std::string>{"c"});
  // The forgotten module may come back; it joins the new record.
  tick(det, 10'000, {{"a", "m0"}});
  EXPECT_EQ(det.modules_on("m0"), (std::vector<std::string>{"a", "c"}));
  EXPECT_EQ(det.machine_last_beat("m0"), std::optional<net::SimTime>{10'000});
  EXPECT_EQ(det.beats_observed(), 4u);
}

TEST(MachineDetection, MigrationAfterTheOldMachineWasErased) {
  FailureDetector det;
  tick(det, 1'000, {{"a", "m0"}, {"b", "m0"}});
  det.forget_machine("m0");  // drops a's and b's attributions with it
  tick(det, 2'000, {{"a", "m1"}});
  EXPECT_EQ(det.machine_names(), std::vector<std::string>{"m1"});
  // a leaves m1, its only module, so the migration itself erases m1's
  // record; moving back must create a fresh one, not revive the old.
  tick(det, 3'000, {{"a", "m2"}});
  EXPECT_EQ(det.machine_names(), std::vector<std::string>{"m2"});
  tick(det, 4'000, {{"a", "m1"}});
  EXPECT_EQ(det.machine_names(), std::vector<std::string>{"m1"});
  EXPECT_EQ(det.machine_last_beat("m1"), std::optional<net::SimTime>{4'000});
  tick(det, 5'000, {{"b", "m1"}});
  EXPECT_EQ(det.modules_on("m1"), (std::vector<std::string>{"a", "b"}));
  det.forget_module("a");
  det.forget_module("b");
  EXPECT_EQ(det.machine_names().size(), 0u);
}

/// The detector's semantics one beat at a time: every listed process beats
/// alone, searching the maps. The randomized test below holds the
/// detector's whole-tick walk and fast path to it.
class ModelDetector {
 public:
  explicit ModelDetector(DetectorOptions options) : options_(options) {}

  void beat(const std::string& module, const std::string& machine,
            net::SimTime at) {
    ++beats_;
    auto host = host_of_.find(module);
    if (host == host_of_.end() || host->second != machine) {
      if (host != host_of_.end()) detach(host->second, module);
      host_of_[module] = machine;
      machines_[machine].modules.insert(module);
    }
    Rec& rec = machines_[machine];
    rec.last = std::max(rec.last, at);
    module_last_[module] = at;
  }
  void forget_module(const std::string& module) {
    auto host = host_of_.find(module);
    if (host == host_of_.end()) return;
    detach(host->second, module);
    host_of_.erase(host);
    module_last_.erase(module);
  }
  void forget_machine(const std::string& machine) {
    auto rec = machines_.find(machine);
    if (rec == machines_.end()) return;
    for (const std::string& module : rec->second.modules) {
      host_of_.erase(module);
      module_last_.erase(module);
    }
    machines_.erase(rec);
  }

  [[nodiscard]] MachineHealth health(const std::string& machine,
                                     net::SimTime now) const {
    auto rec = machines_.find(machine);
    if (rec == machines_.end() || now <= rec->second.last) {
      return MachineHealth::kAlive;
    }
    const net::SimTime silence = now - rec->second.last;
    if (silence > options_.confirm_timeout_us) return MachineHealth::kConfirmed;
    if (silence > options_.suspicion_timeout_us) return MachineHealth::kSuspect;
    return MachineHealth::kAlive;
  }
  [[nodiscard]] std::vector<std::string> machines_in(MachineHealth h,
                                                     net::SimTime now) const {
    std::vector<std::string> out;
    for (const auto& [machine, rec] : machines_) {
      if (health(machine, now) == h) out.push_back(machine);
    }
    return out;
  }
  [[nodiscard]] std::vector<std::string> modules_on(
      const std::string& machine) const {
    auto rec = machines_.find(machine);
    if (rec == machines_.end()) return {};
    return {rec->second.modules.begin(), rec->second.modules.end()};
  }
  [[nodiscard]] std::optional<net::SimTime> machine_last_beat(
      const std::string& machine) const {
    auto rec = machines_.find(machine);
    if (rec == machines_.end()) return std::nullopt;
    return rec->second.last;
  }
  [[nodiscard]] std::vector<std::string> machine_names() const {
    std::vector<std::string> out;
    for (const auto& [machine, rec] : machines_) out.push_back(machine);
    return out;
  }
  [[nodiscard]] std::vector<std::string> silent_modules(
      net::SimTime now) const {
    std::vector<std::string> out;
    for (const auto& [module, last] : module_last_) {
      if (now > last && now - last > options_.suspicion_timeout_us) {
        out.push_back(module);
      }
    }
    return out;
  }
  [[nodiscard]] std::optional<net::SimTime> module_last_beat(
      const std::string& module) const {
    auto last = module_last_.find(module);
    if (last == module_last_.end()) return std::nullopt;
    return last->second;
  }
  [[nodiscard]] std::size_t tracked_modules() const {
    return module_last_.size();
  }
  [[nodiscard]] std::uint64_t beats() const noexcept { return beats_; }

 private:
  struct Rec {
    net::SimTime last = 0;
    std::set<std::string> modules;
  };
  void detach(const std::string& machine, const std::string& module) {
    auto rec = machines_.find(machine);
    rec->second.modules.erase(module);
    if (rec->second.modules.empty()) machines_.erase(rec);
  }

  DetectorOptions options_;
  std::map<std::string, Rec> machines_;
  std::map<std::string, std::string> host_of_;
  std::map<std::string, net::SimTime> module_last_;
  std::uint64_t beats_ = 0;
};

void expect_same_detector(const FailureDetector& det,
                          const ModelDetector& model,
                          const std::vector<std::string>& machines,
                          const std::vector<std::string>& modules,
                          net::SimTime now, const std::string& where) {
  EXPECT_EQ(det.machine_names(), model.machine_names()) << where;
  EXPECT_EQ(det.tracked_modules(), model.tracked_modules()) << where;
  EXPECT_EQ(det.beats_observed(), model.beats()) << where;
  const net::SimTime suspect_at = now + det.options().suspicion_timeout_us + 1;
  const net::SimTime confirm_at = now + det.options().confirm_timeout_us + 1;
  for (const net::SimTime at : {now, suspect_at, confirm_at}) {
    for (const MachineHealth h :
         {MachineHealth::kSuspect, MachineHealth::kConfirmed}) {
      EXPECT_EQ(det.machines_in(h, at), model.machines_in(h, at))
          << where << " health " << static_cast<int>(h) << " at " << at;
    }
    EXPECT_EQ(det.silent_modules(at), model.silent_modules(at))
        << where << " at " << at;
    for (const std::string& m : machines) {
      EXPECT_EQ(det.health(m, at), model.health(m, at))
          << where << " " << m << " at " << at;
    }
  }
  for (const std::string& m : machines) {
    EXPECT_EQ(det.modules_on(m), model.modules_on(m)) << where << " " << m;
    EXPECT_EQ(det.machine_last_beat(m), model.machine_last_beat(m))
        << where << " " << m;
  }
  for (const std::string& m : modules) {
    EXPECT_EQ(det.module_last_beat(m), model.module_last_beat(m))
        << where << " " << m;
  }
}

// Whole runtime ticks against per-module beats. A process table in name
// order, as app::Runtime keeps it, starts, finishes, crashes and drops
// processes, each of which moves the liveness generation; a dropped name
// may start again on another host. The detector takes each tick whole,
// the model beats every listed process one by one. forget_module and
// forget_machine land between ticks, often on a module the last walk beat.
// Most ticks change nothing, so the fast path carries most of the run.
// Every machine and module query is compared after every tick.
TEST(MachineDetection, TickFastPathMatchesPerModuleBeats) {
  DetectorOptions opts;
  opts.suspicion_timeout_us = 30'000;
  opts.confirm_timeout_us = 60'000;
  FailureDetector det(opts);
  ModelDetector model(opts);
  std::mt19937_64 rng(21);
  std::vector<std::string> machines;
  for (int m = 0; m < 6; ++m) machines.push_back("h" + std::to_string(m));
  std::vector<std::string> names;
  for (int i = 0; i < 30; ++i) names.push_back("p" + std::to_string(i));
  struct Process {
    std::string host;
    bool live = true;
  };
  std::map<std::string, Process> table;
  std::uint64_t generation = 0;
  const auto any_machine = [&] { return machines[rng() % machines.size()]; };
  const auto any_name = [&] { return names[rng() % names.size()]; };
  for (int i = 0; i < 20; ++i) {
    table.try_emplace(any_name(), Process{any_machine()});
  }
  ++generation;

  int quiet_ticks = 0;  // same generation as the last tick, no forget
  std::uint64_t ticked_generation = 0;
  net::SimTime now = 0;
  for (int tick = 0; tick < 600 && !HasFailure(); ++tick) {
    now += 5'000;
    bool quiet = true;
    const auto roll = rng() % 100;
    if (roll < 6) {  // a process starts, perhaps a returning name
      if (table.try_emplace(any_name(), Process{any_machine()}).second) {
        ++generation;
      }
    } else if (roll < 12) {  // a process finishes or crashes
      auto it = table.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % table.size()));
      if (it->second.live) {
        it->second.live = false;
        ++generation;
      }
    } else if (roll < 16) {  // a process is dropped, live or not
      if (table.erase(any_name()) != 0) ++generation;
    } else if (roll < 21) {
      const std::string module = any_name();
      det.forget_module(module);
      model.forget_module(module);
      quiet = false;
    } else if (roll < 24) {
      const std::string machine = any_machine();
      det.forget_machine(machine);
      model.forget_machine(machine);
      quiet = false;
    }
    if (table.empty()) {
      table.try_emplace(any_name(), Process{any_machine()});
      ++generation;
    }
    std::vector<app::LiveProcess> live;
    for (const auto& [name, process] : table) {
      if (process.live) live.push_back(app::LiveProcess{&name, &process.host});
    }
    if (quiet && generation == ticked_generation) ++quiet_ticks;
    ticked_generation = generation;

    det.tick(now, generation, live);
    for (const app::LiveProcess& process : live) {
      model.beat(*process.instance, *process.host, now);
    }
    expect_same_detector(det, model, machines, names, now,
                         "tick " + std::to_string(tick));
  }
  EXPECT_GT(quiet_ticks, 300);
  EXPECT_GT(det.beats_observed(), 3'000u);
}

// --- KV workload -------------------------------------------------------------

struct KvFixture {
  app::Runtime rt;
  KvOptions options;

  explicit KvFixture(std::uint64_t seed, std::size_t shards,
                     std::size_t group_size,
                     std::vector<std::string> machines,
                     std::vector<std::string> spares = {}) {
    options.seed = seed;
    options.shards = shards;
    options.group_size = group_size;
    options.machines = std::move(machines);
    for (const auto& m : options.machines) {
      rt.add_machine(m, net::arch_vax());
    }
    for (const auto& m : spares) rt.add_machine(m, net::arch_vax());
    rt.add_machine(options.control_machine, net::arch_vax());
  }
};

ManagerOptions fast_manager_options() {
  ManagerOptions m;
  m.heartbeat_interval_us = 5'000;
  m.sweep_interval_us = 20'000;
  m.detector.suspicion_timeout_us = 30'000;
  m.detector.confirm_timeout_us = 60'000;
  return m;
}

/// Every group currently has `group_size` members, all running, on
/// distinct live machines, none on `forbidden`.
void expect_redundant(KvService& service, const std::string& forbidden) {
  app::Runtime& rt = service.runtime();
  for (std::size_t g = 0; g < service.options().shards; ++g) {
    const auto members = service.router().members(g);
    ASSERT_EQ(members.size(), service.options().group_size)
        << "group " << g;
    std::set<std::string> hosts;
    for (const auto& m : members) {
      EXPECT_TRUE(rt.module_running(m)) << m;
      const std::string host = rt.bus().module_info(m).machine;
      EXPECT_NE(host, forbidden) << m;
      hosts.insert(host);
    }
    EXPECT_EQ(hosts.size(), members.size()) << "group " << g;
  }
}

TEST(Kv, FaultFreeRunAcksEverythingConsistently) {
  KvFixture f(11, 3, 2, {"m0", "m1", "m2"});
  KvService service(f.rt, f.options);
  service.launch(30);
  ASSERT_TRUE(service.run_to_completion(10'000'000, 50'000'000));
  const auto& client = service.client();
  EXPECT_TRUE(client.ledger_violations().empty());
  EXPECT_EQ(service.router().stats().stale_gets, 0u);
  // Read-back equals the ledger for every written key; unwritten keys are 0.
  for (const auto& [key, value] : client.readback()) {
    const auto it = client.acked_writes().find(key);
    EXPECT_EQ(value, it == client.acked_writes().end() ? 0 : it->second)
        << "key " << key;
  }
  EXPECT_EQ(client.readback().size(),
            f.options.shards * replicate::kSlotsPerShard);
}

TEST(Kv, ReportIsDeterministicAcrossRuns) {
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    KvFixture f(7, 2, 2, {"m0", "m1"});
    KvService service(f.rt, f.options);
    service.launch(20);
    ASSERT_TRUE(service.run_to_completion(10'000'000, 50'000'000));
    const auto report = service.client().report();
    if (run == 0) {
      first = report;
    } else {
      EXPECT_EQ(report, first);
    }
  }
}

TEST(Kv, PlacementUsesRingAndDistinctMachines) {
  KvFixture f(3, 6, 3, {"m0", "m1", "m2", "m3"});
  KvService service(f.rt, f.options);
  HashRing expected(RingOptions{f.options.vnodes, f.options.seed});
  for (const auto& m : f.options.machines) expected.add_machine(m);
  for (std::size_t g = 0; g < 6; ++g) {
    EXPECT_EQ(service.placements()[g],
              expected.place(replicate::kv_group_key(g), 3));
  }
}

// --- router ticks ------------------------------------------------------------

/// A native module bound to the router's `cli` interface, submitting
/// operations by hand once the service's own client has finished.
class CliProbe {
 public:
  CliProbe(app::Runtime& rt, KvService& service) : rt_(&rt) {
    bus::ModuleInfo info;
    info.name = kName;
    info.machine = service.options().control_machine;
    info.interfaces.push_back(
        bus::InterfaceSpec{"req", bus::IfaceRole::kClient, "iiii", "iiii"});
    rt.bus().add_module(std::move(info));
    rt.bus().add_binding({kName, "req"},
                         {service.router().module_name(), "cli"});
  }
  void send(std::int64_t op, std::int64_t seq, std::int64_t key,
            std::int64_t value) {
    rt_->bus().send(kName, "req",
                    {ser::Value{op}, ser::Value{seq}, ser::Value{key},
                     ser::Value{value}});
  }
  /// Runs until the router acks; returns the acked value.
  std::int64_t await_ack() {
    EXPECT_TRUE(rt_->run_until(
        [&] { return rt_->bus().has_message(kName, "req"); }, 50'000'000));
    const auto ack = rt_->bus().receive(kName, "req");
    return ack.has_value() ? ack->values[3].as_int() : -1;
  }

 private:
  static constexpr const char* kName = "cli-probe";
  app::Runtime* rt_;
};

// A tick visits only groups with an operation in flight or waiting, so mail
// landing at an idle group must still go on the next tick, as a full poll
// would take it: the router's queued count exceeds the active groups'.
TEST(KvRouterTick, IdleMailIsDrainedOnTheNextTick) {
  KvFixture f(11, 3, 2, {"m0", "m1", "m2"});
  KvService service(f.rt, f.options);
  service.launch(12);
  ASSERT_TRUE(service.run_to_completion(10'000'000, 50'000'000));
  replicate::KvRouter& router = service.router();
  bus::Bus& bus = f.rt.bus();
  ASSERT_EQ(router.pending_ops(), 0u);  // every group idle
  const std::string port = replicate::KvRouter::group_iface(1);
  const auto late_before = router.stats().late_replies;

  // Two deliveries into the members, two echoes back into group 1's port.
  const auto delivered = bus.stats().messages_delivered;
  router.nudge(1);
  ASSERT_TRUE(f.rt.run_until(
      [&] { return bus.stats().messages_delivered >= delivered + 4; },
      50'000'000));
  EXPECT_GT(bus.queue_depth(router.module_name(), port), 0u);
  f.rt.run_for(f.options.tick_us, 50'000'000);
  EXPECT_EQ(bus.queue_depth(router.module_name(), port), 0u);
  EXPECT_EQ(bus.queued_messages(router.module_name()), 0u);
  EXPECT_EQ(router.stats().late_replies, late_before);  // echoes: seq 0

  // The next operations on that group ack normally.
  CliProbe probe(f.rt, service);
  const auto puts = router.stats().acked_puts;
  probe.send(1, 9'001, 1, 4'242);  // key 1 lives in group 1
  EXPECT_EQ(probe.await_ack(), 4'242);
  probe.send(2, 9'002, 1, 0);
  EXPECT_EQ(probe.await_ack(), 4'242);
  EXPECT_EQ(router.stats().acked_puts, puts + 1);
  EXPECT_EQ(router.stats().stale_gets, 0u);
  EXPECT_EQ(router.pending_ops(), 0u);
}

// Completion reads the group's peers in bind-table order, not sorted by
// name; the GET fold must not care. A native member that answers a GET
// with its own value makes the members disagree: one stale GET, acked
// with the largest reply, whether the liar sorts before or after the real
// members and whether its value is above or below theirs.
TEST(KvRouterTick, StaleGetCountsOnceAndAcksTheLargestReply) {
  for (const char* liar : {"a-liar", "z-liar"}) {
    for (const std::int64_t lie : {std::int64_t{100}, std::int64_t{900}}) {
      const std::string tag = std::string(liar) + " says " +
                              std::to_string(lie);
      KvFixture f(11, 3, 2, {"m0", "m1", "m2"});
      KvService service(f.rt, f.options);
      service.launch(12);
      ASSERT_TRUE(service.run_to_completion(10'000'000, 50'000'000)) << tag;
      replicate::KvRouter& router = service.router();
      bus::Bus& bus = f.rt.bus();
      CliProbe probe(f.rt, service);
      probe.send(1, 9'001, 1, 500);
      ASSERT_EQ(probe.await_ack(), 500) << tag;
      ASSERT_EQ(router.stats().stale_gets, 0u) << tag;

      bus::ModuleInfo info;
      info.name = liar;
      info.machine = f.options.control_machine;
      info.interfaces.push_back(
          bus::InterfaceSpec{"req", bus::IfaceRole::kServer, "iiii", "iiii"});
      bus.add_module(std::move(info));
      bus.add_binding({liar, "req"},
                      {router.module_name(),
                       replicate::KvRouter::group_iface(1)});
      const auto gets = router.stats().acked_gets;
      probe.send(2, 9'002, 1, 0);
      ASSERT_TRUE(f.rt.run_until([&] { return bus.has_message(liar, "req"); },
                                 50'000'000))
          << tag;
      const auto get = bus.receive(liar, "req");
      ASSERT_TRUE(get.has_value()) << tag;
      bus.send(liar, "req",
               {get->values[0], get->values[1], get->values[2],
                ser::Value{lie}});
      EXPECT_EQ(probe.await_ack(), std::max<std::int64_t>(500, lie)) << tag;
      EXPECT_EQ(router.stats().stale_gets, 1u) << tag;
      EXPECT_EQ(router.stats().acked_gets, gets + 1) << tag;
    }
  }
}

// --- rebuild -----------------------------------------------------------------

TEST(Rebuild, MachineLossHealsOntoSpareWhileServing) {
  KvFixture f(21, 4, 2, {"m0", "m1", "m2"}, {"sp0"});
  KvService service(f.rt, f.options);
  service.launch(60);
  ManagerOptions mopts = fast_manager_options();
  mopts.spares = {"sp0"};
  GroupManager manager(service, mopts);
  manager.start();

  // Let some traffic through, then lose a machine under load.
  (void)f.rt.run_for(30'000, 50'000'000);
  const auto killed = f.rt.crash_machine("m0");
  EXPECT_FALSE(killed.empty());

  ASSERT_TRUE(service.run_to_completion(30'000'000, 200'000'000));
  manager.stop();
  EXPECT_TRUE(service.client().ledger_violations().empty())
      << service.client().ledger_violations().front();
  EXPECT_EQ(service.router().stats().stale_gets, 0u);
  EXPECT_GE(manager.stats().machines_rebuilt, 1u);
  EXPECT_EQ(manager.stats().data_loss_groups, 0u);
  expect_redundant(service, "m0");
}

TEST(Rebuild, DirectDriveWithoutHeartbeats) {
  KvFixture f(5, 3, 2, {"m0", "m1", "m2"}, {"sp0"});
  KvService service(f.rt, f.options);
  service.launch(200);  // long script: still mid-run at the kill
  ManagerOptions mopts;
  mopts.spares = {"sp0"};
  GroupManager manager(service, mopts);

  (void)f.rt.run_for(20'000, 50'000'000);
  (void)f.rt.crash_machine("m1");
  EXPECT_TRUE(manager.rebuild_machine("m1"));
  expect_redundant(service, "m1");
  // Rebuilt groups keep serving: run a bit more and require progress.
  const auto acked_before = service.client().stats().acked;
  (void)f.rt.run_for(50'000, 50'000'000);
  EXPECT_GT(service.client().stats().acked, acked_before);
  EXPECT_TRUE(service.client().ledger_violations().empty());
}

TEST(Rebuild, RebalanceAfterJoinRespectsPlacement) {
  KvFixture f(13, 6, 2, {"m0", "m1"}, {"m2"});
  KvService service(f.rt, f.options);
  service.launch(10);
  ASSERT_TRUE(service.run_to_completion(10'000'000, 50'000'000));

  ManagerOptions mopts;
  GroupManager manager(service, mopts);
  const std::size_t moves = manager.rebalance("m2");
  // With two machines hosting all six 2-groups, a third machine must take
  // over some placements.
  EXPECT_GT(moves, 0u);
  for (std::size_t g = 0; g < 6; ++g) {
    const auto placement = service.ring().place(replicate::kv_group_key(g), 2);
    std::set<std::string> hosts;
    for (const auto& m : service.router().members(g)) {
      const std::string host = f.rt.bus().module_info(m).machine;
      EXPECT_NE(std::find(placement.begin(), placement.end(), host),
                placement.end())
          << "group " << g << " member " << m << " on " << host;
      hosts.insert(host);
    }
    EXPECT_EQ(hosts.size(), 2u) << "group " << g;
  }
}

// The operator-facing view: GroupManager publishes surgeon_replica_role
// gauges, the telemetry plane streams them to the collector, and mh_top's
// table renders a ROLE column naming each member primary or follower.
TEST(Rebuild, MhTopTableShowsReplicaRoles) {
  KvFixture f(17, 2, 2, {"m0", "m1", "m2"});
  f.rt.enable_metrics();
  KvService service(f.rt, f.options);
  service.launch(30);
  GroupManager manager(service, fast_manager_options());
  manager.start();

  auto collector = std::make_unique<profile::Collector>(
      f.rt.bus(), "collector", f.options.control_machine);
  std::vector<std::unique_ptr<profile::Reporter>> reporters;
  for (const auto& m : f.options.machines) {
    reporters.push_back(std::make_unique<profile::Reporter>(
        f.rt.bus(), f.rt.metrics(), m, "collector"));
  }

  ASSERT_TRUE(service.run_to_completion(10'000'000, 50'000'000));
  (void)f.rt.run_for(500'000, 50'000'000);  // reporter flush intervals
  manager.stop();

  EXPECT_GT(collector->deltas_applied(), 0u);
  const std::string table = collector->top("table");
  EXPECT_NE(table.find("ROLE"), std::string::npos);
  EXPECT_NE(table.find("primary"), std::string::npos);
  EXPECT_NE(table.find("follower"), std::string::npos);
  // Non-replicated series render "-", never a bogus role.
  EXPECT_NE(table.find("-"), std::string::npos);
}

// --- watchers on one runtime --------------------------------------------------

/// The fleet the watcher tests run: 4 two-member groups on m0..m2, with
/// sp0 spare, and the manager watching 5 ms heartbeats.
struct WatchedFleet {
  KvFixture f{21, 4, 2, {"m0", "m1", "m2"}, {"sp0"}};
  KvService service{f.rt, f.options};
  ManagerOptions mopts = [] {
    ManagerOptions m = fast_manager_options();
    m.spares = {"sp0"};
    return m;
  }();

  WatchedFleet() { service.launch(60); }
  net::DurableStore& disk() {
    return f.rt.simulator().durable_store(f.options.control_machine);
  }
};

// Each watcher's detector reads the runtime's liveness on its own ticker,
// so a Supervisor started 20 ms after a GroupManager silences nothing: the
// manager counts exactly the beats it counts alone, no healthy machine is
// rebuilt, the ring keeps its machines, and stopping either watcher leaves
// the other beating.
TEST(Watchers, TwoOnOneRuntimeEachKeepTheirOwnBeats) {
  std::uint64_t alone = 0;
  {
    WatchedFleet solo;
    GroupManager manager(solo.service, solo.mopts);
    manager.start();
    solo.f.rt.run_for(20'000, 50'000'000);
    solo.f.rt.run_for(280'000, 50'000'000);
    alone = manager.detector().beats_observed();
  }
  ASSERT_GT(alone, 0u);

  WatchedFleet fleet;
  app::Runtime& rt = fleet.f.rt;
  GroupManager manager(fleet.service, fleet.mopts);
  manager.start();
  rt.run_for(20'000, 50'000'000);
  recover::Supervisor supervisor(rt, fleet.disk());
  supervisor.start();
  rt.run_for(280'000, 50'000'000);
  EXPECT_EQ(manager.stats().machines_rebuilt, 0u);
  EXPECT_EQ(manager.stats().groups_rebuilt, 0u);
  EXPECT_EQ(manager.stats().data_loss_groups, 0u);
  EXPECT_EQ(fleet.service.ring().machines(),
            (std::vector<std::string>{"m0", "m1", "m2"}));
  EXPECT_EQ(manager.detector().beats_observed(), alone);
  EXPECT_GT(supervisor.detector().beats_observed(), 0u);

  const auto beats = [&] {
    return std::pair{manager.detector().beats_observed(),
                     supervisor.detector().beats_observed()};
  };
  supervisor.stop();
  auto before = beats();
  rt.run_for(50'000, 50'000'000);
  EXPECT_GT(beats().first, before.first);
  EXPECT_EQ(beats().second, before.second);

  supervisor.start();
  manager.stop();
  before = beats();
  rt.run_for(50'000, 50'000'000);
  EXPECT_EQ(beats().first, before.first);
  EXPECT_GT(beats().second, before.second);
  EXPECT_EQ(manager.stats().machines_rebuilt, 0u);
}

// A started manager destroyed while its ticks are pending: the runtime
// runs on, and each pending tick fires as a no-op (ASan pins it).
TEST(Watchers, ManagerDestroyedThenTheRuntimeRunsOn) {
  WatchedFleet fleet;
  {
    GroupManager manager(fleet.service, fleet.mopts);
    manager.start();
    fleet.f.rt.run_for(30'000, 50'000'000);
  }
  const net::SimTime destroyed_at = fleet.f.rt.now();
  fleet.f.rt.run_for(100'000, 50'000'000);
  EXPECT_GE(fleet.f.rt.now(), destroyed_at + 100'000);
}

// A zero interval would reschedule its tick at the same virtual
// microsecond forever; the constructor names the option instead.
TEST(Watchers, ManagerRejectsAZeroSweepOrHeartbeatInterval) {
  WatchedFleet fleet;
  const std::size_t pending = fleet.f.rt.simulator().pending_events();
  for (const bool sweep : {true, false}) {
    ManagerOptions mopts = fleet.mopts;
    (sweep ? mopts.sweep_interval_us : mopts.heartbeat_interval_us) = 0;
    const char* option = sweep ? "ManagerOptions::sweep_interval_us"
                               : "ManagerOptions::heartbeat_interval_us";
    try {
      GroupManager manager(fleet.service, mopts);
      ADD_FAILURE() << option << " = 0 was accepted";
    } catch (const support::BusError& e) {
      EXPECT_NE(std::string(e.what()).find(option), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(fleet.f.rt.simulator().pending_events(), pending);
}

// --- the 200-seed kill-during-rebuild sweep ---------------------------------

TEST(KillDuringRebuildSweep, LedgerHoldsAcrossTwoHundredSeeds) {
  int double_kills = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    KvFixture f(seed, 3, 3, {"m0", "m1", "m2", "m3"}, {"sp0", "sp1"});
    KvService service(f.rt, f.options);
    service.launch(24);
    ManagerOptions mopts = fast_manager_options();
    mopts.spares = {"sp0", "sp1"};
    GroupManager manager(service, mopts);
    manager.start();

    // First kill lands mid-workload at a seed-dependent time; at every
    // third seed a second machine dies while the first rebuild is likely
    // in flight (group_size 3 tolerates two overlapping losses).
    const net::SimTime first_kill = 10'000 + (seed % 7) * 5'000;
    (void)f.rt.run_for(first_kill, 50'000'000);
    const std::string victim = "m" + std::to_string(seed % 4);
    (void)f.rt.crash_machine(victim);
    std::string second;
    if (seed % 3 == 0) {
      const net::SimTime gap = 40'000 + (seed % 5) * 20'000;
      (void)f.rt.run_for(gap, 50'000'000);
      second = "m" + std::to_string((seed + 1 + seed / 4) % 4);
      if (second != victim && !f.rt.machine_dead(second)) {
        (void)f.rt.crash_machine(second);
        ++double_kills;
      }
    }
    const bool done = service.run_to_completion(60'000'000, 400'000'000);
    manager.stop();
    const std::string tag = "seed=" + std::to_string(seed) + " victim=" +
                            victim +
                            (second.empty() ? "" : " second=" + second);
    ASSERT_TRUE(done) << tag << ": client never finished";
    ASSERT_TRUE(service.client().ledger_violations().empty())
        << tag << ": " << service.client().ledger_violations().front();
    ASSERT_EQ(service.router().stats().stale_gets, 0u) << tag;
    ASSERT_EQ(manager.stats().data_loss_groups, 0u) << tag;
  }
  EXPECT_GT(double_kills, 30);
}

}  // namespace
}  // namespace surgeon
