// What machine loss costs a replica-group deployment (surgeon::replicate),
// and how the control plane's host cost grows with the fleet.
//
// BM_RebuildUnderLoad -- the sharded KV workload with a GroupManager
// watching, one ring machine crashed mid-run, per group size:
//   virtual_restore_us  -- virtual time from the crash to full redundancy
//                          (detection: heartbeat silence -> suspect ->
//                          confirmed, then the pull rebuild onto the spare),
//   p99_before_us / p99_during_us / p99_after_us -- served operation p99
//                          latency in the windows before the crash, between
//                          crash and restored redundancy, and after --
//                          the "keeps serving while healing" evidence.
// Wall time per iteration is the full simulated run; items processed are
// acknowledged KV operations.
//
// The three fleet benchmarks grow one fleet: 3-member groups on 8 vax
// machines, reliable delivery, for 16, 64 and 256 shards (48 to 768 MiniC
// modules). Each reports manual time over its timed region only, so the
// rest of setup and teardown is excluded, and a per-unit counter whose
// growth from 16 to 256 shards is the scaling evidence.
//
// BM_KvLaunch -- KvService::launch alone: load_application of the kv
// config (one compile of the shard module, shared by every member), the
// member installs and starts, and the router and client bindings. Reports
// us_per_member; launch does a fixed amount of work per member, so the
// counter stays flat as the fleet grows.
//
// BM_KvSteadyFleet -- steady-state serving with a GroupManager whose
// detector reads the runtime's liveness every 5 ms. After 200 warm-up
// operations the timed region serves the next 1,000 acknowledged ones
// (host_us_per_op). No process starts or stops in the timed region, so the
// liveness generation never moves and every heartbeat tick takes the
// detector's fast path: it moves one stamp and counts the beats, at every
// fleet size. A router tick visits only the groups with an operation in
// flight or waiting, so it costs the work it finds, and everything else is
// paid per operation. What still separates 256 shards from 16 is the
// working set the same work touches (more processes, peer lists and
// streams), not a loop over the fleet.
//
// BM_KvRebuildFleet -- one machine loss, healed: once the client has
// finished its 200 operations m0 is crashed, and the GroupManager rebuilds
// every group that had a member there onto a sparc spare. As in perfbench's
// kv_machine_loss, the timed region is the scheduler steps during which a
// group was rebuilt, and us_per_group divides it by the groups rebuilt
// (groups_per_loss: about 3/8 of the shards). A rebuild edits only the bindings of the members it
// replaces, so the per-group cost grows far slower than the fleet; what
// still grows is the divulge wait's heartbeats and remove_module's scans
// of the bus's reliable-stream and control tables.
//
// BM_RingPlace -- the raw consistent-hash placement probe, the per-group
// price every rebuild and rebalance decision pays.
//
// `bench_rebuild_json` writes the committed BENCH_rebuild.json (release
// preset, 5 repetitions, every row in a process of its own, so a row's
// cost does not depend on the fleets the rows before it built).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "net/arch.hpp"
#include "replicate/kv.hpp"
#include "replicate/manager.hpp"
#include "replicate/placement.hpp"

namespace {

using namespace surgeon;

constexpr std::uint64_t kRounds = 400'000'000;
constexpr net::SimTime kBudgetUs = 60'000'000;
constexpr net::SimTime kCrashAtUs = 30'000;
constexpr int kWorkItems = 300;

/// The manager cadence both KV benchmarks run: 5 ms heartbeats, 20 ms
/// sweeps, a machine suspect after 30 ms of silence and confirmed at 60.
replicate::ManagerOptions bench_manager_options() {
  replicate::ManagerOptions mopts;
  mopts.heartbeat_interval_us = 5'000;
  mopts.sweep_interval_us = 20'000;
  mopts.detector.suspicion_timeout_us = 30'000;
  mopts.detector.confirm_timeout_us = 60'000;
  return mopts;
}

/// The fleet the scaling benchmarks grow: `shards` three-member groups on
/// m0..m7.
replicate::KvOptions fleet_options(std::size_t shards) {
  replicate::KvOptions options;
  options.seed = 1;
  options.shards = shards;
  options.group_size = 3;
  options.machines.clear();
  for (int m = 0; m < 8; ++m) {
    options.machines.push_back("m" + std::to_string(m));
  }
  return options;
}

/// The fleet's machines (vax) and the control machine, with reliable
/// delivery on.
void add_fleet_machines(app::Runtime& rt, const replicate::KvOptions& options) {
  for (const auto& m : options.machines) rt.add_machine(m, net::arch_vax());
  rt.add_machine(options.control_machine, net::arch_vax());
  rt.bus().set_delivery(bus::DeliveryOptions{.reliable = true});
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

net::SimTime p99(std::vector<net::SimTime> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[(99 * (samples.size() - 1)) / 100];
}

void BM_RebuildUnderLoad(benchmark::State& state) {
  const auto group_size = static_cast<std::size_t>(state.range(0));
  net::SimTime restore_us = 0;
  net::SimTime before_p99 = 0, during_p99 = 0, after_p99 = 0;
  std::uint64_t samples = 0;
  std::uint64_t acked = 0;
  for (auto _ : state) {
    state.PauseTiming();  // exclude topology construction + MiniC compile
    replicate::KvOptions options;
    options.seed = 1;
    options.shards = 4;
    options.group_size = group_size;
    options.machines.clear();
    for (std::size_t m = 0; m < group_size + 2; ++m) {
      options.machines.push_back("m" + std::to_string(m));
    }
    app::Runtime rt(1);
    for (const auto& m : options.machines) rt.add_machine(m, net::arch_vax());
    rt.add_machine("sp0", net::arch_vax());
    rt.add_machine(options.control_machine, net::arch_vax());
    replicate::KvService service(rt, options);
    service.launch(kWorkItems);
    replicate::ManagerOptions mopts = bench_manager_options();
    mopts.spares = {"sp0"};
    replicate::GroupManager manager(service, mopts);
    manager.start();
    state.ResumeTiming();

    (void)rt.run_for(kCrashAtUs, kRounds);
    const net::SimTime crashed_at = rt.now();
    (void)rt.crash_machine("m0");
    const bool restored = rt.run_until(
        [&] { return manager.stats().machines_rebuilt >= 1; }, kRounds);
    if (!restored) state.SkipWithError("redundancy never restored");
    const net::SimTime restored_at = rt.now();
    const bool done = service.run_to_completion(kBudgetUs, kRounds);
    if (!done) state.SkipWithError("client never finished");

    state.PauseTiming();
    manager.stop();
    restore_us += restored_at - crashed_at;
    ++samples;
    acked += service.client().stats().acked;
    std::vector<net::SimTime> before, during, after;
    for (const replicate::KvLatencySample& s : service.router().latencies()) {
      if (s.completed_at < crashed_at) {
        before.push_back(s.latency_us);
      } else if (s.completed_at < restored_at) {
        during.push_back(s.latency_us);
      } else {
        after.push_back(s.latency_us);
      }
    }
    before_p99 = p99(std::move(before));
    during_p99 = p99(std::move(during));
    after_p99 = p99(std::move(after));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(acked));
  if (samples != 0) {
    state.counters["virtual_restore_us"] =
        static_cast<double>(restore_us) / static_cast<double>(samples);
  }
  state.counters["p99_before_us"] = static_cast<double>(before_p99);
  state.counters["p99_during_us"] = static_cast<double>(during_p99);
  state.counters["p99_after_us"] = static_cast<double>(after_p99);
}
BENCHMARK(BM_RebuildUnderLoad)->Arg(2)->Arg(3)->ArgNames({"group_size"})
    ->Unit(benchmark::kMillisecond);

void BM_KvLaunch(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  double launch_us = 0;
  std::uint64_t members = 0;
  for (auto _ : state) {
    const replicate::KvOptions options = fleet_options(shards);
    app::Runtime rt(1);
    add_fleet_machines(rt, options);
    replicate::KvService service(rt, options);
    const auto t0 = std::chrono::steady_clock::now();
    service.launch(kWorkItems);
    const double elapsed = seconds_since(t0);
    benchmark::DoNotOptimize(rt.bus().module_topology_generation());
    state.SetIterationTime(elapsed);
    launch_us += elapsed * 1e6;
    members += shards * options.group_size;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(members));
  if (members != 0) {
    state.counters["us_per_member"] =
        launch_us / static_cast<double>(members);
  }
}
BENCHMARK(BM_KvLaunch)->Arg(16)->Arg(64)->Arg(256)->ArgNames({"shards"})
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_KvSteadyFleet(benchmark::State& state) {
  constexpr int kWarmupOps = 200;
  constexpr int kTimedOps = 1'000;
  const auto shards = static_cast<std::size_t>(state.range(0));
  double timed_us = 0;
  std::uint64_t timed_ops = 0;
  for (auto _ : state) {
    const replicate::KvOptions options = fleet_options(shards);
    app::Runtime rt(1);
    add_fleet_machines(rt, options);
    replicate::KvService service(rt, options);
    service.launch(kWarmupOps + kTimedOps);
    replicate::GroupManager manager(service, bench_manager_options());
    manager.start();
    const replicate::KvClientStats& client = service.client().stats();
    if (!rt.run_until([&] { return client.acked >= kWarmupOps; }, kRounds)) {
      state.SkipWithError("warm-up never finished");
      break;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const bool served = rt.run_until(
        [&] { return client.acked >= kWarmupOps + kTimedOps; }, kRounds);
    const auto t1 = std::chrono::steady_clock::now();
    if (!served) {
      state.SkipWithError("timed operations never finished");
      break;
    }
    benchmark::DoNotOptimize(client.acked);
    const std::chrono::duration<double> elapsed = t1 - t0;
    state.SetIterationTime(elapsed.count());
    timed_us += elapsed.count() * 1e6;
    timed_ops += kTimedOps;
    manager.stop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(timed_ops));
  if (timed_ops != 0) {
    state.counters["host_us_per_op"] =
        timed_us / static_cast<double>(timed_ops);
  }
}
BENCHMARK(BM_KvSteadyFleet)->Arg(16)->Arg(64)->Arg(256)->ArgNames({"shards"})
    ->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_KvRebuildFleet(benchmark::State& state) {
  constexpr int kOps = 200;
  const auto shards = static_cast<std::size_t>(state.range(0));
  double rebuild_us = 0;
  std::uint64_t groups = 0;
  std::uint64_t losses = 0;
  for (auto _ : state) {
    const replicate::KvOptions options = fleet_options(shards);
    app::Runtime rt(1);
    add_fleet_machines(rt, options);
    rt.add_machine("sp0", net::arch_sparc());
    replicate::KvService service(rt, options);
    service.launch(kOps);
    replicate::ManagerOptions mopts = bench_manager_options();
    mopts.spares = {"sp0"};
    replicate::GroupManager manager(service, mopts);
    manager.start();
    if (!rt.run_until([&] { return service.client().done(); }, kRounds)) {
      state.SkipWithError("client never finished");
      break;
    }
    (void)rt.crash_machine("m0");
    const replicate::ManagerStats& ms = manager.stats();
    const net::SimTime deadline = rt.now() + kBudgetUs;
    double rebuild_s = 0;
    while (ms.machines_rebuilt == 0 && rt.now() < deadline) {
      const std::uint64_t before = ms.groups_rebuilt;
      const auto t0 = std::chrono::steady_clock::now();
      if (!rt.step()) break;
      const double elapsed = seconds_since(t0);
      if (ms.groups_rebuilt != before) rebuild_s += elapsed;
    }
    if (ms.machines_rebuilt == 0) {
      state.SkipWithError("redundancy never restored");
      break;
    }
    benchmark::DoNotOptimize(ms.groups_rebuilt);
    state.SetIterationTime(rebuild_s);
    rebuild_us += rebuild_s * 1e6;
    groups += ms.groups_rebuilt;
    ++losses;
    manager.stop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(groups));
  if (groups != 0) {
    state.counters["us_per_group"] = rebuild_us / static_cast<double>(groups);
    state.counters["groups_per_loss"] =
        static_cast<double>(groups) / static_cast<double>(losses);
  }
}
BENCHMARK(BM_KvRebuildFleet)->Arg(16)->Arg(64)->Arg(256)
    ->ArgNames({"shards"})->UseManualTime()->Unit(benchmark::kMillisecond);

void BM_RingPlace(benchmark::State& state) {
  replicate::HashRing ring(replicate::RingOptions{64, 11});
  for (int m = 0; m < 8; ++m) ring.add_machine("m" + std::to_string(m));
  int g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.place(replicate::kv_group_key(g), 3));
    g = (g + 1) & 63;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RingPlace);

}  // namespace
