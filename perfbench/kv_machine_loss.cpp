// kv_machine_loss: a sharded KV service that loses two machines.
//
// The native KV client keeps one operation outstanding (60% PUT, 40% GET)
// against 64 three-replica groups: 192 MiniC shards on m0..m7, with the
// router and client on "ctl". Delivery is reliable, and a seeded
// FaultInjector adds 2% drop, 1% duplicate and 2% delay on every link. A
// GroupManager watches 5 ms heartbeats. m0 is crashed after a third of the
// operations and m1 after two thirds; each is rebuilt onto a sparc spare.
// The VM does little here: host time goes to the native router and client
// ticks, reliable-layer retransmits and the simulator, and each rebuild
// edits a 192-member bind table. No WAL is used.
#include <algorithm>
#include <set>

#include "chaos/fault.hpp"
#include "harness.hpp"
#include "net/arch.hpp"
#include "replicate/kv.hpp"
#include "replicate/manager.hpp"

namespace perfbench {

namespace {

using sg::net::SimTime;

constexpr int kOps = 4000;
constexpr std::size_t kGroups = 64;
constexpr std::size_t kGroupSize = 3;
constexpr int kRingMachines = 8;
const char* const kLost[] = {"m0", "m1"};
// Virtual-time budget of the steady phase; a healthy run needs ~20 s. The
// heartbeats keep the simulator busy forever, so every wait needs one.
constexpr SimTime kBudgetUs = 600'000'000;

}  // namespace

Episode run_kv_machine_loss(const Context& ctx) {
  Episode ep;
  SpanLog* log = ctx.log;

  // --- setup: ring placement, shard compile and install, manager start ----
  const int setup_phase = log != nullptr ? log->open_phase("setup") : -1;
  const std::uint64_t t0 = host_ns();
  // Declared before the runtime so it outlives the bus hook it installs.
  sg::chaos::FaultInjector injector(derive_seed(ctx.seed, 4));
  auto rt = std::make_unique<sg::app::Runtime>(derive_seed(ctx.seed, 1));
  sg::replicate::KvOptions kv;
  kv.shards = kGroups;
  kv.group_size = kGroupSize;
  kv.seed = derive_seed(ctx.seed, 3);
  kv.machines.clear();
  for (int i = 0; i < kRingMachines; ++i) {
    kv.machines.push_back("m" + std::to_string(i));
    rt->add_machine(kv.machines.back(), sg::net::arch_vax());
  }
  const std::vector<std::string> spares = {"sp0", "sp1"};
  for (const auto& s : spares) rt->add_machine(s, sg::net::arch_sparc());
  rt->add_machine(kv.control_machine, sg::net::arch_vax());
  rt->bus().set_delivery(sg::bus::DeliveryOptions{.reliable = true});
  rt->bus().set_control_machine(kv.control_machine);
  injector.set_default(sg::chaos::LinkFaults{
      .drop = 0.02, .duplicate = 0.01, .delay = 0.02, .jitter_us = 1'000});
  injector.attach(rt->bus());
  sg::replicate::KvService service(*rt, kv);
  const std::uint64_t t_launch = host_ns();
  service.launch(kOps);
  const std::uint64_t t_launched = host_ns();
  sg::replicate::ManagerOptions mopts;
  mopts.heartbeat_interval_us = 5'000;
  mopts.sweep_interval_us = 20'000;
  mopts.detector.suspicion_timeout_us = 30'000;
  mopts.detector.confirm_timeout_us = 60'000;
  mopts.spares = spares;
  sg::replicate::GroupManager manager(service, mopts);
  manager.start();
  const std::uint64_t t1 = host_ns();
  if (log != nullptr) {
    log->coarse("replicate.launch", t_launch, t_launched);
    log->close_phase(setup_phase);
  }
  ep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  if (ctx.setup_only) return ep;

  // --- steady: serve, lose m0 at 1/3 and m1 at 2/3, finish ----------------
  const int steady_phase = log != nullptr ? log->open_phase("steady") : -1;
  Driver driver(*rt, log);
  sg::replicate::KvClient& client = service.client();
  struct Loss {
    SimTime crashed_at = 0;
    SimTime restored_at = 0;
    std::uint64_t rebuild_ns = 0;
  };
  std::vector<Loss> losses;
  const SimTime deadline = rt->now() + kBudgetUs;
  auto out_of_time = [&] { return rt->now() >= deadline; };
  const std::uint64_t t2 = host_ns();
  for (std::size_t i = 0; i < std::size(kLost); ++i) {
    const std::uint64_t at_ops = static_cast<std::uint64_t>(kOps) * (i + 1) / 3;
    (void)driver.run_until(
        [&] { return client.stats().acked >= at_ops || out_of_time(); });
    if (out_of_time()) break;
    Loss loss;
    loss.crashed_at = rt->now();
    (void)rt->crash_machine(kLost[i]);
    const int window = log != nullptr ? log->open_phase("window") : -1;
    // Steps of the window run one by one: a step during which a group was
    // rebuilt is part of the reconfiguration's host cost.
    while (manager.stats().machines_rebuilt < i + 1 && !out_of_time()) {
      const std::uint64_t g0 = manager.stats().groups_rebuilt;
      const std::uint64_t s0 = host_ns();
      if (!driver.step()) break;
      const std::uint64_t s1 = host_ns();
      if (manager.stats().groups_rebuilt != g0) {
        loss.rebuild_ns += s1 - s0;
        if (log != nullptr) log->coarse("replicate.rebuild", s0, s1);
      }
    }
    loss.restored_at = rt->now();
    if (log != nullptr) log->close_phase(window);
    ep.reconfig_host_ms.push_back(static_cast<double>(loss.rebuild_ns) / 1e6);
    losses.push_back(loss);
  }
  (void)driver.run_until([&] { return client.done() || out_of_time(); });
  const std::uint64_t t3 = host_ns();
  if (log != nullptr) log->close_phase(steady_phase);
  ep.steady_s = static_cast<double>(t3 - t2) / 1e9;
  manager.stop();

  // --- correctness -----------------------------------------------------------
  const sg::replicate::ManagerStats& ms = manager.stats();
  const sg::replicate::KvRouterStats& rs = service.router().stats();
  const sg::replicate::KvClientStats& cs = client.stats();
  ep.ops = cs.acked;
  ep.attempted = cs.sent;
  ep.failed = (cs.sent - cs.acked) + client.ledger_violations().size() +
              rs.stale_gets;
  // A reconfiguration is one group rebuild; a lost machine whose rebuild
  // never completed counts as one more failed one.
  const std::uint64_t unrestored =
      std::size(kLost) -
      std::min<std::uint64_t>(std::size(kLost), ms.machines_rebuilt);
  ep.reconfig_attempted = ms.groups_rebuilt + ms.rebuild_failures + unrestored;
  ep.reconfig_failed = ms.rebuild_failures + unrestored;
  ep.check(client.done(), "client did not finish its script");
  ep.check(client.ledger_violations().empty(),
           std::to_string(client.ledger_violations().size()) +
               " ledger violations");
  ep.check(rs.stale_gets == 0, std::to_string(rs.stale_gets) + " stale GETs");
  ep.check(ms.data_loss_groups == 0,
           std::to_string(ms.data_loss_groups) + " data-loss groups");
  ep.check(ms.machines_rebuilt == std::size(kLost),
           "machines rebuilt: " + std::to_string(ms.machines_rebuilt));
  ep.check(ms.rebuild_failures == 0,
           std::to_string(ms.rebuild_failures) + " rebuild failures");
  for (std::size_t g = 0; g < kGroups; ++g) {
    const auto members = service.router().members(g);
    std::set<std::string> hosts;
    bool healthy = members.size() == kGroupSize;
    for (const auto& m : members) {
      const std::string& host = rt->bus().module_info(m).machine;
      healthy = healthy && rt->module_running(m) && !rt->machine_dead(host);
      hosts.insert(host);
    }
    ep.check(healthy && hosts.size() == kGroupSize,
             "group " + std::to_string(g) + " is not back at 3 live members");
  }
  std::size_t readback_mismatch = 0;
  for (const auto& [key, value] : client.readback()) {
    const auto it = client.acked_writes().find(key);
    if (value != (it == client.acked_writes().end() ? 0 : it->second)) {
      ++readback_mismatch;
    }
  }
  ep.check(readback_mismatch == 0 &&
               client.readback().size() == kGroups * sg::replicate::kSlotsPerShard,
           std::to_string(readback_mismatch) + " read-back keys differ from "
           "the ledger");
  ep.check(!rt->first_fault().has_value(), "a module faulted");

  // --- fingerprint and virtual-time metrics --------------------------------
  std::vector<std::int64_t> latency, in_window, detect, group_restore;
  for (const auto& s : service.router().latencies()) {
    latency.push_back(static_cast<std::int64_t>(s.latency_us));
    for (const Loss& loss : losses) {
      if (s.completed_at >= loss.crashed_at &&
          s.completed_at <= loss.restored_at) {
        in_window.push_back(static_cast<std::int64_t>(s.latency_us));
      }
    }
  }
  for (const Loss& loss : losses) {
    for (const auto& r : manager.rebuilds()) {
      if (r.requested_at >= loss.crashed_at) {
        detect.push_back(static_cast<std::int64_t>(r.requested_at -
                                                   loss.crashed_at));
        break;
      }
    }
  }
  for (const auto& r : manager.rebuilds()) {
    group_restore.push_back(static_cast<std::int64_t>(r.restore_us()));
  }
  std::int64_t restore_sum = 0, detect_sum = 0;
  for (const Loss& loss : losses) {
    restore_sum += static_cast<std::int64_t>(loss.restored_at - loss.crashed_at);
  }
  for (std::int64_t d : detect) detect_sum += d;
  const double n_losses = losses.empty() ? 1.0 : static_cast<double>(
                                                     losses.size());
  const sg::bus::BusStats& bs = rt->bus().stats();
  const sg::bus::ReliableStats& rel = rt->bus().reliable_stats();
  const sg::chaos::FaultStats& fs = injector.stats();
  auto& x = ep.exact;
  x["vm.instructions_live"] =
      static_cast<std::int64_t>(live_vm_instructions(*rt));
  x["bus.messages_sent"] = static_cast<std::int64_t>(bs.messages_sent);
  x["bus.messages_delivered"] =
      static_cast<std::int64_t>(bs.messages_delivered);
  x["bus.state_bytes_moved"] = static_cast<std::int64_t>(bs.state_bytes_moved);
  x["bus.transmissions"] = static_cast<std::int64_t>(rel.transmissions);
  x["bus.retransmits"] = static_cast<std::int64_t>(rel.retransmits);
  x["chaos.decisions"] = static_cast<std::int64_t>(fs.decisions);
  x["chaos.drops"] = static_cast<std::int64_t>(fs.drops);
  x["chaos.duplicates"] = static_cast<std::int64_t>(fs.duplicates);
  x["chaos.delays"] = static_cast<std::int64_t>(fs.delays);
  x["trace.events"] = static_cast<std::int64_t>(rt->tracer().total_events());
  x["net.final_virtual_us"] = static_cast<std::int64_t>(rt->now());
  x["ops"] = static_cast<std::int64_t>(cs.acked);
  x["replicate.groups_rebuilt"] = static_cast<std::int64_t>(ms.groups_rebuilt);
  x["replicate.refans"] = static_cast<std::int64_t>(rs.refans);
  x["latency_p50_us"] = percentile_exact(latency, 0.50);
  x["latency_p99_us"] = percentile_exact(latency, 0.99);
  x["reconfig_latency_samples"] = static_cast<std::int64_t>(in_window.size());
  x["reconfig_latency_p50_us"] = percentile_exact(in_window, 0.50);
  x["reconfig_latency_p90_us"] = percentile_exact(in_window, 0.90);
  x["restore_us_sum"] = restore_sum;
  x["recover.detect_us_sum"] = detect_sum;
  x["replicate.group_restore_us"] = percentile_exact(group_restore, 0.50);

  auto& v = ep.virtual_metrics;
  v["latency_p50_us"] = {static_cast<double>(x["latency_p50_us"]), "us"};
  v["latency_p99_us"] = {static_cast<double>(x["latency_p99_us"]), "us"};
  v["latency_samples"] = {static_cast<double>(latency.size()), "count"};
  v["reconfig_latency_p50_us"] = {
      static_cast<double>(x["reconfig_latency_p50_us"]), "us"};
  v["reconfig_latency_p90_us"] = {
      static_cast<double>(x["reconfig_latency_p90_us"]), "us"};
  v["reconfig_latency_samples"] = {static_cast<double>(in_window.size()),
                                   "count"};
  v["restore_ms"] = {static_cast<double>(restore_sum) / 1e3 / n_losses, "ms"};
  v["reconfig_samples"] = {static_cast<double>(losses.size()), "count"};

  if (log != nullptr) {
    const double ops = static_cast<double>(cs.acked);
    const auto vm = log->total("app.step.vm");
    const auto ev = log->total("app.step.event");
    const auto rebuild = log->total("replicate.rebuild");
    auto& l = ep.layers;
    l["app.steps_per_op"] = static_cast<double>(vm.count + ev.count) / ops;
    l["app.vm_step_ns_per_op"] = static_cast<double>(vm.ns) / ops;
    l["app.event_step_ns_per_op"] = static_cast<double>(ev.ns) / ops;
    l["app.step_span_coverage"] =
        static_cast<double>(vm.ns + ev.ns) /
        static_cast<double>(log->total("steady", "phase").ns);
    l["vm.insns_per_op"] =
        static_cast<double>(x["vm.instructions_live"]) / ops;
    l["vm.ns_per_insn"] =
        static_cast<double>(vm.self_ns) /
        static_cast<double>(std::max<std::int64_t>(1, x["vm.instructions_live"]));
    l["net.events_per_op"] = static_cast<double>(ev.count) / ops;
    l["net.ns_per_event"] =
        static_cast<double>(ev.self_ns) / static_cast<double>(ev.count);
    l["net.pending_events_p99"] = percentile(driver.pending_samples(), 0.99);
    l["bus.msgs_per_op"] = static_cast<double>(bs.messages_sent) / ops;
    l["bus.retransmits_per_op"] = static_cast<double>(rel.retransmits) / ops;
    l["bus.useful_tx_ratio"] = static_cast<double>(bs.messages_delivered) /
                               static_cast<double>(rel.transmissions);
    l["bus.state_bytes_moved"] = static_cast<double>(bs.state_bytes_moved);
    l["chaos.drops"] = static_cast<double>(fs.drops);
    l["chaos.duplicates"] = static_cast<double>(fs.duplicates);
    l["recover.detect_ms"] = static_cast<double>(detect_sum) / 1e3 /
                             std::max<double>(1.0, static_cast<double>(
                                                       detect.size()));
    l["replicate.launch_ms"] =
        static_cast<double>(t_launched - t_launch) / 1e6;
    l["replicate.rebuild_host_ms_per_group"] =
        static_cast<double>(rebuild.ns) / 1e6 /
        std::max<double>(1.0, static_cast<double>(ms.groups_rebuilt));
    l["replicate.groups_per_loss"] =
        static_cast<double>(ms.groups_rebuilt) / n_losses;
    l["replicate.group_restore_us"] =
        static_cast<double>(x["replicate.group_restore_us"]);
    l["replicate.refans_per_op"] = static_cast<double>(rs.refans) / ops;
    std::map<std::string, sg::net::Arch> machines;
    for (const auto& m : kv.machines) machines.emplace(m, sg::net::arch_vax());
    time_setup_calls(sg::replicate::kv_config_text(service.placements()), "kv",
                     machines,
                     [](const sg::cfg::ModuleSpec&) {
                       return sg::replicate::kv_shard_source(kGroups);
                     },
                     *log, ep);
  }
  return ep;
}

}  // namespace perfbench
