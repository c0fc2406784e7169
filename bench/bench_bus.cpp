// C8 -- the software bus substrate, the constants underneath every
// reconfiguration measurement:
//
// BM_SendDeliverReceive -- one message, send to receive: wall time per hop
//   and the virtual latency, same-machine (remote:0) vs cross-machine.
// BM_BurstThroughput / BM_BurstThroughputPreResolved -- bursts of 16 to
//   4096 messages through the string-name shim vs endpoint handles
//   resolved once (as bus::Client caches them); items are messages.
// BM_RebindBatch -- one Figure 5 rebind batch that moves every peer of a
//   server endpoint to its replacement (delete + add per peer, then queue
//   capture and rmq), at 1 to 1024 peers; items are peers. The bind table
//   is the endpoints' own peer lists and a batch keeps an undo log, not a
//   copy of the table, so a batch costs its edits: the per-peer cost
//   (1 / items_per_second) at 1024 peers stays within 2x of 64's.
//
// `bench_bus_json` writes the committed BENCH_bus.json (release preset).
#include <benchmark/benchmark.h>

#include "bus/bus.hpp"
#include "net/sim.hpp"

namespace {

using namespace surgeon;

struct BusFixture {
  net::Simulator sim{1};
  bus::Bus bus{sim};

  explicit BusFixture(bool remote) {
    sim.add_machine("a", net::arch_vax());
    sim.add_machine("b", net::arch_sparc());
    bus::ModuleInfo producer;
    producer.name = "p";
    producer.machine = "a";
    producer.interfaces = {
        bus::InterfaceSpec{"out", bus::IfaceRole::kDefine, "i", ""}};
    bus.add_module(producer);
    bus::ModuleInfo consumer;
    consumer.name = "c";
    consumer.machine = remote ? "b" : "a";
    consumer.interfaces = {
        bus::InterfaceSpec{"in", bus::IfaceRole::kUse, "i", ""}};
    bus.add_module(consumer);
    bus.add_binding({"p", "out"}, {"c", "in"});
  }
};

void BM_SendDeliverReceive(benchmark::State& state) {
  const bool remote = state.range(0) == 1;
  BusFixture f(remote);
  net::SimTime sent_at = 0, received_at = 0;
  for (auto _ : state) {
    sent_at = f.sim.now();
    f.bus.send("p", "out", {ser::Value(std::int64_t{42})});
    f.sim.run();
    received_at = f.sim.now();
    auto msg = f.bus.receive("c", "in");
    benchmark::DoNotOptimize(msg);
  }
  state.counters["virtual_latency_us"] =
      static_cast<double>(received_at - sent_at);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SendDeliverReceive)->Arg(0)->Arg(1)->ArgNames({"remote"});

void BM_BurstThroughput(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  BusFixture f(false);
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) {
      f.bus.send("p", "out", {ser::Value(std::int64_t{i})});
    }
    f.sim.run();
    while (auto msg = f.bus.receive("c", "in")) {
      benchmark::DoNotOptimize(msg);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * burst);
}
BENCHMARK(BM_BurstThroughput)->Arg(16)->Arg(256)->Arg(4096)
    ->ArgNames({"burst"});

// The steady-state hot path: endpoint handles resolved once (as bus::Client
// caches them), so each send->deliver->receive hop runs entirely on interned
// ids -- no string hashing, no map walks, no per-hop heap allocation. This is
// the headline throughput number of the routing-interning work; compare with
// BM_BurstThroughput, which pays the string-shim resolution per call.
void BM_BurstThroughputPreResolved(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  BusFixture f(false);
  const bus::EndpointRef out = f.bus.resolve_endpoint("p", "out");
  const bus::EndpointRef in = f.bus.resolve_endpoint("c", "in");
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) {
      f.bus.send(out, {ser::Value(std::int64_t{i})});
    }
    f.sim.run();
    while (auto msg = f.bus.receive(in)) {
      benchmark::DoNotOptimize(msg);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * burst);
}
BENCHMARK(BM_BurstThroughputPreResolved)->Arg(16)->Arg(256)->Arg(4096)
    ->ArgNames({"burst"});

void BM_RebindBatch(benchmark::State& state) {
  // The Figure 5 rebinding pattern: delete/add per peer + queue commands,
  // applied atomically.
  const int peers = static_cast<int>(state.range(0));
  net::Simulator sim(1);
  bus::Bus bus(sim);
  sim.add_machine("m", net::arch_vax());
  auto mk = [&](const std::string& name, bus::IfaceRole role) {
    bus::ModuleInfo info;
    info.name = name;
    info.machine = "m";
    info.interfaces = {bus::InterfaceSpec{"io", role, "i", ""}};
    bus.add_module(info);
  };
  mk("old", bus::IfaceRole::kServer);
  mk("new", bus::IfaceRole::kServer);
  for (int i = 0; i < peers; ++i) {
    mk("peer" + std::to_string(i), bus::IfaceRole::kClient);
    bus.add_binding({"old", "io"}, {"peer" + std::to_string(i), "io"});
  }
  bool towards_new = true;
  for (auto _ : state) {
    const std::string& from = towards_new ? "old" : "new";
    const std::string& to = towards_new ? "new" : "old";
    bus::BindEditBatch batch;
    for (const auto& peer : bus.bound_peers({from, "io"})) {
      batch.add(bus::BindEdit{bus::BindEdit::Op::kDel, {from, "io"}, peer});
      batch.add(bus::BindEdit{bus::BindEdit::Op::kAdd, {to, "io"}, peer});
    }
    batch.add(bus::BindEdit{bus::BindEdit::Op::kCaptureQueue,
                            {from, "io"},
                            {to, "io"}});
    batch.add(bus::BindEdit{
        bus::BindEdit::Op::kRemoveQueue, {from, "io"}, {}});
    bus.rebind(batch);
    towards_new = !towards_new;
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * peers);
}
BENCHMARK(BM_RebindBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(256)->Arg(1024)
    ->ArgNames({"peers"});

}  // namespace
