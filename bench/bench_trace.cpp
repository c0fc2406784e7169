// C13 -- causal-tracing overhead: what the flight recorder adds to the
// platform. Two layers:
//
// BM_PipelineApp -- the pipeline sample application (feeder -> filter ->
// sink, VM-executed) run to completion, in three configurations:
//   mode 0: no recorder events   (tracing off -- the shipping default)
//   mode 1: same, tracing still off (control: run-to-run noise floor)
//   mode 2: causal tracing enabled (every bus hop journaled)
// The acceptance bar is mode 2 within 10% of mode 0 on this workload. A
// run journals ~800 events into a 65,536-event ring, so it never evicts:
// BM_RecordHop prices the hop on a ring that has wrapped.
//
// BM_BusBurst -- the raw bus message loop with no VM in the way, the
// worst case for the recorder (nothing dilutes the per-hop price), plus
// micro-benchmarks for one per-hop record_at(), one free-form record()
// and DAG assembly/export.
//
// Emit machine-readable results with
//   bench_trace --benchmark_out=BENCH_trace.json
//               --benchmark_out_format=json --benchmark_repetitions=5
// (the `bench_trace_json` CMake target does exactly that; the committed
// snapshot comes from the `release` preset).
#include <benchmark/benchmark.h>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "bus/bus.hpp"
#include "cfg/parser.hpp"
#include "net/arch.hpp"
#include "net/sim.hpp"
#include "trace/assemble.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace surgeon;

void BM_PipelineApp(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr int kItems = 200;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();  // exclude MiniC parse/compile; measure the run
    auto rt = std::make_unique<app::Runtime>(1);
    rt->add_machine("vax", net::arch_vax());
    rt->add_machine("sparc", net::arch_sparc());
    if (mode >= 2) rt->enable_causal_tracing();
    cfg::ConfigFile config =
        cfg::parse_config(app::samples::pipeline_config_text());
    rt->load_application(config, "pipeline",
                         [](const cfg::ModuleSpec& spec) {
                           if (spec.name == "feeder") {
                             return app::samples::pipeline_source_source(
                                 kItems);
                           }
                           if (spec.name == "filter") {
                             return app::samples::pipeline_filter_source();
                           }
                           return app::samples::pipeline_sink_source();
                         });
    state.ResumeTiming();
    bool done = rt->run_until(
        [&] {
          return rt->module_finished("feeder") &&
                 rt->machine_of("sink")->output().size() >=
                     static_cast<std::size_t>(kItems);
        },
        100'000'000);
    if (!done) state.SkipWithError("pipeline did not finish");
    events = rt->tracer().total_events();
    benchmark::DoNotOptimize(rt);
    state.PauseTiming();  // exclude teardown too
    rt.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kItems);
  if (mode >= 2) state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_PipelineApp)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"trace"});

bus::ModuleInfo pipe_module(const std::string& name, bool uses, bool defines) {
  bus::ModuleInfo info;
  info.name = name;
  info.machine = "a";
  if (uses) {
    info.interfaces.push_back(
        bus::InterfaceSpec{"in", bus::IfaceRole::kUse, "i", ""});
  }
  if (defines) {
    info.interfaces.push_back(
        bus::InterfaceSpec{"out", bus::IfaceRole::kDefine, "i", ""});
  }
  return info;
}

struct BurstFixture {
  net::Simulator sim{1};
  bus::Bus bus{sim};
  trace::Recorder recorder;

  explicit BurstFixture(int mode) {
    sim.add_machine("a", net::arch_vax());
    bus.add_module(pipe_module("p", /*uses=*/false, /*defines=*/true));
    bus.add_module(pipe_module("f", /*uses=*/true, /*defines=*/true));
    bus.add_module(pipe_module("s", /*uses=*/true, /*defines=*/false));
    bus.add_binding({"p", "out"}, {"f", "in"});
    bus.add_binding({"f", "out"}, {"s", "in"});
    if (mode >= 1) {
      recorder.set_clock(&sim);
      bus.set_tracer(&recorder);
    }
    recorder.set_enabled(mode >= 2);
  }
};

void BM_BusBurst(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  constexpr int kBurst = 256;
  BurstFixture f(mode);
  for (auto _ : state) {
    for (int i = 0; i < kBurst; ++i) {
      f.bus.send("p", "out", {ser::Value(std::int64_t{i})});
    }
    f.sim.run();
    while (auto msg = f.bus.receive("f", "in")) {
      f.bus.send("f", "out", std::move(msg->values));
    }
    f.sim.run();
    while (auto msg = f.bus.receive("s", "in")) {
      benchmark::DoNotOptimize(msg);
    }
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kBurst);
  if (mode >= 2) {
    state.counters["events"] =
        static_cast<double>(f.recorder.total_events());
    state.counters["ring_dropped"] =
        static_cast<double>(f.recorder.dropped("a"));
  }
}
BENCHMARK(BM_BusBurst)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"trace"});

void BM_RecordHop(benchmark::State& state) {
  // The per-hop price the bus pays while tracing: record_at through the
  // module's resolved Site with the endpoint's interned detail symbol --
  // id assignment, Lamport merge, and a record written over the oldest
  // slot of a ring that has already wrapped.
  trace::Recorder recorder;
  recorder.set_enabled(true);
  const trace::Recorder::Site site = recorder.resolve_site("a", "p");
  const trace::Recorder::Symbol detail = recorder.intern("out");
  trace::TraceContext cause;
  for (std::size_t i = 0; i <= recorder.capacity(); ++i) {
    cause = recorder.record_at(site, trace::EventKind::kSend, detail, cause);
  }
  for (auto _ : state) {
    cause = recorder.record_at(site, trace::EventKind::kSend, detail, cause);
    benchmark::DoNotOptimize(cause);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["ring_dropped"] =
      static_cast<double>(recorder.dropped("a"));
}
BENCHMARK(BM_RecordHop);

void BM_RecordEvent(benchmark::State& state) {
  // One free-form record(): the machine's journal through the one-entry
  // cache, the module's symbol through one hash lookup, the detail string
  // moved into the journal's side queue, then the same stamp and ring
  // write as a hop.
  trace::Recorder recorder;
  recorder.set_enabled(true);
  trace::TraceContext cause;
  for (auto _ : state) {
    cause = recorder.record(trace::EventKind::kSend, "a", "p", "out", cause);
    benchmark::DoNotOptimize(cause);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RecordEvent);

void BM_AssembleAndExport(benchmark::State& state) {
  // Reconstructing the DAG from the journals and rendering the Chrome
  // trace (what one post-mortem export costs), per journal size.
  const int events = static_cast<int>(state.range(0));
  trace::Recorder recorder;
  recorder.set_enabled(true);
  recorder.set_capacity(static_cast<std::size_t>(events));
  trace::TraceContext cause;
  for (int i = 0; i < events; ++i) {
    cause = recorder.record(
        i % 2 == 0 ? trace::EventKind::kSend : trace::EventKind::kDeliver,
        i % 2 == 0 ? "a" : "b", "p", "out", cause);
  }
  for (auto _ : state) {
    trace::Dag dag = trace::assemble(recorder);
    std::string chrome = trace::to_chrome_trace(dag);
    benchmark::DoNotOptimize(chrome);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * events);
}
BENCHMARK(BM_AssembleAndExport)->Arg(256)->Arg(4096)->ArgNames({"events"});

}  // namespace
