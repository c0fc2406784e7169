// C14 -- what crash-recoverability costs while nothing crashes, and what a
// crash costs when one happens. Three layers:
//
// BM_CounterSteadyState -- the counter sample application run to
// completion, in three configurations:
//   mode 0: no recovery machinery (the shipping default)
//   mode 1: supervisor started -- its failure detector reads the
//           runtime's liveness every heartbeat interval, plus sweeps
//   mode 2: same, plus periodic checkpoints through the production
//           capture path
// The acceptance bar is mode 1 and mode 2 within 10% of mode 0 on this
// workload (compare also against the burst numbers committed in
// BENCH_bus.json: the recovery subsystem never touches the bus hot path).
//
// BM_TimeToRecover -- crash the watched server after its first checkpoint
// and measure the virtual time from the crash to the heir serving again,
// per checkpoint interval. Detection (suspicion timeout + sweep phase)
// dominates; the interval governs how much work the heir must redo, not
// how fast it appears.
//
// BM_DetectorTick -- the raw price of one heartbeat tick, per process
// listed: 192 processes on 8 hosts, in the two cases a tick can take.
//   walk:0 -- the liveness generation is the one of the detector's last
//             walk (the steady state): the tick moves one stamp and counts
//             the beats, whatever the fleet's size;
//   walk:1 -- the generation moved (a process started, finished or
//             crashed): the tick walks the list once, merged with the
//             name-ordered attribution map.
//
// Emit machine-readable results with
//   bench_recovery --benchmark_out=BENCH_recovery.json
//                  --benchmark_out_format=json
// (the `bench_recovery_json` CMake target does exactly that).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "bench_common.hpp"
#include "recover/detector.hpp"
#include "recover/supervisor.hpp"

namespace {

using namespace surgeon;

// ~20 virtual us per round trip, so 6000 requests keep the server loaded
// for ~120 virtual ms: a dozen heartbeat intervals and room for every
// checkpoint cadence measured below to fire mid-run.
constexpr int kRequests = 6000;
constexpr std::uint64_t kRounds = 100'000'000;

std::unique_ptr<app::Runtime> make_counter(int requests) {
  return benchsupport::make_counter(requests,
                                    {.seed = 1, .busy_client = true});
}

void BM_CounterSteadyState(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  std::uint64_t beats = 0, checkpoints = 0;
  net::SimTime virtual_run_us = 0;
  for (auto _ : state) {
    state.PauseTiming();  // exclude MiniC parse/compile; measure the run
    auto rt = make_counter(kRequests);
    std::unique_ptr<recover::Supervisor> sup;
    if (mode >= 1) {
      recover::SupervisorOptions options;
      if (mode >= 2) options.checkpoint_interval_us = 50'000;
      sup = std::make_unique<recover::Supervisor>(
          *rt, rt->simulator().durable_store("sparc"), options);
      sup->watch("server");
      sup->start();
    }
    state.ResumeTiming();
    bool done = rt->run_until(
        [&] { return rt->module_finished("client"); }, kRounds);
    if (!done) state.SkipWithError("counter did not finish");
    state.PauseTiming();  // exclude teardown too
    virtual_run_us = rt->now();
    if (sup != nullptr) {
      beats = sup->detector().beats_observed();
      checkpoints = sup->checkpoints_taken();
      sup->stop();
    }
    sup.reset();
    rt.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kRequests);
  state.counters["virtual_run_us"] = static_cast<double>(virtual_run_us);
  if (mode >= 1) state.counters["heartbeats"] = static_cast<double>(beats);
  if (mode >= 2) {
    state.counters["checkpoints"] = static_cast<double>(checkpoints);
  }
}
BENCHMARK(BM_CounterSteadyState)->Arg(0)->Arg(1)->Arg(2)
    ->ArgNames({"recovery"});

void BM_TimeToRecover(benchmark::State& state) {
  const auto interval_ms = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t recover_virtual_us = 0;
  std::uint64_t samples = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto rt = make_counter(kRequests);
    recover::SupervisorOptions options;
    options.checkpoint_interval_us = interval_ms * 1'000;
    auto sup = std::make_unique<recover::Supervisor>(
        *rt, rt->simulator().durable_store("sparc"), options);
    sup->watch("server");
    sup->start();
    bool armed = rt->run_until(
        [&] { return sup->checkpoints_taken() >= 1; }, kRounds);
    if (!armed) state.SkipWithError("no checkpoint before the crash");
    const std::string victim = sup->current_instance("server");
    const net::SimTime crashed_at = rt->now();
    rt->crash_module(victim, "bench: host fault");
    state.ResumeTiming();
    bool restored = rt->run_until(
        [&] { return sup->restores() >= 1; }, kRounds);
    if (!restored) state.SkipWithError("heir never appeared");
    recover_virtual_us += rt->now() - crashed_at;
    ++samples;
    state.PauseTiming();
    sup->stop();
    sup.reset();
    rt.reset();
    state.ResumeTiming();
  }
  if (samples != 0) {
    state.counters["virtual_recover_us"] =
        static_cast<double>(recover_virtual_us) /
        static_cast<double>(samples);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TimeToRecover)->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->ArgNames({"ckpt_ms"});

void BM_DetectorTick(benchmark::State& state) {
  constexpr int kProcesses = 192;
  const bool walk = state.range(0) != 0;
  std::vector<std::string> names;
  std::vector<std::string> hosts;
  for (int i = 0; i < kProcesses; ++i) {
    names.push_back("s" + std::to_string(i / 3) + "x" + std::to_string(i % 3));
    hosts.push_back("m" + std::to_string(i % 8));
  }
  std::sort(names.begin(), names.end());  // the runtime lists in name order
  std::vector<app::LiveProcess> live;
  for (int i = 0; i < kProcesses; ++i) live.push_back({&names[i], &hosts[i]});
  recover::FailureDetector detector;
  std::uint64_t generation = 1;
  net::SimTime now = 0;
  detector.tick(now, generation, live);
  for (auto _ : state) {
    if (walk) ++generation;
    detector.tick(++now, generation, live);
  }
  benchmark::DoNotOptimize(detector.beats_observed());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kProcesses);
}
BENCHMARK(BM_DetectorTick)->Arg(0)->Arg(1)->ArgNames({"walk"});

}  // namespace
