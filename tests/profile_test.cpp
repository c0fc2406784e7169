// Tests of the profiling and cluster-telemetry plane (surgeon::profile):
// the sampling profiler's attribution and exporters, the Reporter ->
// Collector delta stream, the mh_top renderings, the collector's own
// Figure 5 replacement (byte-identical aggregates across 215 chaos seeds),
// and the obs exporters under the series churn a replacement causes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "chaos/fault.hpp"
#include "net/arch.hpp"
#include "obs/export.hpp"
#include "profile/profiler.hpp"
#include "profile/telemetry.hpp"
#include "reconfig/scripts.hpp"
#include "support/diag.hpp"

namespace surgeon::profile {
namespace {

reconfig::ReplaceOptions on(const std::string& machine) {
  reconfig::ReplaceOptions options;
  options.machine = machine;
  return options;
}

std::unique_ptr<app::Runtime> make_counter(std::uint64_t seed, int requests) {
  auto rt = std::make_unique<app::Runtime>(seed);
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

// --- sampling profiler -------------------------------------------------------

TEST(Profiler, InstructionSamplingNamesHotOpcodeSequences) {
  auto rt = make_counter(3, 40);
  Profiler profiler;
  ProfileOptions options;
  options.every_insns = 4;  // dense: the opcode-evidence mode
  rt->enable_profiler(profiler, options);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 40; }));

  EXPECT_GT(profiler.total_samples(), 100u);
  // Both modules executed instructions, so both appear in the attribution.
  bool saw_client = false, saw_server = false;
  for (const auto& [key, stat] : profiler.functions()) {
    if (key.first == "client") saw_client = true;
    if (key.first == "server") saw_server = true;
    EXPECT_GE(stat.cum, stat.self) << key.first << ";" << key.second;
  }
  EXPECT_TRUE(saw_client);
  EXPECT_TRUE(saw_server);
  // The superinstruction evidence: static opcode sequences with counts.
  ASSERT_FALSE(profiler.sequences().empty());
  std::uint64_t hottest = 0;
  for (const auto& [key, n] : profiler.sequences()) {
    EXPECT_NE(key.second.find('+'), std::string::npos) << key.second;
    hottest = std::max(hottest, n);
  }
  EXPECT_GT(hottest, 0u);
  EXPECT_FALSE(profiler.opcodes().empty());

  // Folded exporter: "module;fn[;fn...] count" lines, flamegraph-ready.
  const std::string folded = profiler.to_folded();
  EXPECT_NE(folded.find("client;"), std::string::npos);
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10), 0u)
        << line;
  }
  const std::string json = profiler.to_json();
  EXPECT_NE(json.find("\"total_samples\":"), std::string::npos);
  EXPECT_NE(json.find("\"sequences\":"), std::string::npos);
}

TEST(Profiler, TimerModeSamplesAndDisableStops) {
  auto rt = make_counter(4, 60);
  Profiler profiler;
  ProfileOptions options;
  options.interval_us = 1'000;  // virtual-clock sampling timer
  rt->enable_profiler(profiler, options);
  EXPECT_TRUE(rt->profiler_enabled());
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 20; }));
  EXPECT_GT(profiler.total_samples(), 0u);

  rt->disable_profiler();
  EXPECT_FALSE(rt->profiler_enabled());
  const std::uint64_t frozen = profiler.total_samples();
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 60; }));
  EXPECT_EQ(profiler.total_samples(), frozen);
}

// --- telemetry plane ---------------------------------------------------------

TEST(Telemetry, CollectorAggregatesDeltaStream) {
  auto rt = make_counter(5, 200);
  rt->enable_metrics();
  auto collector =
      std::make_unique<Collector>(rt->bus(), "collector", "vax");
  Reporter vax(rt->bus(), rt->metrics(), "vax", "collector");
  Reporter sparc(rt->bus(), rt->metrics(), "sparc", "collector");
  rt->run_for(800'000);

  EXPECT_GT(vax.deltas_sent() + sparc.deltas_sent(), 0u);
  EXPECT_GT(collector->deltas_applied(), 0u);
  EXPECT_EQ(collector->malformed_dropped(), 0u);

  // The counter application is entirely vax-hosted: the sparc reporter has
  // nothing to stream, and silence is the correct report.
  EXPECT_EQ(sparc.deltas_sent(), 0u);

  // The table names the busiest series of the loaded machine.
  const std::string table = collector->top("table");
  EXPECT_NE(table.find("MACHINE"), std::string::npos);
  EXPECT_NE(table.find("RATE/S"), std::string::npos);
  EXPECT_NE(table.find("surgeon_bus_messages_sent_total"), std::string::npos);
  EXPECT_NE(table.find("vax"), std::string::npos);

  // The query path every operator tool uses: bus::Client::mh_top.
  bus::Client query(rt->bus(), "client");
  EXPECT_EQ(query.mh_top("table"), table);
  const std::string json = query.mh_top("json");
  EXPECT_EQ(json.rfind("{\"window_us\":", 0), 0u) << json;
  EXPECT_NE(json.find("\"series\":["), std::string::npos);
  EXPECT_THROW((void)query.mh_top("xml"), support::BusError);

  // The plane never reports itself: no telemetry module appears as a row.
  EXPECT_EQ(table.find("telemetry@"), std::string::npos);
  EXPECT_EQ(json.find("\"collector\""), std::string::npos);
}

TEST(Telemetry, MalformedIngestIsCountedNotFatal) {
  auto rt = make_counter(6, 10);
  rt->enable_metrics();
  Collector collector(rt->bus(), "collector", "vax");
  bus::ModuleInfo rogue;
  rogue.name = "rogue";
  rogue.machine = "vax";
  rogue.source = kTelemetrySource;
  rogue.interfaces.push_back(
      bus::InterfaceSpec{"junk", bus::IfaceRole::kDefine, "", ""});
  rt->bus().add_module(std::move(rogue));
  rt->bus().add_binding(bus::BindingEnd{"rogue", "junk"},
                        bus::BindingEnd{"collector", "ingest"});
  bus::Client rogue_client(rt->bus(), "rogue");
  using ser::Value;
  // Too short, non-string header, unknown kind, odd histogram payload.
  rogue_client.write("junk", {Value{std::int64_t{7}}});
  rogue_client.write("junk",
                     {Value{std::int64_t{1}}, Value{std::string{"m"}},
                      Value{std::string{"i"}}, Value{std::string{"c"}},
                      Value{std::string{"c"}}, Value{std::int64_t{1}}});
  rogue_client.write("junk",
                     {Value{std::string{"vax"}}, Value{std::string{"m"}},
                      Value{std::string{"i"}}, Value{std::string{"c"}},
                      Value{std::string{"?"}}, Value{std::int64_t{1}}});
  rogue_client.write("junk",
                     {Value{std::string{"vax"}}, Value{std::string{"m"}},
                      Value{std::string{"i"}}, Value{std::string{"h"}},
                      Value{std::string{"h"}}, Value{std::int64_t{10}},
                      Value{std::int64_t{1}}, Value{std::int64_t{20}}});
  rt->run_for(200'000);
  EXPECT_EQ(collector.deltas_applied(), 0u);
  EXPECT_EQ(collector.malformed_dropped(), 4u);
  // Still answering queries.
  EXPECT_EQ(collector.top("json").rfind("{\"window_us\":", 0), 0u);
}

TEST(Telemetry, StateRoundTripReproducesTopExactly) {
  auto rt = make_counter(7, 120);
  rt->enable_metrics();
  Collector original(rt->bus(), "collector", "vax");
  Reporter reporter(rt->bus(), rt->metrics(), "vax", "collector");
  rt->run_for(500'000);
  ASSERT_GT(original.deltas_applied(), 0u);

  const ser::StateBuffer state = original.encode_state();
  Collector clone(rt->bus(), "collector2", "sparc", {}, "clone");
  EXPECT_FALSE(clone.active());
  clone.install_state(state);
  EXPECT_TRUE(clone.active());
  EXPECT_EQ(clone.top("json"), original.top("json"));
  EXPECT_EQ(clone.top("table"), original.top("table"));
}

// An empty window geometry would divide by zero (slot_us) or index an
// empty ring (slots): the collector rejects it before it registers.
TEST(Telemetry, ZeroWindowGeometryIsRejectedBeforeRegistration) {
  for (const CollectorOptions bad :
       {CollectorOptions{.tick_us = 50'000, .slot_us = 0, .slots = 8},
        CollectorOptions{.tick_us = 50'000, .slot_us = 1'000, .slots = 0}}) {
    net::Simulator sim;
    sim.add_machine("vax", net::arch_vax());
    bus::Bus bus(sim);
    EXPECT_THROW((void)Collector(bus, "collector", "vax", bad),
                 support::BusError);
    EXPECT_FALSE(bus.has_module("collector"));
    EXPECT_TRUE(sim.idle());
  }
}

// A divulged window state crosses the network. Flipped bytes and
// truncations of a real buffer, and well-formed buffers with a frame cut
// short or an integer set to -1, 0 or the maximum, are rejected with
// BusError or VmError and leave the collector as it was; a buffer that is
// accepted leaves a collector that can still apply a delta (an empty window
// geometry would divide by zero there) and render mh_top.
TEST(Telemetry, MalformedStateBuffersAreRejectedCleanly) {
  auto rt = make_counter(7, 120);
  rt->enable_metrics();
  Collector original(rt->bus(), "collector", "vax");
  Reporter reporter(rt->bus(), rt->metrics(), "vax", "collector");
  rt->run_for(500'000);
  const ser::StateBuffer valid = original.encode_state();
  ASSERT_GT(valid.frame_count(), 3u);

  int accepted = 0;
  int rejected = 0;
  const auto install = [&](const ser::StateBuffer& state) {
    net::Simulator sim;
    sim.add_machine("vax", net::arch_vax());
    bus::Bus bus(sim);
    Collector clone(bus, "clone", "vax", {}, "clone");
    clone.install_state(valid);
    try {
      clone.install_state(state);
    } catch (const support::BusError&) {
      ++rejected;
      EXPECT_EQ(clone.encode_state(), valid);
      return;
    } catch (const support::VmError&) {
      ++rejected;
      EXPECT_EQ(clone.encode_state(), valid);
      return;
    }
    ++accepted;
    bus::ModuleInfo feeder;
    feeder.name = "feeder";
    feeder.machine = "vax";
    feeder.interfaces = {{"out", bus::IfaceRole::kDefine, "", ""}};
    bus.add_module(std::move(feeder));
    bus.add_binding({"feeder", "out"}, {"clone", "ingest"});
    using ser::Value;
    bus::Client(bus, "feeder")
        .write("out", {Value{std::string{"vax"}}, Value{std::string{"m"}},
                       Value{std::string{""}}, Value{std::string{"x"}},
                       Value{std::string{"c"}}, Value{std::int64_t{1}}});
    (void)sim.run(8);
    EXPECT_EQ(clone.deltas_applied(), 1u);
    (void)clone.top("json");
    (void)clone.top("table");
  };

  const std::vector<std::uint8_t> bytes = valid.encode();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> flipped = bytes;
    flipped[i] ^= 0xff;
    for (const auto& corrupt :
         {flipped, std::vector<std::uint8_t>(
                       bytes.begin(),
                       bytes.begin() + static_cast<std::ptrdiff_t>(i))}) {
      try {
        install(ser::StateBuffer::decode(corrupt));
      } catch (const support::VmError&) {
        ++rejected;  // the decoder's own rejection
      }
    }
  }
  const std::vector<ser::StateFrame>& frames = valid.frames();
  const auto with = [&](std::size_t f, ser::StateFrame frame) {
    ser::StateBuffer out;
    for (std::size_t k = 0; k < frames.size(); ++k) {
      out.push_frame(k == f ? frame : frames[k]);
    }
    return out;
  };
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ser::StateFrame cut = frames[f];
    cut.values.pop_back();
    install(with(f, cut));
    for (std::size_t v = 0; v < frames[f].values.size(); ++v) {
      if (!frames[f].values[v].is_int()) continue;
      for (const std::int64_t x :
           {std::int64_t{-1}, std::int64_t{0},
            std::numeric_limits<std::int64_t>::max()}) {
        ser::StateFrame changed = frames[f];
        changed.values[v] = ser::Value{x};
        install(with(f, changed));
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// The acceptance bar: replacing the aggregator module itself must not
// perturb the cluster view. 215 seeds vary the network schedule AND the
// chaos fault mix (drops, duplicates, delays on every link — telemetry
// superposes the reliable delivery layer like any other traffic).
TEST(Telemetry, ReplaceCollectorByteIdenticalAcross215ChaosSeeds) {
  for (std::uint64_t seed = 1; seed <= 215; ++seed) {
    chaos::FaultInjector faults(seed);  // outlives the bus hook
    auto rt = make_counter(seed, 40);
    rt->enable_metrics();
    chaos::LinkFaults mix;
    mix.drop = 0.04 * static_cast<double>(seed % 3);
    mix.duplicate = 0.03 * static_cast<double>(seed % 4);
    mix.delay = 0.04 * static_cast<double>(seed % 5);
    mix.jitter_us = 200 + (seed % 7) * 300;
    faults.set_default(mix);
    faults.attach(rt->bus());

    auto collector =
        std::make_unique<Collector>(rt->bus(), "collector", "vax");
    auto vax = std::make_unique<Reporter>(rt->bus(), rt->metrics(), "vax",
                                          "collector");
    auto sparc = std::make_unique<Reporter>(rt->bus(), rt->metrics(),
                                            "sparc", "collector");
    rt->run_for(400'000);
    // Stop the reporters, then let retransmissions and the ingest queue
    // drain completely: the window must be frozen before the snapshot.
    vax->stop();
    sparc->stop();
    rt->run_for(2'000'000);
    ASSERT_GT(collector->deltas_applied(), 0u) << "seed " << seed;

    const std::string before = collector->top("json");
    ASSERT_NE(before.find("\"series\":[{"), std::string::npos)
        << "seed " << seed;
    reconfig::ReplaceReport report =
        reconfig::replace_module(*rt, collector, on("vax"));
    EXPECT_EQ(report.new_instance, "collector#2") << "seed " << seed;
    EXPECT_GT(report.state_bytes, 0u) << "seed " << seed;
    EXPECT_EQ(collector->module_name(), "collector#2") << "seed " << seed;

    // Byte-identical: same aggregates through the replacement, and the
    // mh_top query path follows the new instance automatically.
    EXPECT_EQ(collector->top("json"), before) << "seed " << seed;
    bus::Client query(rt->bus(), "client");
    EXPECT_EQ(query.mh_top("json"), before) << "seed " << seed;
  }
}

// A swap that runs out of its round budget before the collector divulges
// rolls back: the clone is gone and the signal withdrawn, so the old
// collector keeps applying deltas instead of passivating on its next tick.
TEST(Telemetry, ReplaceCollectorRollsBackWhenTheBudgetRunsOut) {
  auto rt = make_counter(3, 100'000);
  rt->enable_metrics();
  auto collector = std::make_unique<Collector>(rt->bus(), "collector", "vax");
  Reporter reporter(rt->bus(), rt->metrics(), "vax", "collector");
  rt->run_for(500'000);
  const std::uint64_t before = collector->deltas_applied();
  ASSERT_GT(before, 0u);

  reconfig::ReplaceOptions options = on("sparc");
  options.max_rounds = 2;
  try {
    (void)reconfig::replace_module(*rt, collector, options);
    FAIL() << "expected ScriptError";
  } catch (const reconfig::ScriptError& e) {
    EXPECT_NE(std::string(e.what()).find("[objstate_move]"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(rt->bus().has_module("collector#2"));
  EXPECT_EQ(collector->module_name(), "collector");

  rt->run_for(1'000'000);
  EXPECT_FALSE(collector->passivated());
  EXPECT_GT(collector->deltas_applied(), before);
}

// A native swap honours max_attempts: the first clone crashes on its first
// state delivery, and a fresh clone adopts its bindings and queues and gets
// the held buffer re-delivered, so no window is lost.
TEST(Telemetry, ReplaceCollectorRetriesACrashedClone) {
  const std::uint64_t seed = 5;
  chaos::FaultInjector faults(seed);
  auto rt = make_counter(seed, 40);
  rt->enable_metrics();
  chaos::LinkFaults mix;
  mix.drop = 0.04 * static_cast<double>(seed % 3);
  mix.duplicate = 0.03 * static_cast<double>(seed % 4);
  mix.delay = 0.04 * static_cast<double>(seed % 5);
  mix.jitter_us = 200 + (seed % 7) * 300;
  faults.set_default(mix);
  faults.attach(rt->bus());

  auto collector = std::make_unique<Collector>(rt->bus(), "collector", "vax");
  auto vax =
      std::make_unique<Reporter>(rt->bus(), rt->metrics(), "vax", "collector");
  auto sparc = std::make_unique<Reporter>(rt->bus(), rt->metrics(), "sparc",
                                          "collector");
  rt->run_for(400'000);
  vax->stop();
  sparc->stop();
  rt->run_for(2'000'000);
  const std::string before = collector->top("json");
  ASSERT_NE(before.find("\"series\":[{"), std::string::npos);

  bool armed = true;
  rt->bus().set_state_observer([&](const std::string& module,
                                   const char* phase,
                                   const std::vector<std::uint8_t>&) {
    if (armed && std::string_view(phase) == "delivered") {
      armed = false;
      rt->crash_module(module, "crashed on first state delivery");
    }
  });
  reconfig::ReplaceOptions options = on("vax");
  options.max_attempts = 2;
  const reconfig::ReplaceReport report =
      reconfig::replace_module(*rt, collector, options);
  EXPECT_FALSE(armed);
  EXPECT_EQ(report.attempts, 2);
  EXPECT_EQ(report.new_instance, "collector#3");
  EXPECT_EQ(collector->module_name(), "collector#3");
  EXPECT_FALSE(rt->bus().has_module("collector#2"));
  EXPECT_FALSE(rt->bus().has_module("collector"));
  EXPECT_EQ(collector->top("json"), before);
  bus::Client query(rt->bus(), "client");
  EXPECT_EQ(query.mh_top("json"), before);
}

// A machine crash reaches the native modules it hosts through their bus
// registrations: the dead machine's Reporter stops streaming, so a series
// bumped there after the crash never reaches the collector, while the
// surviving machine's Reporter keeps reporting.
TEST(Telemetry, MachineCrashSilencesItsReporter) {
  auto rt = make_counter(12, 40);
  rt->enable_metrics();
  auto collector = std::make_unique<Collector>(rt->bus(), "collector", "vax");
  Reporter vax(rt->bus(), rt->metrics(), "vax", "collector");
  Reporter sparc(rt->bus(), rt->metrics(), "sparc", "collector");
  for (const auto& [name, machine] :
       {std::pair{"sensor", "sparc"}, std::pair{"meter", "vax"}}) {
    bus::ModuleInfo info;
    info.name = name;
    info.machine = machine;
    rt->bus().add_module(std::move(info));
  }
  rt->run_for(300'000);

  EXPECT_EQ(rt->crash_machine("sparc"),
            std::vector<std::string>{"telemetry@sparc"});
  EXPECT_TRUE(rt->module_crashed("telemetry@sparc"));
  EXPECT_FALSE(rt->module_crashed("telemetry@vax"));
  EXPECT_TRUE(rt->bus().has_module("telemetry@sparc"));  // the corpse
  EXPECT_THROW(rt->crash_module("nosuch"), support::BusError);

  rt->metrics().counter("app_events_total", {{"module", "sensor"}}).inc(5);
  rt->metrics().counter("app_events_total", {{"module", "meter"}}).inc(7);
  rt->run_for(1'000'000);
  const std::string json = collector->top("json");
  EXPECT_EQ(json.find("\"module\":\"sensor\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"module\":\"meter\",\"iface\":\"\","
                      "\"metric\":\"app_events_total\",\"kind\":\"counter\","
                      "\"total\":7,"),
            std::string::npos)
      << json;
}

// --- obs exporters under replacement churn (satellite) -----------------------

// A Figure 5 replacement churns the registry: the clone's series appear
// mid-run, the old instance's series go stale (module gone from the bus
// but series retained). The exporters and the Reporter must keep a
// consistent view; the export is golden-diffed byte for byte, which also
// pins the derived-quantile lines. Regenerate with
//   SURGEON_REGEN_GOLDEN=1 ./profile_test
//       --gtest_filter=Telemetry.ExportersSurviveSeriesChurnGolden
TEST(Telemetry, ExportersSurviveSeriesChurnGolden) {
  auto rt = make_counter(11, 60);
  rt->enable_metrics();
  auto collector =
      std::make_unique<Collector>(rt->bus(), "collector", "vax");
  Reporter reporter(rt->bus(), rt->metrics(), "vax", "collector");
  ASSERT_TRUE(rt->run_until(
      [&] { return !rt->machine_of("client")->output().empty(); }));

  // The churn: replace the server mid-run. server@2's series are born,
  // server's go stale.
  reconfig::ReplaceReport report = reconfig::replace_module(*rt, "server");
  EXPECT_EQ(report.new_instance, "server@2");
  EXPECT_FALSE(rt->bus().has_module("server"));
  // Stale series survive in the registry...
  EXPECT_GT(
      rt->metrics().counter_value("surgeon_bus_messages_sent_total",
                                  {{"module", "server"}, {"iface", "req"}}),
      0u);
  // ...and the Reporter flushes over them without tripping (stale series
  // are simply no longer attributable to a live module).
  reporter.flush();
  rt->run_for(300'000);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 10; }));

  const std::string actual = obs::to_prometheus(rt->metrics());
  const std::string path =
      std::string(SURGEON_GOLDEN_DIR) + "/obs_churn_prometheus.txt";
  if (std::getenv("SURGEON_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "golden file missing: " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str());
  // The interesting churn evidence, independent of exact counts: both
  // generations of the server appear in one consistent export.
  EXPECT_NE(actual.find("module=\"server\""), std::string::npos);
  EXPECT_NE(actual.find("module=\"server@2\""), std::string::npos);
  EXPECT_NE(actual.find("# quantile"), std::string::npos);
}

}  // namespace
}  // namespace surgeon::profile
