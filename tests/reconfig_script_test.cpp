// Unit tests of the reconfiguration script engine (Figure 5): error paths,
// option handling, report contents, and script composition details that the
// end-to-end integration tests do not isolate.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "reconfig/scripts.hpp"
#include "trace/assemble.hpp"

namespace surgeon::reconfig {
namespace {

using app::Runtime;

std::unique_ptr<Runtime> make_counter(int requests = 20) {
  auto rt = std::make_unique<Runtime>(2);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  rt->load_application(config, "counter",
                       [&](const cfg::ModuleSpec& spec) {
                         if (spec.name == "client") {
                           return app::samples::counter_client_source(
                               requests);
                         }
                         return app::samples::counter_server_source();
                       });
  return rt;
}

TEST(Script, UnknownModuleThrows) {
  auto rt = make_counter();
  EXPECT_THROW(replace_module(*rt, "ghost", {}), ScriptError);
  EXPECT_THROW(replicate_module(*rt, "ghost", "sparc"), ScriptError);
}

TEST(Script, NonParticipatingModuleTimesOut) {
  // The client has no reconfiguration points: it never divulges, and the
  // script reports that clearly instead of hanging, then rolls back every
  // clone it registered.
  struct Case {
    const char* step;
    std::function<void(Runtime&)> run;
  };
  const Case cases[] = {
      {"replace_module[objstate_move]",
       [](Runtime& rt) {
         ReplaceOptions options;
         options.max_rounds = 30'000;
         (void)replace_module(rt, "client", options);
       }},
      {"replicate_module[objstate_move]",
       [](Runtime& rt) { (void)replicate_module(rt, "client", "sparc"); }},
  };
  for (const Case& c : cases) {
    auto rt = make_counter();
    try {
      c.run(*rt);
      FAIL() << "expected ScriptError";
    } catch (const ScriptError& e) {
      EXPECT_NE(std::string(e.what()).find("never divulged"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find(c.step), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(rt->bus().has_module("client@2")) << c.step;
    EXPECT_FALSE(rt->bus().has_module("client@3")) << c.step;
  }
}

/// A native module on "vax" whose clones reject every state buffer.
class RejectingNative final : public bus::NativeModule {
 public:
  RejectingNative(bus::Bus& bus, const std::string& name, std::string status)
      : NativeModule(bus,
                     {.name = name,
                      .machine = "vax",
                      .status = std::move(status),
                      .source = {},
                      .interfaces = {}},
                     1'000, 1'000) {}

 private:
  bool fold() override { return false; }
  void restore(const ser::StateBuffer&) override {
    throw support::BusError("unusable buffer");
  }
};

// A native clone that rejects the divulged buffer faults, as a VM clone
// that faults in its decode does, and the swap fails with the same
// ScriptError, naming the add step, the clone and the reason.
TEST(Script, NativeCloneThatRejectsItsBufferFaultsTheAdd) {
  auto rt = make_counter();
  RejectingNative source(rt->bus(), "native", "new");
  ReplaceOptions options;
  options.max_attempts = 3;  // a fault is not retried
  try {
    (void)replace_native(
        *rt, "native",
        [&](const std::string& name, const std::string&) {
          return std::unique_ptr<bus::NativeModule>(
              std::make_unique<RejectingNative>(rt->bus(), name, "clone"));
        },
        [](std::unique_ptr<bus::NativeModule> heir) {
          FAIL() << "adopted " << heir->module_name();
        },
        options);
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_EQ(std::string(e.what()),
              "replace_module[add] clone 'native#2': faulted while "
              "installing state: unusable buffer");
  }
  EXPECT_FALSE(rt->bus().has_module("native#3"));
}

TEST(Script, TimeoutDefaultsAreFinite) {
  // Regression: both script timeouts used to default to "wait forever",
  // so a non-participating module on a never-idle application wedged the
  // coordinator until the scheduling budget ran out. The defaults are now
  // finite virtual durations; 0 explicitly requests the old behavior.
  ReplaceOptions defaults;
  EXPECT_GT(defaults.divulge_timeout_us, 0u);
  EXPECT_GT(defaults.restore_timeout_us, 0u);
}

std::unique_ptr<Runtime> make_monitor() {
  // The monitor never goes idle (the sensor free-runs), so divulge waits
  // end only through the timeout -- the case the finite defaults exist for.
  auto rt = std::make_unique<Runtime>(3);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::monitor_config_text());
  rt->load_application(config, "monitor", app::samples::monitor_source_of);
  return rt;
}

TEST(Script, DivulgeTimeoutBoundsNeverIdleApplications) {
  auto rt = make_monitor();
  ReplaceOptions options;
  options.divulge_timeout_us = 50'000;  // display has no reconfig points
  try {
    (void)replace_module(*rt, "display", options);
    FAIL() << "expected ScriptError";
  } catch (const ScriptError& e) {
    EXPECT_NE(std::string(e.what()).find("never divulged"),
              std::string::npos);
    // The error names the Figure 5 step and the module instance.
    EXPECT_NE(std::string(e.what()).find("replace_module[objstate_move]"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("'display'"), std::string::npos);
  }
  EXPECT_GE(rt->now(), 50'000u);  // the wait ended at the virtual deadline
  // The rollback left the application serving on the old instance.
  EXPECT_TRUE(rt->bus().has_module("display"));
  EXPECT_FALSE(rt->bus().has_module("display@2"));
}

TEST(Script, ZeroDivulgeTimeoutWaitsUntilTheRoundBudget) {
  auto rt = make_monitor();
  ReplaceOptions options;
  options.divulge_timeout_us = 0;  // documented: wait forever
  options.max_rounds = 30'000;     // ...bounded only by the round budget
  EXPECT_THROW((void)replace_module(*rt, "display", options), ScriptError);
}

TEST(Script, UnknownTargetMachineLeavesSystemIntact) {
  auto rt = make_counter();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  EXPECT_THROW(move_module(*rt, "server", "atlantis"), support::BusError);
  // The failed script left no half-born clone and the app still works.
  EXPECT_TRUE(rt->bus().has_module("server"));
  EXPECT_EQ(rt->bus().module_names().size(), 2u);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
}

TEST(Script, ReportAccountsForEverything) {
  auto rt = make_counter();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  auto report = replace_module(*rt, "server", {});
  EXPECT_EQ(report.old_instance, "server");
  EXPECT_EQ(report.new_instance, "server@2");
  EXPECT_LE(report.requested_at, report.divulged_at);
  EXPECT_LE(report.divulged_at, report.rebound_at);
  EXPECT_LE(report.rebound_at, report.completed_at);
  EXPECT_GT(report.state_bytes, 0u);
  EXPECT_GT(report.state_frames, 0u);
  EXPECT_EQ(report.total_delay(),
            report.completed_at - report.requested_at);
}

TEST(Script, CloneKeepsInterfaceSpecs) {
  auto rt = make_counter();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 1; },
      10'000'000);
  auto report = replace_module(*rt, "server", {});
  const auto& info = rt->bus().module_info(report.new_instance);
  ASSERT_EQ(info.interfaces.size(), 1u);
  EXPECT_EQ(info.interfaces[0].name, "req");
  EXPECT_EQ(info.interfaces[0].role, bus::IfaceRole::kServer);
  EXPECT_EQ(info.status, "clone");
}

TEST(Script, ZeroDrainStillWorksWhenQuiescent) {
  // With drain disabled (the paper's original script), a replacement in a
  // quiet moment is still lossless.
  auto rt = make_counter();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  ReplaceOptions options;
  options.drain_us = 0;
  auto report = replace_module(*rt, "server", options);
  (void)report;
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
}

TEST(Script, NoWaitForRestoreReturnsEarlier) {
  auto rt = make_counter();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  ReplaceOptions options;
  options.wait_for_restore = false;
  options.drain_us = 0;
  auto report = replace_module(*rt, "server", options);
  // The script returned right after the rebind; the clone may still be
  // restoring, but the application completes regardless.
  EXPECT_EQ(report.completed_at, report.rebound_at);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
}

TEST(Script, IncompatibleReplacementProgramFailsLoudly) {
  // v2 declares a different captured layout (an extra local in bump and a
  // changed format): the old state cannot install, the clone faults, and
  // the script surfaces it as a ScriptError instead of limping on.
  auto rt = make_counter();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  const char* incompatible = R"(
int total = 0;
int extra_global = 0;

void bump(int k, int *out)
{
  int extra;
  if (k <= 0) { return; }
  bump(k - 1, out);
RP:
  extra = k;
  total = total + extra;
  *out = total;
}

void main()
{
  int k;
  int result;
  while (1) {
    mh_read("req", "i", &k);
    bump(k, &result);
    mh_write("req", "i", result);
  }
}
)";
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  minic::Program v2 = minic::parse_program(incompatible);
  minic::analyze(v2);
  xform::prepare_module(v2, config.find_module("server")->reconfig_points);
  auto v2_prog = std::make_shared<const vm::CompiledProgram>(vm::compile(v2));
  EXPECT_THROW((void)update_module(*rt, "server", v2_prog), ScriptError);
}

TEST(Script, ModuleWithoutImageRejected) {
  auto rt = make_counter();
  // A module registered directly with the bus (no Runtime image) cannot be
  // cloned by the script.
  bus::ModuleInfo info;
  info.name = "alien";
  info.machine = "vax";
  rt->bus().add_module(info);
  EXPECT_THROW(replace_module(*rt, "alien", {}), ScriptError);
}

TEST(Script, StepSpansCoverFigureFiveInOrder) {
  // With metrics enabled, one replacement run produces a span per Figure 5
  // step, in script order, with non-decreasing virtual timestamps, plus
  // the drain-window span nested inside "del".
  auto rt = make_counter();
  rt->enable_metrics();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  (void)replace_module(*rt, "server", {});

  std::vector<obs::SpanRecord> steps;
  for (const auto& span : rt->metrics().spans()) {
    if (span.scope == "server" && span.name != kStepDrain) {
      steps.push_back(span);
    }
  }
  ASSERT_EQ(steps.size(), kFigure5Steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i].name, kFigure5Steps[i]) << "step " << i;
    EXPECT_LE(steps[i].begin_us, steps[i].end_us);
    if (i != 0) {
      EXPECT_LE(steps[i - 1].begin_us, steps[i].begin_us);
      EXPECT_GE(steps[i].seq, steps[i - 1].seq);
    }
  }
  // All steps up to "del" complete before the next one opens ("del"
  // contains the drain window, so only its begin is ordered).
  for (std::size_t i = 0; i + 1 < steps.size(); ++i) {
    EXPECT_LE(steps[i].end_us, steps[i + 1].begin_us);
  }
  // The drain window is there, nested inside "del".
  const auto& spans = rt->metrics().spans();
  auto drain = std::find_if(spans.begin(), spans.end(), [](const auto& s) {
    return s.name == kStepDrain;
  });
  ASSERT_NE(drain, spans.end());
  EXPECT_GE(drain->begin_us, steps.back().begin_us);
  // Each step landed in the per-step duration histogram.
  for (const char* step : kFigure5Steps) {
    EXPECT_EQ(rt->metrics()
                  .histogram("surgeon_reconfig_step_us", {{"step", step}})
                  .count(),
              1u)
        << step;
  }
}

TEST(Script, SpansCorrelateWithRecorderEvents) {
  // Span timestamps and recorder timestamps share the virtual clock: the
  // recorder's rebind event falls inside the rebind span.
  auto rt = make_counter();
  rt->enable_metrics();
  rt->enable_causal_tracing();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  (void)replace_module(*rt, "server", {});
  const auto& spans = rt->metrics().spans();
  auto rebind = std::find_if(spans.begin(), spans.end(), [](const auto& s) {
    return s.name == kStepRebind && s.scope == "server";
  });
  ASSERT_NE(rebind, spans.end());
  bool found = false;
  for (const auto& ev : trace::assemble(rt->tracer()).events) {
    if (ev.kind == trace::EventKind::kRebind &&
        ev.at >= rebind->begin_us && ev.at <= rebind->end_us) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Script, ReplicationReportsBothClones) {
  auto rt = make_counter();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  auto report = replicate_module(*rt, "server", "sparc",
                                 /*bind_replica=*/false);
  EXPECT_NE(report.new_instance, report.clones[1]);
  // With bind_replica=false the replica exists, holds the state, but has
  // no bindings: the client only talks to the primary.
  EXPECT_TRUE(
      rt->bus().bound_peers({report.clones[1], "req"}).empty());
  EXPECT_FALSE(
      rt->bus().bound_peers({report.new_instance, "req"}).empty());
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
}

}  // namespace
}  // namespace surgeon::reconfig
