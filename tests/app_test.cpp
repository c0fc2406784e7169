// Unit tests of the application runtime: module lifecycle, cooperative
// scheduling (slices, sleeps, blocking), fault reporting, instance naming,
// configuration loading, and virtual-time accounting.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"

namespace surgeon::app {
namespace {

using support::BusError;

std::unique_ptr<Runtime> two_machines(std::uint64_t seed = 1) {
  auto rt = std::make_unique<Runtime>(seed);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  return rt;
}

ModuleImage image_of(const std::string& src,
                     std::vector<bus::InterfaceSpec> ifaces = {}) {
  minic::Program prog = minic::parse_program(src);
  minic::analyze(prog);
  ModuleImage image;
  image.spec.name = "m";
  image.spec.interfaces = std::move(ifaces);
  image.program = std::make_shared<const vm::CompiledProgram>(
      vm::compile(prog));
  return image;
}

TEST(Runtime, ModuleLifecycle) {
  auto rt = two_machines();
  rt->install_module("m", image_of("void main() { print(1); }"), "vax",
                     "new");
  EXPECT_TRUE(rt->bus().has_module("m"));
  EXPECT_FALSE(rt->module_running("m"));
  rt->start_module("m");
  EXPECT_TRUE(rt->module_running("m"));
  rt->run_until_idle();
  EXPECT_TRUE(rt->module_finished("m"));
  rt->remove_module("m");
  EXPECT_FALSE(rt->bus().has_module("m"));
  EXPECT_EQ(rt->machine_of("m"), nullptr);
}

TEST(Runtime, LifecycleErrors) {
  auto rt = two_machines();
  EXPECT_THROW(rt->start_module("nosuch"), BusError);
  rt->install_module("m", image_of("void main() { }"), "vax", "new");
  rt->start_module("m");
  EXPECT_THROW(rt->start_module("m"), BusError);  // already running
  EXPECT_THROW(
      rt->install_module("m2", image_of("void main() { }"), "", "new"),
      BusError);  // no machine anywhere
}

TEST(Runtime, MachinePlacementPrecedence) {
  auto rt = two_machines();
  ModuleImage image = image_of("void main() { }");
  image.spec.machine = "sparc";
  rt->install_module("a", image, "", "new");       // spec's machine
  rt->install_module("b", image, "vax", "new");    // override wins
  EXPECT_EQ(rt->bus().module_info("a").machine, "sparc");
  EXPECT_EQ(rt->bus().module_info("b").machine, "vax");
}

TEST(Runtime, SleepAdvancesVirtualTime) {
  auto rt = two_machines();
  rt->install_module(
      "m", image_of("void main() { sleep(3); sleep(2); print(clock()); }"),
      "vax", "new");
  rt->start_module("m");
  rt->run_until_idle();
  EXPECT_TRUE(rt->module_finished("m"));
  EXPECT_EQ(rt->now(), 5'000'000u);
  EXPECT_EQ(rt->machine_of("m")->output()[0], "5000000");
}

TEST(Runtime, SleepingModuleIgnoresMessageWakeups) {
  // A message arriving mid-sleep must not cut the sleep short.
  auto rt = two_machines();
  std::vector<bus::InterfaceSpec> sleeper_if = {
      bus::InterfaceSpec{"in", bus::IfaceRole::kUse, "i", ""}};
  ModuleImage sleeper = image_of(R"(
void main() {
  int x;
  sleep(10);
  print("woke", clock());
  mh_read("in", "i", &x);
  print("read", x);
}
)",
                                 sleeper_if);
  sleeper.spec.name = "sleeper";
  rt->install_module("sleeper", std::move(sleeper), "vax", "new");
  rt->start_module("sleeper");

  std::vector<bus::InterfaceSpec> sender_if = {
      bus::InterfaceSpec{"out", bus::IfaceRole::kDefine, "i", ""}};
  ModuleImage sender = image_of(R"(
void main() {
  sleep(1);
  mh_write("out", "i", 7);
}
)",
                                sender_if);
  sender.spec.name = "sender";
  rt->install_module("sender", std::move(sender), "vax", "new");
  rt->start_module("sender");
  rt->bus().add_binding({"sender", "out"}, {"sleeper", "in"});

  rt->run_until_idle();
  rt->check_faults();
  const auto& out = rt->machine_of("sleeper")->output();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], "woke 10000000");  // the full 10s elapsed
  EXPECT_EQ(out[1], "read 7");
}

TEST(Runtime, FaultsAreReportedNotThrown) {
  auto rt = two_machines();
  rt->install_module(
      "m", image_of("void main() { int z; z = 0; print(1 / z); }"), "vax",
      "new");
  rt->start_module("m");
  rt->run_until_idle();
  ASSERT_TRUE(rt->first_fault().has_value());
  EXPECT_EQ(rt->first_fault()->first, "m");
  EXPECT_NE(rt->first_fault()->second.find("division by zero"),
            std::string::npos);
  EXPECT_THROW(rt->check_faults(), BusError);
}

TEST(Runtime, FreshInstanceNamesNeverCollide) {
  auto rt = two_machines();
  std::string a = rt->fresh_instance_name("compute");
  std::string b = rt->fresh_instance_name("compute");
  std::string c = rt->fresh_instance_name(a);  // from a previous clone name
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.substr(0, 8), "compute@");
  EXPECT_EQ(c.substr(0, 8), "compute@");
}

TEST(Runtime, LoadApplicationWiresEverything) {
  auto rt = two_machines();
  cfg::ConfigFile config =
      cfg::parse_config(samples::monitor_config_text());
  rt->load_application(config, "monitor", samples::monitor_source_of);
  EXPECT_TRUE(rt->module_running("display"));
  EXPECT_TRUE(rt->module_running("compute"));
  EXPECT_TRUE(rt->module_running("sensor"));
  // Both configured bindings, and nothing else, from compute's two ends.
  EXPECT_EQ(rt->bus().bound_peers({"compute", "display"}),
            (std::vector<bus::BindingEnd>{{"display", "temper"}}));
  EXPECT_EQ(rt->bus().bound_peers({"compute", "sensor"}),
            (std::vector<bus::BindingEnd>{{"sensor", "out"}}));
  EXPECT_EQ(rt->bus().module_info("sensor").machine, "sparc");
  // The compute module was transformed (it declares a reconfiguration
  // point): its program defines the mh_ machinery.
  const ModuleImage* image = rt->image_of("compute");
  ASSERT_NE(image, nullptr);
  bool has_flag = false;
  for (const auto& g : image->program->globals) {
    if (g.name == "mh_reconfig") has_flag = true;
  }
  EXPECT_TRUE(has_flag);
}

TEST(Runtime, LoadApplicationWithAliasedInstances) {
  // Two instances of the same module specification, with distinct names
  // and placements, each independently reconfigurable.
  auto rt = two_machines();
  cfg::ConfigFile config = cfg::parse_config(R"(
module echo {
  server interface req pattern = {integer} returns = {integer} ::
  reconfiguration point = {RP} ::
}
module driver {
  client interface a pattern = {integer} accepts = {integer} ::
  client interface b pattern = {integer} accepts = {integer} ::
}
application farm {
  instance echo as e1 on "vax" ::
  instance echo as e2 on "sparc" ::
  instance driver on "vax" ::
  bind "driver a" "e1 req" ::
  bind "driver b" "e2 req" ::
}
)");
  rt->load_application(config, "farm", [](const cfg::ModuleSpec& spec) {
    if (spec.name == "echo") {
      return std::string(R"(
int served = 0;
void main() {
  int x;
  while (1) {
    mh_read("req", "i", &x);
RP:
    served = served + 1;
    mh_write("req", "i", x * 2);
  }
}
)");
    }
    return std::string(R"(
void main() {
  int i; int ra; int rb;
  i = 1;
  while (i <= 5) {
    mh_write("a", "i", i);
    mh_write("b", "i", i * 10);
    mh_read("a", "i", &ra);
    mh_read("b", "i", &rb);
    print(ra, rb);
    i = i + 1;
  }
  print("driver-done");
}
)");
  });
  EXPECT_TRUE(rt->module_running("e1"));
  EXPECT_TRUE(rt->module_running("e2"));
  EXPECT_EQ(rt->bus().module_info("e2").machine, "sparc");
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("driver"); }, 10'000'000));
  rt->check_faults();
  const auto& out = rt->machine_of("driver")->output();
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0], "2 20");
  EXPECT_EQ(out[4], "10 100");
  // Each instance served exactly its own stream.
  EXPECT_EQ(std::get<std::int64_t>(rt->machine_of("e1")->global("served")),
            5);
  EXPECT_EQ(std::get<std::int64_t>(rt->machine_of("e2")->global("served")),
            5);
}

TEST(Runtime, LoadApplicationCompilesEachModuleOnce) {
  // Six instances of one module, with the second module's instance in the
  // middle: the source is fetched and prepared once per module, every
  // instance of a module runs the same compiled image, and each instance
  // still has a VM and globals of its own.
  auto rt = two_machines();
  cfg::ConfigFile config = cfg::parse_config(R"(
module worker {
  server interface req pattern = {integer} returns = {integer} ::
  reconfiguration point = {RP} ::
}
module caller {
  client interface a pattern = {integer} accepts = {integer} ::
  client interface b pattern = {integer} accepts = {integer} ::
}
application fleet {
  instance worker as w0 on "vax" ::
  instance worker as w1 on "sparc" ::
  instance worker as w2 on "vax" ::
  instance caller on "vax" ::
  instance worker as w3 on "sparc" ::
  instance worker as w4 on "vax" ::
  instance worker as w5 on "sparc" ::
  bind "caller a" "w0 req" ::
  bind "caller b" "w4 req" ::
}
)");
  std::map<std::string, int> fetched;
  rt->load_application(config, "fleet", [&](const cfg::ModuleSpec& spec) {
    ++fetched[spec.name];
    if (spec.name == "worker") {
      return std::string(R"(
int served = 0;
void main() {
  int x;
  while (1) {
    mh_read("req", "i", &x);
RP:
    served = served + x;
    mh_write("req", "i", x);
  }
}
)");
    }
    return std::string(R"(
void main() {
  int i; int r;
  i = 1;
  while (i <= 3) {
    mh_write("a", "i", i);
    mh_write("b", "i", i * 10);
    mh_read("a", "i", &r);
    mh_read("b", "i", &r);
    i = i + 1;
  }
}
)");
  });
  EXPECT_EQ(fetched,
            (std::map<std::string, int>{{"caller", 1}, {"worker", 1}}));
  const std::vector<std::string> workers{"w0", "w1", "w2", "w3", "w4", "w5"};
  const ModuleImage* first = rt->image_of("w0");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(rt->image_of("caller"), nullptr);
  EXPECT_NE(rt->image_of("caller")->program.get(), first->program.get());
  for (const std::string& w : workers) {
    const ModuleImage* image = rt->image_of(w);
    ASSERT_NE(image, nullptr) << w;
    EXPECT_EQ(image->program.get(), first->program.get()) << w;
    EXPECT_EQ(image->spec.name, "worker") << w;
    EXPECT_TRUE(rt->module_running(w)) << w;
  }
  EXPECT_NE(rt->machine_of("w0"), rt->machine_of("w4"));
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("caller"); }, 10'000'000));
  rt->check_faults();
  const auto served = [&](const std::string& w) {
    return std::get<std::int64_t>(rt->machine_of(w)->global("served"));
  };
  EXPECT_EQ(served("w0"), 1 + 2 + 3);
  EXPECT_EQ(served("w4"), 10 + 20 + 30);
  EXPECT_EQ(served("w1"), 0);
}

TEST(Runtime, LoadApplicationErrors) {
  auto rt = two_machines();
  cfg::ConfigFile config =
      cfg::parse_config(samples::monitor_config_text());
  EXPECT_THROW(rt->load_application(config, "nosuch",
                                    samples::monitor_source_of),
               BusError);
  cfg::ConfigFile bad = cfg::parse_config(R"(
application broken { instance ghost on "vax" :: }
)");
  EXPECT_THROW(
      rt->load_application(bad, "broken", samples::monitor_source_of),
      BusError);
}

TEST(Runtime, LoadsTheOnDiskMonitorApplication) {
  // The shipped examples/apps/monitor files (what mh_run consumes) load,
  // run, and reconfigure exactly like the embedded samples.
  namespace fs = std::filesystem;
  fs::path base = fs::path(SURGEON_APPS_DIR) / "monitor";
  auto read_file = [](const fs::path& p) {
    std::ifstream in(p);
    EXPECT_TRUE(in.good()) << p;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  auto rt = two_machines();
  cfg::ConfigFile config = cfg::parse_config(read_file(base / "monitor.cfg"));
  rt->load_application(config, "monitor", [&](const cfg::ModuleSpec& spec) {
    return read_file(base / spec.source);
  });
  rt->run_for(10'000'000);
  rt->check_faults();
  EXPECT_GE(rt->machine_of("display")->output().size(), 2u);
}

TEST(Runtime, RunUntilStopsWhenIdle) {
  auto rt = two_machines();
  bool result = rt->run_until([] { return false; }, 1000);
  EXPECT_FALSE(result);  // idle immediately, predicate still false
}

TEST(Runtime, InstructionCostChargesVirtualTime) {
  auto rt = two_machines();
  rt->set_instruction_cost_ns(1000);  // 1us per instruction
  rt->install_module("m", image_of(R"(
void main() {
  int i;
  i = 0;
  while (i < 100) { i = i + 1; }
}
)"),
                     "vax", "new");
  rt->start_module("m");
  rt->run_until_idle();
  // ~5 instructions per loop iteration at 1us each: several hundred us.
  EXPECT_GT(rt->now(), 100u);
  EXPECT_EQ(rt->now(),
            rt->machine_of("m")->instructions_executed() * 1000 / 1000);
}

TEST(Runtime, SliceBoundsInterleaving) {
  // Two compute-bound modules must interleave: with a small slice neither
  // can monopolize the scheduler.
  auto rt = two_machines();
  rt->set_slice(100);
  const char* src = R"(
void main() {
  int i;
  i = 0;
  while (i < 2000) { i = i + 1; }
  print(clock());
}
)";
  ModuleImage a = image_of(src);
  ModuleImage b = image_of(src);
  rt->install_module("a", std::move(a), "vax", "new");
  rt->install_module("b", std::move(b), "sparc", "new");
  rt->start_module("a");
  rt->start_module("b");
  // Run exactly one scheduling round: both must have progressed.
  ASSERT_TRUE(rt->step());
  EXPECT_EQ(rt->machine_of("a")->instructions_executed(), 100u);
  EXPECT_EQ(rt->machine_of("b")->instructions_executed(), 100u);
  rt->run_until_idle();
  EXPECT_TRUE(rt->module_finished("a"));
  EXPECT_TRUE(rt->module_finished("b"));
}

TEST(Runtime, StopModuleLeavesBusRegistration) {
  auto rt = two_machines();
  rt->install_module("m", image_of("void main() { sleep(100); }"), "vax",
                     "new");
  rt->start_module("m");
  (void)rt->step();
  rt->stop_module("m");
  EXPECT_TRUE(rt->bus().has_module("m"));  // messages can still queue
  EXPECT_FALSE(rt->module_running("m"));
  // And it can be started again (fresh VM, fresh state).
  rt->start_module("m");
  EXPECT_TRUE(rt->module_running("m"));
}

// --- the scheduler's ready list ----------------------------------------------
//
// step() visits only runnable processes, kept in a name-ordered ready list
// that every lifecycle transition updates. These tests pin the transitions
// such a list can get wrong.

constexpr std::uint64_t kSpinSlice = 50;

/// Three always-runnable modules, started out of name order: a and c on the
/// vax, b on the sparc. Each records the virtual time its first slice began.
std::unique_ptr<Runtime> spinners() {
  auto rt = two_machines();
  rt->set_slice(kSpinSlice);
  rt->set_instruction_cost_ns(1000);  // each slice moves the clock 50us
  const char* src = R"(
void main() {
  int i;
  print(clock());
  i = 0;
  while (1) { i = i + 1; }
}
)";
  for (const char* name : {"c", "a", "b"}) {
    rt->install_module(name, image_of(src),
                       std::string(name) == "b" ? "sparc" : "vax", "new");
    rt->start_module(name);
  }
  return rt;
}

std::uint64_t insns(Runtime& rt, const std::string& instance) {
  const vm::Machine* m = rt.machine_of(instance);
  return m == nullptr ? 0 : m->instructions_executed();
}

TEST(Scheduler, OneStepRunsEveryRunnableProcessOnceInNameOrder) {
  auto rt = spinners();
  ASSERT_TRUE(rt->step());
  for (const char* name : {"a", "b", "c"}) {
    EXPECT_EQ(insns(*rt, name), kSpinSlice) << name;
  }
  // Name order, not start order: a's slice ran first, then b's, then c's.
  EXPECT_EQ(rt->machine_of("a")->output(), std::vector<std::string>{"0"});
  EXPECT_EQ(rt->machine_of("b")->output(), std::vector<std::string>{"50"});
  EXPECT_EQ(rt->machine_of("c")->output(), std::vector<std::string>{"100"});
  ASSERT_TRUE(rt->step());
  for (const char* name : {"a", "b", "c"}) {
    EXPECT_EQ(insns(*rt, name), 2 * kSpinSlice) << name;
  }
}

TEST(Scheduler, AllBlockedStepRunsExactlyOneEvent) {
  auto rt = two_machines();
  std::vector<bus::InterfaceSpec> ifaces = {
      bus::InterfaceSpec{"in", bus::IfaceRole::kUse, "i", ""}};
  for (const char* name : {"r1", "r2"}) {
    rt->install_module(name,
                       image_of("void main() { int x; mh_read(\"in\", \"i\", "
                                "&x); print(x); }",
                                ifaces),
                       "vax", "new");
    rt->start_module(name);
  }
  ASSERT_TRUE(rt->step());  // both run until they block in mh_read
  const std::uint64_t r1 = insns(*rt, "r1");
  const std::uint64_t r2 = insns(*rt, "r2");
  ASSERT_GT(r1, 0u);
  int fired = 0;
  rt->simulator().schedule_after(5, [&fired] { ++fired; });
  rt->simulator().schedule_after(7, [&fired] { ++fired; });
  ASSERT_TRUE(rt->step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(rt->now(), 5u);
  EXPECT_EQ(insns(*rt, "r1"), r1);
  EXPECT_EQ(insns(*rt, "r2"), r2);
  ASSERT_TRUE(rt->step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(rt->step());  // nothing runnable, nothing pending: idle
  EXPECT_EQ(insns(*rt, "r1"), r1);
}

TEST(Scheduler, ProcessesLeavingTheReadyListAreNeverSteppedAgain) {
  // Each transition takes runnable b out of the ready list, between
  // rounds; a and c must keep running and b must never be stepped again.
  const std::vector<std::pair<std::string, std::function<void(Runtime&)>>>
      transitions = {
          {"crash_after 0", [](Runtime& rt) { rt.crash_after("b", 0); }},
          {"crash_module", [](Runtime& rt) { rt.crash_module("b"); }},
          {"crash_machine",
           [](Runtime& rt) {
             EXPECT_EQ(rt.crash_machine("sparc"),
                       std::vector<std::string>{"b"});
           }},
          {"stop_module", [](Runtime& rt) { rt.stop_module("b"); }},
          {"remove_module", [](Runtime& rt) { rt.remove_module("b"); }},
      };
  for (const auto& [what, transition] : transitions) {
    SCOPED_TRACE(what);
    auto rt = spinners();
    ASSERT_TRUE(rt->step());
    transition(*rt);
    for (int round = 0; round < 4; ++round) ASSERT_TRUE(rt->step());
    EXPECT_EQ(insns(*rt, "a"), 5 * kSpinSlice);
    EXPECT_EQ(insns(*rt, "c"), 5 * kSpinSlice);
    EXPECT_FALSE(rt->module_running("b"));
    if (rt->machine_of("b") != nullptr) {
      EXPECT_EQ(insns(*rt, "b"), kSpinSlice);  // crashed, never stepped
      EXPECT_TRUE(rt->module_crashed("b"));
    }
  }
}

TEST(Scheduler, RestartedProcessRunsAgain) {
  auto rt = spinners();
  ASSERT_TRUE(rt->step());
  rt->crash_module("b");
  ASSERT_TRUE(rt->step());
  EXPECT_EQ(insns(*rt, "b"), kSpinSlice);
  rt->restart_module("b");
  EXPECT_TRUE(rt->module_running("b"));
  EXPECT_EQ(insns(*rt, "b"), 0u);  // a fresh VM
  ASSERT_TRUE(rt->step());
  EXPECT_EQ(insns(*rt, "b"), kSpinSlice);
  EXPECT_EQ(insns(*rt, "a"), 3 * kSpinSlice);
  EXPECT_EQ(insns(*rt, "c"), 3 * kSpinSlice);
  // A delayed restart armed by crash_after comes back the same way, once
  // the simulator gets a turn (nothing else is runnable).
  rt->stop_module("a");
  rt->stop_module("b");
  rt->crash_after("c", 0, /*restart_after_us=*/10);
  ASSERT_TRUE(rt->step());  // c's crash fires at its turn
  EXPECT_TRUE(rt->module_crashed("c"));
  EXPECT_FALSE(rt->module_running("c"));
  ASSERT_TRUE(rt->step());  // the restart event
  EXPECT_TRUE(rt->module_running("c"));
  EXPECT_EQ(insns(*rt, "c"), 0u);
  ASSERT_TRUE(rt->step());
  EXPECT_EQ(insns(*rt, "c"), kSpinSlice);
}

}  // namespace
}  // namespace surgeon::app
