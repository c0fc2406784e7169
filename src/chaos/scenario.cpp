#include "chaos/scenario.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "net/arch.hpp"
#include "reconfig/scripts.hpp"
#include "recover/recovery.hpp"
#include "replicate/kv.hpp"
#include "replicate/manager.hpp"
#include "trace/checker.hpp"

namespace surgeon::chaos {

const char* sample_app_name(SampleApp app) noexcept {
  switch (app) {
    case SampleApp::kCounter: return "counter";
    case SampleApp::kPipeline: return "pipeline";
    case SampleApp::kMonitor: return "monitor";
    case SampleApp::kKv: return "kv";
  }
  return "?";
}

std::string ScenarioSpec::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " app=" << sample_app_name(app)
     << " items=" << work_items << " drop=" << faults.drop
     << " dup=" << faults.duplicate << " delay=" << faults.delay
     << " jitter=" << faults.jitter_us << "us partitions=" << partitions.size()
     << " crash_clone=" << (crash_clone ? 1 : 0)
     << " crash_coordinator_at_step=" << crash_coordinator_at_step
     << " replace_after=" << replace_after_outputs << " machine="
     << (target_machine.empty() ? "<same>" : target_machine);
  if (app == SampleApp::kKv) {
    // The artifact line must name the killed machine(s): a failing-seed
    // report is only actionable when it says which host died and when.
    os << " kv_shards=" << kv_shards << " kv_group=" << kv_group_size
       << " kv_machines=" << kv_machines << " kv_spares=" << kv_spares;
    if (kv_kill_machine >= 0) {
      os << " kill=m" << kv_kill_machine << "@" << kv_kill_at_us << "us";
    } else {
      os << " kill=none";
    }
    if (kv_second_kill_machine >= 0) {
      os << " second_kill=m" << kv_second_kill_machine << "@"
         << kv_second_kill_at_us << "us";
    }
  }
  return os.str();
}

namespace {

struct AppRoles {
  const char* application;
  const char* target;    // the module the scenario replaces
  const char* observer;  // the module whose printed output is checked
};

AppRoles roles_for(SampleApp app) {
  switch (app) {
    case SampleApp::kCounter: return {"counter", "server", "client"};
    case SampleApp::kPipeline: return {"pipeline", "filter", "sink"};
    case SampleApp::kMonitor: return {"monitor", "compute", "display"};
    case SampleApp::kKv: return {"kv", "shard", "client"};
  }
  return {"counter", "server", "client"};
}

constexpr std::uint64_t kRounds = 100'000'000;

/// Chaos variant of the pipeline feeder: one item per virtual second.
/// The stock feeder floods every item at t~0, so in a fault-free run the
/// filter drains the whole stream before a mid-run replacement signal can
/// land and then blocks in mh_read, never reaching its reconfiguration
/// point again. Pacing the feeder keeps items flowing across the
/// replacement window -- which is the situation the scenario is about.
std::string paced_feeder_source(int count) {
  return R"mc(
void main()
{
  int i;
  i = 1;
  while (i <= )mc" +
         std::to_string(count) + R"mc() {
    mh_write("out", "i", i);
    sleep(1);
    i = i + 1;
  }
  print("feeder-done");
}
)mc";
}

std::unique_ptr<app::Runtime> build_app(const ScenarioSpec& spec) {
  auto rt = std::make_unique<app::Runtime>(spec.seed);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  rt->bus().set_delivery(spec.delivery);
  // The reconfiguration scripts "run" on sparc, so control-plane traffic
  // (signal, state buffer, their acks) crosses a real, faultable link even
  // when the whole application lives on vax.
  rt->bus().set_control_machine("sparc");
  cfg::ConfigFile config;
  app::Runtime::SourceProvider provider;
  switch (spec.app) {
    case SampleApp::kCounter:
      config = cfg::parse_config(app::samples::counter_config_text());
      provider = [&spec](const cfg::ModuleSpec& s) {
        return s.name == "client"
                   ? app::samples::counter_client_source(spec.work_items)
                   : app::samples::counter_server_source();
      };
      break;
    case SampleApp::kPipeline:
      config = cfg::parse_config(app::samples::pipeline_config_text());
      provider = [&spec](const cfg::ModuleSpec& s) {
        if (s.name == "feeder") return paced_feeder_source(spec.work_items);
        if (s.name == "filter") return app::samples::pipeline_filter_source();
        return app::samples::pipeline_sink_source();
      };
      break;
    case SampleApp::kMonitor:
      config = cfg::parse_config(app::samples::monitor_config_text());
      provider = [](const cfg::ModuleSpec& s) {
        return app::samples::monitor_source_of(s);
      };
      break;
    case SampleApp::kKv:
      // kv scenarios take the run_kv_pass path; they never build the
      // two-machine replacement topology.
      throw support::Error("kv scenarios do not run through run_pass");
  }
  rt->load_application(config, roles_for(spec.app).application, provider);
  return rt;
}

/// Everything one pass (golden or chaos) produces.
struct PassResult {
  std::vector<std::string> output;
  bool app_done = false;
  std::string vm_fault;  // "module X faulted: ..." or empty
  bool replaced = false;
  bool recovered_forward = false;
  int attempts = 0;
  std::string new_instance;
  std::string abort_reason;
  net::SimTime replace_started_at = 0;
  std::vector<std::string> final_modules;  // bus registry when the pass ends
  /// Invariant 3's evidence, from the recorder: when the first state
  /// capture was divulged, and when every rebind fired.
  std::optional<net::SimTime> first_divulge_at;
  std::vector<net::SimTime> rebinds_at;
  std::vector<std::vector<std::uint8_t>> divulged;
  std::vector<std::vector<std::uint8_t>> delivered;
  bus::ReliableStats rstats;
  std::string drain_failure;
  std::vector<std::string> hb_violations;
  std::uint64_t hb_events = 0;
};

PassResult run_pass(const ScenarioSpec& spec, FaultSource* injector) {
  PassResult pr;
  const AppRoles roles = roles_for(spec.app);
  auto rt_owner = build_app(spec);
  app::Runtime& rt = *rt_owner;
  if (injector != nullptr) injector->attach(rt.bus());
  rt.enable_metrics();
  // Invariants 3 and 5 run online over the flight recorder: the observer
  // sees every event as it is recorded, before the ring can evict it.
  rt.enable_causal_tracing();
  trace::HbChecker hb_checker;
  rt.tracer().add_observer([&hb_checker, &pr](const trace::Event& ev) {
    hb_checker.observe(ev);
    if (ev.kind == trace::EventKind::kDivulge && !pr.first_divulge_at) {
      pr.first_divulge_at = ev.at;
    } else if (ev.kind == trace::EventKind::kRebind) {
      pr.rebinds_at.push_back(ev.at);
    }
  });
  // The state observer doubles as the crash trigger: killing the clone
  // exactly when its first state buffer lands is deterministic across
  // retransmissions (the bus deduplicates redeliveries before observing).
  bool crash_armed = injector != nullptr && spec.crash_clone;
  rt.bus().set_state_observer(
      [&pr, &rt, &crash_armed](const std::string& module, const char* phase,
                               const std::vector<std::uint8_t>& bytes) {
        if (std::string_view(phase) == "divulged") {
          pr.divulged.push_back(bytes);
          return;
        }
        pr.delivered.push_back(bytes);
        if (crash_armed && app::logical_name(module) != module &&
            rt.module_running(module)) {
          crash_armed = false;
          rt.crash_module(module, "chaos: crashed on first state delivery");
        }
      });

  auto out_size = [&rt, &roles] {
    vm::Machine* m = rt.machine_of(roles.observer);
    return m == nullptr ? std::size_t{0} : m->output().size();
  };

  // Phase 1: let the application serve before interfering.
  (void)rt.run_until(
      [&] {
        return out_size() >=
               static_cast<std::size_t>(spec.replace_after_outputs);
      },
      kRounds);

  // Phase 2: the Figure 5 replacement, with the chaos retry/abort options.
  // Chaos passes journal every boundary to the control machine's WAL, so a
  // coordinator crash (crash_coordinator_at_step) leaves a log for the
  // recovery path to roll forward or back, just as ISSUE 5's restarted
  // coordinator would.
  reconfig::ReplaceOptions options;
  options.machine = spec.target_machine;
  options.max_attempts = spec.max_attempts;
  options.divulge_timeout_us = spec.divulge_timeout_us;
  options.restore_timeout_us = spec.restore_timeout_us;
  std::optional<recover::Wal> wal;
  if (injector != nullptr) {
    wal.emplace(rt.simulator().durable_store("sparc"));
    options.journal = &*wal;
    if (spec.crash_coordinator_at_step >= 0) {
      const std::vector<const char*> boundaries =
          reconfig::journal_intents(reconfig::replace_shape());
      const char* boundary =
          boundaries[static_cast<std::size_t>(spec.crash_coordinator_at_step) %
                     boundaries.size()];
      options.crash_hook = [boundary](const char* step) {
        if (std::string_view(step) == boundary) {
          throw recover::CoordinatorCrash(
              std::string("chaos: coordinator crashed at '") + step + "'");
        }
      };
    }
  }
  pr.replace_started_at = rt.now();
  try {
    reconfig::ReplaceReport report =
        reconfig::replace_module(rt, roles.target, options);
    pr.replaced = true;
    pr.attempts = report.attempts;
    pr.new_instance = report.new_instance;
  } catch (const recover::CoordinatorCrash& e) {
    // The coordinator process died mid-script. Its successor scans the WAL
    // and completes or rolls back the open transaction.
    recover::RecoveryReport rec = recover::recover_coordinator(rt, *wal);
    if (rec.rolled_forward) {
      pr.replaced = true;
      pr.recovered_forward = true;
      pr.attempts = 1;
      pr.new_instance = rec.new_instance;
    } else {
      pr.abort_reason = e.what();
    }
  } catch (const reconfig::ScriptError& e) {
    pr.abort_reason = e.what();
  }

  // Phase 3: run the application to its finish line.
  switch (spec.app) {
    case SampleApp::kCounter:
      pr.app_done = rt.run_until(
          [&] { return rt.module_finished("client"); }, kRounds);
      break;
    case SampleApp::kPipeline:
      pr.app_done = rt.run_until(
          [&] {
            return rt.module_finished("feeder") &&
                   out_size() >= static_cast<std::size_t>(spec.work_items);
          },
          kRounds);
      break;
    case SampleApp::kMonitor: {
      // The monitor serves forever; liveness = the display kept printing
      // for another window of virtual time.
      std::size_t before = out_size();
      rt.run_for(10'000'000, kRounds);
      pr.app_done = out_size() > before;
      break;
    }
    case SampleApp::kKv:
      break;  // unreachable: build_app rejected the spec already
  }
  if (rt.first_fault().has_value()) {
    pr.vm_fault = "module '" + rt.first_fault()->first +
                  "' faulted: " + rt.first_fault()->second;
  }

  // Phase 4: quiesce and check that the reliable layer drained. The
  // monitor never idles (its modules loop on timers), so the drain check
  // applies to the finite apps only.
  if (spec.app != SampleApp::kMonitor) {
    rt.run_until_idle(kRounds);
    pr.rstats = rt.bus().reliable_stats();
    if (pr.rstats.gave_up == 0) {
      std::ostringstream os;
      if (rt.bus().unacked_total() != 0) {
        os << "unacked_total=" << rt.bus().unacked_total() << " after idle; ";
      }
      if (rt.bus().ooo_total() != 0) {
        os << "ooo_total=" << rt.bus().ooo_total() << " after idle; ";
      }
      if (rt.bus().pending_control_total() != 0) {
        os << "pending_control=" << rt.bus().pending_control_total()
           << " after idle; ";
      }
      for (const auto& [key, gauge] : rt.metrics().gauges()) {
        if (key.first == "surgeon_bus_queue_depth" && gauge.value() != 0) {
          os << "queue-depth gauge nonzero for";
          for (const auto& [k, v] : key.second) os << " " << k << "=" << v;
          os << "; ";
        }
      }
      pr.drain_failure = os.str();
    }
  } else {
    pr.rstats = rt.bus().reliable_stats();
  }

  vm::Machine* observer = rt.machine_of(roles.observer);
  if (observer != nullptr) pr.output = observer->output();
  pr.final_modules = rt.bus().module_names();
  pr.hb_violations = hb_checker.violations();
  pr.hb_events = hb_checker.observed();
  if (injector != nullptr && spec.chaos_pass_observer) {
    spec.chaos_pass_observer(rt);
  }
  return pr;
}

/// Records a violation (all are kept; `failure` mirrors the first) and
/// returns false, for use in check chains.
bool fail(ScenarioResult& result, const std::string& message) {
  result.violations.push_back(message);
  if (result.failure.empty()) result.failure = message;
  return false;
}

/// Invariant 1, counter: replies 1..N each exactly once, in order, then
/// "client-done". Pipeline: the sink's `seen` sequence is exactly 1..N.
bool check_no_loss_no_dup(const ScenarioSpec& spec,
                          const std::vector<std::string>& output,
                          ScenarioResult& result) {
  const std::size_t n = static_cast<std::size_t>(spec.work_items);
  if (spec.app == SampleApp::kCounter) {
    if (output.size() != n + 1) {
      return fail(result, "invariant 1: expected " + std::to_string(n + 1) +
                              " client lines, got " +
                              std::to_string(output.size()));
    }
    for (std::size_t i = 1; i <= n; ++i) {
      const std::string prefix = "reply " + std::to_string(i) + " ";
      if (output[i - 1].rfind(prefix, 0) != 0) {
        return fail(result, "invariant 1: line " + std::to_string(i - 1) +
                                " is '" + output[i - 1] + "', expected '" +
                                prefix + "...'");
      }
    }
    if (output[n] != "client-done") {
      return fail(result, "invariant 1: missing client-done line");
    }
    return true;
  }
  if (spec.app == SampleApp::kPipeline) {
    if (output.size() != n) {
      return fail(result, "invariant 1: expected " + std::to_string(n) +
                              " sink lines, got " +
                              std::to_string(output.size()));
    }
    for (std::size_t i = 1; i <= n; ++i) {
      // sink prints "item <2*i> <seen>": `seen` must count 1..N with no
      // gap (lost item) and no repeat (double-applied item).
      const std::string expect = "item " + std::to_string(2 * i) + " " +
                                 std::to_string(i);
      if (output[i - 1] != expect) {
        return fail(result, "invariant 1: line " + std::to_string(i - 1) +
                                " is '" + output[i - 1] + "', expected '" +
                                expect + "'");
      }
    }
    return true;
  }
  return true;  // monitor: sensor is random; liveness checked elsewhere
}

/// Invariant 2: every delivered state buffer is byte-identical to the most
/// recently divulged one (retries re-deliver the same capture).
bool check_state_fidelity(const PassResult& pass, ScenarioResult& result) {
  if (!pass.delivered.empty() && pass.divulged.empty()) {
    return fail(result, "invariant 2: state delivered but never divulged");
  }
  for (const auto& bytes : pass.delivered) {
    if (bytes != pass.divulged.back()) {
      return fail(result,
                  "invariant 2: delivered state (" +
                      std::to_string(bytes.size()) +
                      " bytes) differs from divulged state (" +
                      std::to_string(pass.divulged.back().size()) + " bytes)");
    }
  }
  if (pass.replaced && pass.divulged.empty()) {
    return fail(result, "invariant 2: replacement completed without a "
                        "divulged state capture");
  }
  return true;
}

/// Invariant 3: no rebind of the replacement fires before the old module
/// reached quiescence (divulged its state).
bool check_rebind_after_quiescence(const PassResult& pass,
                                   ScenarioResult& result) {
  if (!pass.replaced) return true;
  if (!pass.first_divulge_at) {
    return fail(result, "invariant 3: no state-divulged trace event");
  }
  // Only the first post-launch rebind switches the bindings; earlier ones
  // belong to the application load.
  auto rebind = std::find_if(
      pass.rebinds_at.begin(), pass.rebinds_at.end(),
      [&pass](net::SimTime at) { return at >= pass.replace_started_at; });
  if (rebind == pass.rebinds_at.end()) {
    return fail(result, "invariant 3: replacement completed without a rebind");
  }
  if (*rebind < *pass.first_divulge_at) {
    return fail(result, "invariant 3: rebind at t=" + std::to_string(*rebind) +
                            "us before quiescence at t=" +
                            std::to_string(*pass.first_divulge_at) + "us");
  }
  return true;
}

/// Invariant 6: the final configuration is consistent. Exactly one
/// instance of the replaced logical module (any @generation) remains
/// registered -- a crash that leaves the old instance AND a half-installed
/// clone behind, or neither, has wedged the application.
bool check_consistent_configuration(const ScenarioSpec& spec,
                                    const PassResult& pass,
                                    ScenarioResult& result) {
  const std::string target = roles_for(spec.app).target;
  std::vector<std::string> generations;
  for (const std::string& name : pass.final_modules) {
    if (app::logical_name(name) == target) generations.push_back(name);
  }
  if (generations.size() != 1) {
    std::string listing;
    for (const auto& g : generations) listing += " " + g;
    return fail(result, "invariant 6: expected exactly one '" + target +
                            "' instance after the run, found " +
                            std::to_string(generations.size()) + ":" +
                            listing);
  }
  return true;
}

/// Invariant 5: the online happens-before checker saw a nonempty causal
/// event stream and flagged nothing.
bool check_happens_before_stream(std::uint64_t events,
                                 const std::vector<std::string>& violations,
                                 const char* which, ScenarioResult& result) {
  if (events == 0) {
    return fail(result, std::string("invariant 5: ") + which +
                            " pass recorded no causal events (tracing "
                            "was not running)");
  }
  if (!violations.empty()) {
    std::string msg = std::string("invariant 5: ") + which + " pass: " +
                      violations.front();
    if (violations.size() > 1) {
      msg += " (+" + std::to_string(violations.size() - 1) +
             " more violations)";
    }
    return fail(result, msg);
  }
  return true;
}

bool check_happens_before(const PassResult& pass, const char* which,
                          ScenarioResult& result) {
  return check_happens_before_stream(pass.hb_events, pass.hb_violations,
                                     which, result);
}

/// Joins the first violation with a "+N more" suffix, so one invariant
/// contributes one comparable message however many witnesses it has.
std::string first_plus_more(const std::vector<std::string>& all) {
  std::string msg = all.front();
  if (all.size() > 1) {
    msg += " (+" + std::to_string(all.size() - 1) + " more)";
  }
  return msg;
}

// --- kv (replica-group machine-loss) scenarios ------------------------------

/// Everything one kv pass produces. The chaos pass runs the kills and the
/// injected link faults; the golden pass is the same service fault-free
/// and kill-free (the client's report is emitted post-run in key/seq
/// order, so the two are comparable line-for-line).
struct KvPassResult {
  std::vector<std::string> output;  // client report
  bool app_done = false;
  std::string vm_fault;
  std::vector<std::string> ledger_violations;
  std::uint64_t stale_gets = 0;
  std::uint64_t data_loss_groups = 0;
  std::uint64_t machines_rebuilt = 0;
  std::uint64_t groups_rebuilt = 0;
  std::vector<std::string> redundancy_violations;  // invariant 6 evidence
  std::vector<std::string> hb_violations;
  std::uint64_t hb_events = 0;
  bus::ReliableStats rstats;
};

KvPassResult run_kv_pass(const ScenarioSpec& spec, FaultSource* injector) {
  KvPassResult pr;
  auto rt_owner = std::make_unique<app::Runtime>(spec.seed);
  app::Runtime& rt = *rt_owner;

  replicate::KvOptions kv;
  kv.seed = spec.seed;
  kv.shards = static_cast<std::size_t>(spec.kv_shards);
  kv.group_size = static_cast<std::size_t>(spec.kv_group_size);
  kv.machines.clear();
  for (int i = 0; i < spec.kv_machines; ++i) {
    kv.machines.push_back("m" + std::to_string(i));
    rt.add_machine(kv.machines.back(), net::arch_vax());
  }
  std::vector<std::string> spares;
  for (int i = 0; i < spec.kv_spares; ++i) {
    spares.push_back("sp" + std::to_string(i));
    rt.add_machine(spares.back(), net::arch_sparc());
  }
  rt.add_machine(kv.control_machine, net::arch_vax());
  rt.bus().set_delivery(spec.delivery);
  rt.bus().set_control_machine(kv.control_machine);
  if (injector != nullptr) injector->attach(rt.bus());
  rt.enable_metrics();
  rt.enable_causal_tracing();
  trace::HbChecker hb_checker;
  rt.tracer().add_observer(
      [&hb_checker](const trace::Event& ev) { hb_checker.observe(ev); });

  replicate::KvService service(rt, kv);
  service.launch(spec.work_items);

  // Production cadence, scaled down so a confirm-then-rebuild cycle fits
  // inside the workload: heartbeats every 5ms, confirmed dead after 60ms
  // of host-wide silence. Heartbeats are direct runtime callbacks, not
  // wire messages, so the injected link faults can delay the service's
  // traffic but never forge a machine death.
  replicate::ManagerOptions mopts;
  mopts.heartbeat_interval_us = 5'000;
  mopts.sweep_interval_us = 20'000;
  mopts.detector.suspicion_timeout_us = 30'000;
  mopts.detector.confirm_timeout_us = 60'000;
  mopts.spares = spares;
  mopts.divulge_timeout_us = spec.divulge_timeout_us;
  mopts.restore_timeout_us = spec.restore_timeout_us;
  replicate::GroupManager manager(service, mopts);
  manager.start();

  // Kills run on the virtual clock, chaos pass only: the golden pass is
  // the same spec with neither faults nor machine loss.
  auto advance_to = [&rt](net::SimTime t) {
    if (rt.now() < t) (void)rt.run_for(t - rt.now(), kRounds);
  };
  if (injector != nullptr && spec.kv_kill_machine >= 0) {
    advance_to(spec.kv_kill_at_us);
    (void)rt.crash_machine("m" + std::to_string(spec.kv_kill_machine));
    if (spec.kv_second_kill_machine >= 0) {
      advance_to(spec.kv_second_kill_at_us);
      const std::string second =
          "m" + std::to_string(spec.kv_second_kill_machine);
      if (!rt.machine_dead(second)) (void)rt.crash_machine(second);
    }
  }

  pr.app_done = service.run_to_completion(60'000'000, 400'000'000);
  // A kill near the end of the workload can leave the rebuild in flight
  // when the client finishes; give the manager time to restore redundancy
  // before the final configuration check.
  (void)rt.run_for(500'000, kRounds);
  manager.stop();

  if (rt.first_fault().has_value()) {
    pr.vm_fault = "module '" + rt.first_fault()->first +
                  "' faulted: " + rt.first_fault()->second;
  }
  pr.output = service.client().report();
  pr.ledger_violations = service.client().ledger_violations();
  pr.stale_gets = service.router().stats().stale_gets;
  pr.data_loss_groups = manager.stats().data_loss_groups;
  pr.machines_rebuilt = manager.stats().machines_rebuilt;
  pr.groups_rebuilt = manager.stats().groups_rebuilt;
  pr.rstats = rt.bus().reliable_stats();

  // Final-configuration evidence for invariant 6: every group at full
  // strength, members running, on distinct live machines.
  for (std::size_t g = 0; g < kv.shards; ++g) {
    const auto members = service.router().members(g);
    const std::string tag = "group " + std::to_string(g);
    if (members.size() != kv.group_size) {
      pr.redundancy_violations.push_back(
          tag + " has " + std::to_string(members.size()) + " members, want " +
          std::to_string(kv.group_size));
      continue;
    }
    std::set<std::string> hosts;
    for (const auto& m : members) {
      if (!rt.module_running(m)) {
        pr.redundancy_violations.push_back(tag + " member " + m +
                                           " is not running");
      }
      const std::string host = rt.bus().module_info(m).machine;
      if (rt.machine_dead(host)) {
        pr.redundancy_violations.push_back(tag + " member " + m +
                                           " sits on dead machine " + host);
      }
      hosts.insert(host);
    }
    if (hosts.size() != members.size()) {
      pr.redundancy_violations.push_back(tag +
                                         " has co-located members");
    }
  }

  pr.hb_violations = hb_checker.violations();
  pr.hb_events = hb_checker.observed();
  if (injector != nullptr && spec.chaos_pass_observer) {
    spec.chaos_pass_observer(rt);
  }
  return pr;
}

ScenarioResult run_kv_scenario_with(const ScenarioSpec& spec,
                                    FaultSource& source,
                                    const std::vector<std::string>* golden) {
  ScenarioResult result;
  result.old_instance = roles_for(spec.app).target;

  KvPassResult chaos = run_kv_pass(spec, &source);
  result.replaced = chaos.machines_rebuilt > 0;
  result.attempts = static_cast<int>(chaos.groups_rebuilt);
  result.output = chaos.output;
  result.rstats = chaos.rstats;
  result.fstats = source.stats();
  result.hb_events = chaos.hb_events;

  // Fatal harness failures first, alone, exactly like the replacement
  // scenarios: a wedged pass makes the invariant verdicts below noise.
  if (!chaos.vm_fault.empty()) {
    fail(result, "chaos pass: " + chaos.vm_fault);
    return result;
  }
  if (!chaos.app_done) {
    fail(result, "kv client did not finish its script (kill=" +
                     (spec.kv_kill_machine >= 0
                          ? "m" + std::to_string(spec.kv_kill_machine)
                          : std::string("none")) +
                     ")");
    return result;
  }

  // Invariant 7, the scenario's reason to exist: acked-write durability
  // across the machine loss. Three independent witnesses.
  if (!chaos.ledger_violations.empty()) {
    fail(result, "invariant 7: " + first_plus_more(chaos.ledger_violations));
  }
  if (chaos.stale_gets != 0) {
    fail(result, "invariant 7: " + std::to_string(chaos.stale_gets) +
                     " stale GETs (replica members disagreed on a "
                     "committed value)");
  }
  if (chaos.data_loss_groups != 0) {
    fail(result, "invariant 7: " + std::to_string(chaos.data_loss_groups) +
                     " group(s) lost every member (no survivor to pull "
                     "state from)");
  }
  check_happens_before_stream(chaos.hb_events, chaos.hb_violations, "chaos",
                              result);
  if (!chaos.redundancy_violations.empty()) {
    fail(result,
         "invariant 6: " + first_plus_more(chaos.redundancy_violations));
  }

  // Invariant 4: the client's deterministic post-run report matches the
  // fault-free, kill-free reference. Sound because the client is globally
  // FIFO and the router acks a write only once EVERY member applied it --
  // the values a GET observes are a function of the op script alone, not
  // of fault or rebuild timing.
  ScenarioSpec reference = spec;
  reference.kv_kill_machine = -1;
  reference.kv_second_kill_machine = -1;
  if (golden != nullptr) {
    result.golden = *golden;
  } else {
    KvPassResult ref = run_kv_pass(reference, nullptr);
    result.golden = ref.output;
    if (!ref.vm_fault.empty() || !ref.app_done) {
      fail(result, "golden pass failed: " +
                       (ref.vm_fault.empty() ? "kv client did not finish"
                                             : ref.vm_fault));
      return result;
    }
    check_happens_before_stream(ref.hb_events, ref.hb_violations, "golden",
                                result);
  }
  if (chaos.output != result.golden) {
    fail(result, "invariant 4: output (" +
                     std::to_string(chaos.output.size()) +
                     " lines) differs from fault-free golden run (" +
                     std::to_string(result.golden.size()) + " lines)");
  }
  return result;
}

}  // namespace

ScenarioResult run_scenario_with(const ScenarioSpec& spec, FaultSource& source,
                                 const std::vector<std::string>* golden) {
  if (spec.app == SampleApp::kKv) {
    return run_kv_scenario_with(spec, source, golden);
  }
  ScenarioResult result;
  result.old_instance = roles_for(spec.app).target;

  // Chaos pass first (it is the one under test); golden pass only for the
  // apps with deterministic output.
  PassResult chaos = run_pass(spec, &source);
  result.replaced = chaos.replaced;
  result.recovered_forward = chaos.recovered_forward;
  result.abort_reason = chaos.abort_reason;
  result.new_instance = chaos.new_instance;
  result.attempts = chaos.attempts;
  result.output = chaos.output;
  result.rstats = chaos.rstats;
  result.fstats = source.stats();
  result.hb_events = chaos.hb_events;

  // Fatal harness failures: the pass never produced a checkable run, so
  // the invariant checks below would only report noise about its wreckage.
  if (!chaos.vm_fault.empty()) {
    fail(result, "chaos pass: " + chaos.vm_fault);
    return result;
  }
  if (!chaos.app_done) {
    fail(result, result.replaced
                     ? "application did not finish after replacement"
                     : "application did not keep serving after abort ('" +
                           chaos.abort_reason + "')");
    return result;
  }
  if (!chaos.drain_failure.empty()) {
    fail(result, "bookkeeping leak: " + chaos.drain_failure);
    return result;
  }

  // Every invariant is checked even after one fails: a schedule is
  // described by the full set of invariants it violates, so the sweep,
  // the systematic explorer, and plan_check report comparable verdicts.
  check_no_loss_no_dup(spec, chaos.output, result);
  check_state_fidelity(chaos, result);
  check_rebind_after_quiescence(chaos, result);
  check_happens_before(chaos, "chaos", result);
  check_consistent_configuration(spec, chaos, result);

  if (spec.app != SampleApp::kMonitor) {
    if (golden != nullptr) {
      result.golden = *golden;
    } else {
      PassResult reference = run_pass(spec, nullptr);
      result.golden = reference.output;
      if (!reference.vm_fault.empty() || !reference.app_done ||
          !reference.replaced) {
        fail(result, "golden pass failed: " +
                         (reference.vm_fault.empty() ? reference.abort_reason
                                                     : reference.vm_fault));
        return result;
      }
      check_happens_before(reference, "golden", result);
    }
    if (chaos.output != result.golden) {
      fail(result, "invariant 4: output (" +
                       std::to_string(chaos.output.size()) +
                       " lines) differs from fault-free golden run (" +
                       std::to_string(result.golden.size()) + " lines)");
    }
  }
  return result;
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  FaultInjector injector(spec.seed);
  injector.set_default(spec.faults);
  for (const auto& p : spec.partitions) injector.add_partition(p);
  return run_scenario_with(spec, injector);
}

std::vector<std::string> golden_output(const ScenarioSpec& spec) {
  if (spec.app == SampleApp::kKv) {
    ScenarioSpec reference = spec;
    reference.kv_kill_machine = -1;
    reference.kv_second_kill_machine = -1;
    KvPassResult golden = run_kv_pass(reference, nullptr);
    if (!golden.vm_fault.empty() || !golden.app_done) {
      throw support::Error(
          "golden pass failed for '" + spec.describe() + "': " +
          (golden.vm_fault.empty() ? "kv client did not finish"
                                   : golden.vm_fault));
    }
    return golden.output;
  }
  PassResult golden = run_pass(spec, nullptr);
  if (!golden.vm_fault.empty() || !golden.app_done || !golden.replaced) {
    throw support::Error(
        "golden pass failed for '" + spec.describe() + "': " +
        (golden.vm_fault.empty()
             ? (golden.abort_reason.empty() ? "application did not finish"
                                            : golden.abort_reason)
             : golden.vm_fault));
  }
  return golden.output;
}

std::vector<int> violated_invariants(const ScenarioResult& r) {
  std::vector<int> ids;
  for (const std::string& v : r.violations) {
    int id = 0;  // fatal harness failure
    if (v.rfind("invariant ", 0) == 0 && v.size() > 10) {
      id = v[10] - '0';
      if (id < 1 || id > 7) id = 0;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

ScenarioSpec random_scenario(std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  std::uint64_t pick = rng.next_below(10);
  spec.app = pick < 5   ? SampleApp::kCounter
             : pick < 8 ? SampleApp::kPipeline
                        : SampleApp::kMonitor;
  spec.work_items = 6 + static_cast<int>(rng.next_below(10));
  spec.faults.drop = rng.next_double() * 0.12;
  spec.faults.duplicate = rng.next_double() * 0.10;
  spec.faults.delay = rng.next_double() * 0.20;
  spec.faults.jitter_us = 500 + rng.next_below(4'500);
  if (rng.next_below(10) < 3) {
    // A vax--sparc partition that always heals well inside the divulge and
    // restore timeouts, so partitions delay replacements without forcing
    // aborts (the deliberate-abort path has its own directed test).
    net::SimTime from = 1'000'000 + rng.next_below(3'000'000);
    spec.partitions.push_back(
        Partition{"vax", "sparc", from, from + 300'000 + rng.next_below(1'200'000)});
  }
  spec.crash_clone = rng.next_below(10) < 2;
  if (rng.next_below(10) < 2) {
    // Coordinator-crash scenario: pick one of the eight boundaries. The
    // clone-crash trigger is disabled for these -- recovery's roll-forward
    // is single-shot (no retry chain), so a clone killed on state delivery
    // mid-recovery is a different scenario, covered by directed tests.
    spec.crash_coordinator_at_step = static_cast<int>(rng.next_below(
        reconfig::journal_intents(reconfig::replace_shape()).size()));
    spec.crash_clone = false;
  }
  spec.replace_after_outputs = 1 + static_cast<int>(rng.next_below(4));
  spec.target_machine = rng.next_below(2) == 0 ? "" : "sparc";
  spec.max_attempts = 4 + static_cast<int>(rng.next_below(3));
  return spec;
}

ScenarioSpec random_kv_scenario(std::uint64_t seed) {
  support::SplitMix64 rng(seed);
  ScenarioSpec spec;
  spec.seed = seed;
  spec.app = SampleApp::kKv;
  spec.work_items = 20 + static_cast<int>(rng.next_below(20));
  // Milder link faults than the replacement scenarios: the kv pass runs a
  // whole self-healing cycle (detect, rebuild, rebalance traffic), so the
  // interesting adversary is the machine kill, with the faults keeping
  // the wire honest rather than dominating the schedule.
  spec.faults.drop = rng.next_double() * 0.06;
  spec.faults.duplicate = rng.next_double() * 0.05;
  spec.faults.delay = rng.next_double() * 0.10;
  spec.faults.jitter_us = 200 + rng.next_below(2'800);
  spec.kv_shards = 2 + static_cast<int>(rng.next_below(3));
  spec.kv_group_size = 2 + static_cast<int>(rng.next_below(2));
  spec.kv_machines =
      spec.kv_group_size + 1 + static_cast<int>(rng.next_below(2));
  spec.kv_spares = 2;
  spec.kv_kill_machine = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(spec.kv_machines)));
  spec.kv_kill_at_us = 8'000 + static_cast<net::SimTime>(rng.next_below(40'000));
  if (spec.kv_group_size >= 3 && rng.next_below(3) == 0) {
    // Overlapping loss: the second machine dies while the first rebuild
    // is likely mid-flight. 3-groups tolerate it; 2-groups would not.
    spec.kv_second_kill_machine = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(spec.kv_machines)));
    if (spec.kv_second_kill_machine == spec.kv_kill_machine) {
      spec.kv_second_kill_machine =
          (spec.kv_second_kill_machine + 1) % spec.kv_machines;
    }
    spec.kv_second_kill_at_us =
        spec.kv_kill_at_us + 40'000 +
        static_cast<net::SimTime>(rng.next_below(100'000));
  }
  return spec;
}

}  // namespace surgeon::chaos
