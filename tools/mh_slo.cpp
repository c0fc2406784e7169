// mh_slo: the SLO attainment report, rendered from a simulated deployment
// under diurnal load.
//
// The scenario is the one the paper's transparency claim lives or dies on:
// the open pipeline serving an open-loop diurnal day (bench/workload.hpp),
// with a Figure 5 replacement of the filter fired at the midday rate peak.
// The SLO plane (slo::Probe on vax streaming request completions to
// slo::Monitor on sparc) watches the whole day; the replacement's blackout
// window [divulged, restored] is registered with the monitor, so the
// report correlates latency violations with the reconfiguration that
// caused them.
//
// Two optional mid-run twists mirror mh_top's:
//   --no-replace        leave the filter alone (the control run)
//   --replace-monitor   replace the MONITOR itself at three-quarter day;
//                       windows, counters, and the alert id sequence ride
//                       the state buffer, so the report is unaffected.
//
// Narration goes to stderr; stdout carries only the report, so
//   mh_slo --json | jq .
// works. Output is byte-stable for a fixed spec and seed.
//
// Exit status: 0 = SLO met (no alert fired all day, nothing firing now),
//              1 = SLO breached (an alert fired, or a detector is firing),
//              2 = usage error.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/workload.hpp"
#include "reconfig/scripts.hpp"
#include "slo/monitor.hpp"
#include "slo/slo.hpp"

namespace {

void print_usage(const char* argv0, std::ostream& os) {
  os << "usage: " << argv0
     << " [--requests N] [--day-us U] [--seed S] [--objective SPEC]...\n"
        "          [--format text|json | --json] [--no-replace]"
        " [--replace-monitor]\n"
        "  --requests N       expected arrivals over the day"
        " (default 20000)\n"
        "  --day-us U         day length in virtual us (default 240000000)\n"
        "  --seed S           workload seed (default 1)\n"
        "  --insn-cost-ns C   virtual ns per VM instruction (default\n"
        "                     50000): makes the filter a real bottleneck,\n"
        "                     so the midday peak shows up in the tail\n"
        "  --objective SPEC   add an objective, e.g.\n"
        "                     \"pipeline-p99 service=pipeline p99<2000us"
        " window=60s fast=5s@14 slow=60s@6\"\n"
        "                     (repeatable; a default pipeline p99 objective"
        " is used when omitted)\n"
        "  --format F         \"text\" (default) or \"json\"\n"
        "  --json             shorthand for --format json\n"
        "  --no-replace       skip the midday filter replacement\n"
        "  --replace-monitor  replace the monitor itself at 3/4 day\n"
        "  --help             print this message and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace surgeon;

  bench::DiurnalSpec spec;
  spec.requests = 20'000;
  spec.day_us = 240'000'000;  // four virtual minutes
  std::uint64_t insn_cost_ns = 50'000;
  std::vector<std::string> objective_specs;
  std::string format = "text";
  bool replace_filter = true;
  bool replace_monitor_flag = false;

  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        print_usage(argv[0], std::cerr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0], std::cout);
      return 0;
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      spec.requests = std::strtoull(value("--requests"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--day-us") == 0) {
      spec.day_us = std::strtoull(value("--day-us"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      spec.seed = std::strtoull(value("--seed"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--insn-cost-ns") == 0) {
      insn_cost_ns = std::strtoull(value("--insn-cost-ns"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--objective") == 0) {
      objective_specs.emplace_back(value("--objective"));
    } else if (std::strcmp(argv[i], "--format") == 0) {
      format = value("--format");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      format = "json";
    } else if (std::strcmp(argv[i], "--no-replace") == 0) {
      replace_filter = false;
    } else if (std::strcmp(argv[i], "--replace-monitor") == 0) {
      replace_monitor_flag = true;
    } else {
      print_usage(argv[0], std::cerr);
      return 2;
    }
  }
  if (format != "text" && format != "json") {
    std::cerr << "--format must be \"text\" or \"json\"\n";
    return 2;
  }
  if (spec.day_us == 0 || spec.requests == 0) {
    std::cerr << "--requests and --day-us must be positive\n";
    return 2;
  }
  if (objective_specs.empty()) {
    // Calibrated to the default scenario: baseline end-to-end latency is
    // ~2010us (two wire hops), the midday saturation tail crosses 2500us.
    objective_specs.push_back(
        "pipeline-p99 service=pipeline p99<2500us window=60s fast=10s@4"
        " slow=60s@2");
  }

  bench::DiurnalScenario s = bench::make_diurnal_pipeline(spec);
  app::Runtime& rt = *s.runtime;
  rt.enable_metrics();
  rt.set_instruction_cost_ns(insn_cost_ns);

  auto monitor =
      std::make_unique<slo::Monitor>(rt.bus(), "slomon", "sparc");
  for (const std::string& os : objective_specs) {
    try {
      monitor->add_objective(slo::parse_objective(os));
    } catch (const std::exception& e) {
      std::cerr << "bad --objective: " << e.what() << "\n";
      return 2;
    }
  }
  slo::Probe probe(rt.bus(), rt.tracer(), "vax", "pipeline", "slomon");

  constexpr std::uint64_t kRounds = 100'000'000'000ULL;
  s.source->start();
  const net::SimTime midday = s.source->midday_at();
  const net::SimTime evening = s.source->started_at() + spec.day_us * 3 / 4;

  bool replaced = false, monitor_replaced = false;
  bool day_done = rt.run_until(
      [&] {
        if (replace_filter && !replaced && rt.now() >= midday) {
          reconfig::ReplaceReport rep = reconfig::replace_module(rt, "filter");
          monitor->note_blackout(rep.divulged_at, rep.restored_at);
          std::cerr << "[replaced " << rep.old_instance << " -> "
                    << rep.new_instance << ", blackout " << rep.blackout_us()
                    << "us]\n";
          replaced = true;
        }
        if (replace_monitor_flag && !monitor_replaced &&
            rt.now() >= evening) {
          reconfig::ReplaceOptions options;
          options.machine = "sparc";
          reconfig::ReplaceReport rep =
              reconfig::replace_module(rt, monitor, options);
          std::cerr << "[replaced " << rep.old_instance << " -> "
                    << rep.new_instance << ", " << rep.state_bytes
                    << " state bytes]\n";
          monitor_replaced = true;
        }
        return s.source->done();
      },
      kRounds);
  if (!day_done) {
    std::cerr << "day did not complete (simulator went idle?)\n";
    return 2;
  }
  // Drain the tail: let the pipeline finish, stream the lingering partial
  // batch, then give the (possibly backed-off) monitor a full max_tick_us
  // to apply it and run the detectors.
  rt.run_for(500'000, kRounds);
  probe.flush();
  rt.run_for(1'100'000, kRounds);
  probe.stop();

  bus::Client query(rt.bus(), monitor->module_name());
  std::cout << query.mh_slo(format);
  if (format == "json") std::cout << "\n";

  bool breached = false;
  for (const slo::Engine::ObjectiveStatus& st :
       monitor->engine().objective_status(rt.now())) {
    if (st.firing || st.alerts_total > 0) breached = true;
  }
  return breached ? 1 : 0;
}
