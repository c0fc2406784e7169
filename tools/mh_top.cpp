// mh_top: the cluster-telemetry table, rendered live from a simulated
// deployment.
//
// The platform is a deterministic simulation, so "live" means virtual
// time: the tool builds the counter application on a two-machine cluster,
// attaches the telemetry plane (one Reporter per machine streaming
// metric deltas to the Collector over the bus), advances the virtual clock
// frame by frame, and renders bus::Client::mh_top after each frame — the
// same query a cluster operator would issue against a real deployment.
//
// Two optional mid-run reconfigurations demonstrate the observability
// story this PR is about:
//   --replace-server     replace the server via the Figure 5 script; the
//                        disruption metrics (blackout, queued delays) show
//                        up in the table a frame later.
//   --replace-collector  replace the COLLECTOR itself; the table keeps
//                        rendering, windows intact, because the clone
//                        inherits them through the state buffer.
//
// Exit status: 0 = ran to completion with telemetry flowing,
//              1 = no telemetry arrived (the collector applied zero
//                  deltas -- frames too short, reporters misbound, ...),
//              2 = usage error.
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "profile/telemetry.hpp"
#include "reconfig/scripts.hpp"

namespace {

void print_usage(const char* argv0, std::ostream& os) {
  os << "usage: " << argv0
     << " [--frames N] [--interval-us U] [--format table|json]\n"
        "  --frames N          frames to render (default 8)\n"
        "  --interval-us U     virtual microseconds per frame"
        " (default 250000)\n"
        "  --format F          \"table\" (default) or \"json\"\n"
        "  --json              shorthand for --format json\n"
        "  --replace-server    replace the server mid-run (Figure 5)\n"
        "  --replace-collector replace the collector itself mid-run\n"
        "  --help              print this message and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace surgeon;

  std::uint64_t frames = 8;
  net::SimTime interval_us = 250'000;
  std::string format = "table";
  bool replace_server = false;
  bool replace_collector_flag = false;

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
    } else if (std::strcmp(argv[i], "--frames") == 0) {
      frames = std::strtoull(value("--frames"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--interval-us") == 0) {
      interval_us = std::strtoull(value("--interval-us"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--format") == 0) {
      format = value("--format");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      format = "json";
    } else if (std::strcmp(argv[i], "--replace-server") == 0) {
      replace_server = true;
    } else if (std::strcmp(argv[i], "--replace-collector") == 0) {
      replace_collector_flag = true;
    } else {
      print_usage(argv[0], std::cerr);
      return 2;
    }
  }
  if (format != "table" && format != "json") {
    std::cerr << "--format must be \"table\" or \"json\"\n";
    return 2;
  }

  app::Runtime rt(7);
  rt.add_machine("vax", net::arch_vax());
  rt.add_machine("sparc", net::arch_sparc());
  rt.enable_metrics();
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  rt.load_application(config, "counter", [&](const cfg::ModuleSpec& spec) {
    if (spec.name == "client") {
      return app::samples::counter_client_source(
          static_cast<int>(frames * 40));
    }
    return app::samples::counter_server_source();
  });

  auto collector = std::make_unique<profile::Collector>(
      rt.bus(), "collector", "vax");
  profile::Reporter vax_reporter(rt.bus(), rt.metrics(), "vax", "collector");
  profile::Reporter sparc_reporter(rt.bus(), rt.metrics(), "sparc",
                                   "collector");

  bus::Client query(rt.bus(), "collector");
  for (std::uint64_t frame = 0; frame < frames; ++frame) {
    if (frame == frames / 2) {
      if (replace_server) {
        reconfig::ReplaceReport rep = reconfig::replace_module(rt, "server");
        std::cout << "[replaced " << rep.old_instance << " -> "
                  << rep.new_instance << ", blackout " << rep.blackout_us()
                  << "us]\n";
      }
      if (replace_collector_flag) {
        reconfig::ReplaceOptions options;
        options.machine = "vax";
        reconfig::ReplaceReport rep =
            reconfig::replace_module(rt, collector, options);
        std::cout << "[replaced " << rep.old_instance << " -> "
                  << rep.new_instance << ", " << rep.state_bytes
                  << " state bytes]\n";
      }
    }
    rt.run_for(interval_us);
    std::cout << "--- frame " << (frame + 1) << "/" << frames << " t=+"
              << rt.now() << "us ---\n"
              << query.mh_top(format);
    if (format == "json") std::cout << "\n";
  }
  return collector->deltas_applied() == 0 ? 1 : 0;
}
