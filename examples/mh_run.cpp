// mh_run: load a configuration file and its MiniC modules from disk, run
// the application on the simulated network, and optionally perform
// reconfigurations at scheduled virtual times. The command-line face of the
// whole platform.
//
// Usage:
//   mh_run <config.cfg> <application> [options]
//
// Options:
//   --for <seconds>            virtual run time (default 30)
//   --machines a,b,...         machines to create (default vax,sparc)
//   --move <module>:<machine>@<t>    move module at virtual second t
//   --replace <module>@<t>           replace module in place at second t
//   --update <module>=<src.mc>@<t>   hot-swap module for a new version
//   --optimize                 run the optimizer after the transformation
//   --liveness                 capture live variables only
//   --trace                    print the flight recorder's causal timeline
//                              and every module's full output
//   --seed <n>                 simulation seed (default 1)
//
// Example (the paper's Figure 1 reconfiguration):
//   mh_run examples/apps/monitor/monitor.cfg monitor --for 40 [newline]
//       --move compute:sparc@12
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include <algorithm>

#include "app/runtime.hpp"
#include "support/strutil.hpp"
#include "cfg/parser.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "opt/optimizer.hpp"
#include "reconfig/scripts.hpp"
#include "trace/assemble.hpp"
#include "vm/compiler.hpp"
#include "xform/transform.hpp"

namespace {

using namespace surgeon;

struct ScheduledAction {
  net::SimTime at_us = 0;
  std::string module;
  std::string machine;      // for --move
  std::string new_source;   // for --update: path to the v2 MiniC source
};

struct Options {
  std::string config_path;
  std::string application;
  net::SimTime run_for_us = 30'000'000;
  std::vector<std::string> machines = {"vax", "sparc"};
  std::vector<ScheduledAction> actions;
  bool optimize = false;
  bool liveness = false;
  bool trace = false;
  std::uint64_t seed = 1;
};

int usage() {
  std::cerr << "usage: mh_run <config.cfg> <application>\n"
               "  [--for <secs>] [--machines a,b,...]\n"
               "  [--move <module>:<machine>@<sec>] [--replace <module>@<sec>]\n"
               "  [--update <module>=<src.mc>@<sec>]\n"
               "  [--optimize] [--liveness] [--trace] [--seed <n>]\n";
  return 2;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw support::Error("cannot open " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Virtual seconds: the whole text a finite, non-negative number whose
// microseconds fit a SimTime.
std::optional<net::SimTime> parse_seconds(const std::string& text) {
  double secs = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, secs);
  const double us = secs * 1'000'000.0;
  if (ec != std::errc{} || ptr != end || !(us >= 0 && us < 0x1p64)) {
    return std::nullopt;
  }
  return static_cast<net::SimTime>(us);
}

// A seed: decimal digits only, within 64 bits.
std::optional<std::uint64_t> parse_seed(const std::string& text) {
  std::uint64_t seed = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, seed);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return seed;
}

bool parse_args(int argc, char** argv, Options& opts) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) throw support::Error(a + " needs a value");
      return args[++i];
    };
    auto bad_value = [&a](const std::string& value) {
      std::cerr << "error: bad " << a << " value '" << value << "'\n";
      return false;
    };
    if (a == "--for") {
      const std::string value = next();
      const auto us = parse_seconds(value);
      if (!us) return bad_value(value);
      opts.run_for_us = *us;
    } else if (a == "--machines") {
      opts.machines = support::split(next(), ',');
    } else if (a == "--move" || a == "--replace" || a == "--update") {
      std::string spec = next();
      auto at_pos = spec.rfind('@');
      if (at_pos == std::string::npos) {
        throw support::Error(a + " needs <module>[...]@<sec>");
      }
      ScheduledAction action;
      const auto at_us = parse_seconds(spec.substr(at_pos + 1));
      if (!at_us) return bad_value(spec);
      action.at_us = *at_us;
      std::string target = spec.substr(0, at_pos);
      if (a == "--move") {
        auto colon = target.find(':');
        if (colon == std::string::npos) {
          throw support::Error("--move needs <module>:<machine>@<sec>");
        }
        action.module = target.substr(0, colon);
        action.machine = target.substr(colon + 1);
      } else if (a == "--update") {
        auto eq = target.find('=');
        if (eq == std::string::npos) {
          throw support::Error("--update needs <module>=<src.mc>@<sec>");
        }
        action.module = target.substr(0, eq);
        action.new_source = target.substr(eq + 1);
      } else {
        action.module = target;
      }
      opts.actions.push_back(std::move(action));
    } else if (a == "--optimize") {
      opts.optimize = true;
    } else if (a == "--liveness") {
      opts.liveness = true;
    } else if (a == "--trace") {
      opts.trace = true;
    } else if (a == "--seed") {
      const std::string value = next();
      const auto seed = parse_seed(value);
      if (!seed) return bad_value(value);
      opts.seed = *seed;
    } else if (!a.empty() && a[0] == '-') {
      return false;
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) return false;
  opts.config_path = positional[0];
  opts.application = positional[1];
  std::sort(opts.actions.begin(), opts.actions.end(),
            [](const auto& x, const auto& y) { return x.at_us < y.at_us; });
  return true;
}

net::Arch arch_for(std::size_t index) {
  auto arches = net::reference_arches();
  return arches[index % arches.size()];
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    if (!parse_args(argc, argv, opts)) return usage();

    app::Runtime rt(opts.seed);
    for (std::size_t i = 0; i < opts.machines.size(); ++i) {
      net::Arch arch = arch_for(i);
      arch.name = opts.machines[i];
      rt.add_machine(opts.machines[i], arch);
      std::cout << "machine " << opts.machines[i] << " ("
                << (arch.byte_order == support::ByteOrder::kBig ? "big"
                                                                : "little")
                << "-endian)\n";
    }

    if (opts.trace) rt.enable_causal_tracing();
    std::filesystem::path base =
        std::filesystem::path(opts.config_path).parent_path();
    cfg::ConfigFile config = cfg::parse_config(read_file(opts.config_path));
    xform::XformOptions xopts;
    xopts.use_liveness = opts.liveness;

    rt.load_application(
        config, opts.application,
        [&](const cfg::ModuleSpec& spec) {
          if (spec.source.empty()) {
            throw support::Error("module " + spec.name +
                                 " has no source attribute");
          }
          return read_file(base / spec.source);
        },
        xopts, opts.optimize);
    std::cout << "loaded application '" << opts.application << "' with "
              << rt.bus().module_names().size() << " modules\n";

    // Track current instance names through replacements.
    std::map<std::string, std::string> alias;
    for (const auto& name : rt.bus().module_names()) alias[name] = name;

    for (const auto& action : opts.actions) {
      if (action.at_us > rt.now()) rt.run_for(action.at_us - rt.now());
      rt.check_faults();
      const std::string instance = alias.at(action.module);
      reconfig::ReplaceReport report;
      if (!action.new_source.empty()) {
        std::cout << "t=" << rt.now() / 1e6 << "s: updating " << instance
                  << " from " << action.new_source << "...\n";
        const cfg::ModuleSpec* spec =
            config.find_module(rt.image_of(instance)->spec.name);
        minic::Program v2 =
            minic::parse_program(read_file(base / action.new_source));
        minic::analyze(v2);
        if (!spec->reconfig_points.empty()) {
          xform::prepare_module(v2, spec->reconfig_points, xopts);
        }
        if (opts.optimize) {
          (void)opt::optimize(v2);
          minic::analyze(v2);
        }
        auto v2_prog =
            std::make_shared<const vm::CompiledProgram>(vm::compile(v2));
        report = reconfig::update_module(rt, instance, v2_prog);
      } else if (!action.machine.empty()) {
        std::cout << "t=" << rt.now() / 1e6 << "s: moving " << instance
                  << " to " << action.machine << "...\n";
        report = reconfig::move_module(rt, instance, action.machine);
      } else {
        std::cout << "t=" << rt.now() / 1e6 << "s: replacing " << instance
                  << " in place...\n";
        report = reconfig::replace_module(rt, instance, {});
      }
      alias[action.module] = report.new_instance;
      std::cout << "  -> " << report.new_instance << " ("
                << report.state_bytes << " state bytes, "
                << report.state_frames << " frames, "
                << report.queued_messages_moved << " queued msgs, delay "
                << report.total_delay() / 1e6 << "s)\n";
    }
    if (opts.run_for_us > rt.now()) rt.run_for(opts.run_for_us - rt.now());
    rt.check_faults();

    if (opts.trace) {
      const trace::Dag dag = trace::assemble(rt.tracer());
      std::uint64_t evicted = 0;
      for (const auto& machine : rt.tracer().machines()) {
        evicted += rt.tracer().dropped(machine);
      }
      std::cout << "---- recorder timeline (" << dag.events.size()
                << " events";
      if (evicted != 0) std::cout << ", " << evicted << " oldest evicted";
      std::cout << ")\n" << trace::to_timeline(dag);
    }
    std::cout << "---- finished at t=" << rt.now() / 1e6 << "s; "
              << rt.bus().stats().messages_delivered
              << " messages delivered, "
              << rt.bus().stats().messages_dropped_unbound << " dropped\n";
    for (const auto& [module, instance] : alias) {
      vm::Machine* m = rt.machine_of(instance);
      if (m == nullptr) continue;
      std::cout << "== " << instance << " ("
                << rt.bus().module_info(instance).machine
                << "): " << vm::run_state_name(m->state()) << ", "
                << m->instructions_executed() << " instructions\n";
      if (opts.trace || !m->output().empty()) {
        std::size_t shown = 0;
        for (const auto& line : m->output()) {
          if (!opts.trace && shown++ >= 10) {
            std::cout << "   ... (" << m->output().size() - 10
                      << " more lines)\n";
            break;
          }
          std::cout << "   " << line << "\n";
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
