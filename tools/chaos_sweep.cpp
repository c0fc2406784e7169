// Deep randomized sweep over chaos scenarios, built for the nightly CI job.
//
// Enumerates seeds through chaos::random_scenario and, every
// --coordinator-every seeds, swaps the derived fault mix for a directed
// coordinator kill at one of the eight Figure 5 step boundaries (cycling
// through them), so a long sweep always exercises WAL roll-forward and
// roll-back alongside the message-level faults.
//
// On the first invariant violation the sweep stops and writes two files
// into --artifacts:
//
//   failing_seed.txt      the spec (seed first), the violated invariant,
//                         and the exact replay recipe,
//   flight_recorder.txt   the per-machine causal journals of a fresh run
//                         of the same seed, dumped via the flight recorder.
//
// With --kv the seeds run machine-loss scenarios instead: the sharded KV
// service loses a ring machine (sometimes two) under link faults and the
// GroupManager must rebuild with the acked-write ledger intact (invariant
// 7). Failing-seed artifacts name the killed machine via the spec line
// (kill=mN@Tus).
//
// With --systematic the random seed sweep is replaced by the bounded
// DPOR-style exploration of chaos::explore: every schedule of coordinator
// crash point x dropped wire copies x partition window (up to --max-drops)
// runs exactly once, schedules differing only by reorderings of
// independent wire events are pruned, and every explored schedule is
// checked against all seven invariants. Failing schedules are written to
// --artifacts/failing_schedules.txt. Combined --systematic --kv swaps the
// crash-boundary dimension for the machine-kill dimension: every (machine,
// kill time) rebuild schedule x drop set runs exactly once.
//
// Exit status: 0 = every seed passed, 1 = a seed failed (artifacts
// written), 2 = bad usage.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "chaos/scenario.hpp"
#include "chaos/systematic.hpp"
#include "trace/recorder.hpp"

namespace {

using surgeon::chaos::ScenarioResult;
using surgeon::chaos::ScenarioSpec;

void print_usage(const char* argv0, std::ostream& os) {
  os << "usage: " << argv0
     << " [--seeds N] [--start S] [--coordinator-every K]"
        " [--artifacts DIR]\n"
        "  --seeds N              seeds to sweep (default 1000)\n"
        "  --start S              first seed (default 1)\n"
        "  --coordinator-every K  every Kth seed becomes a directed\n"
        "                         coordinator kill; 0 disables"
        " (default 4)\n"
        "  --artifacts DIR        where failing-seed artifacts go\n"
        "                         (default chaos-artifacts)\n"
        "  --dump-seed S          replay one seed and print its\n"
        "                         flight recorder to stdout\n"
        "  --kv                   machine-loss scenarios (replica-group\n"
        "                         rebuild, invariant 7) instead of module\n"
        "                         replacements\n"
        "  --systematic           bounded exhaustive schedule exploration\n"
        "                         instead of random seeds\n"
        "  --max-drops N          (systematic) dropped-wire-copy bound per\n"
        "                         schedule (default 1)\n"
        "  --work-items N         (systematic) workload size (default 4)\n"
        "  --partition-windows N  (systematic) enumerate N vax<->sparc\n"
        "                         partition windows (default 0)\n"
        "  --max-schedules N      (systematic) safety valve"
        " (default 250000)\n"
        "  --help                 print this message and exit\n"
        "\n"
        "exit status: 0 = every seed passed its invariants,\n"
        "             1 = an invariant failed (artifacts written),\n"
        "             2 = usage error\n";
}

int usage(const char* argv0) {
  print_usage(argv0, std::cerr);
  return 2;
}

/// The directed variant of a seed: kill the coordinator at a boundary that
/// cycles with the seed. Roll-forward is single-shot, so the clone-crash
/// fault (which relies on the script's retry loop) is switched off, same
/// as chaos::random_scenario does when it picks a coordinator crash.
ScenarioSpec coordinator_kill_variant(std::uint64_t seed) {
  ScenarioSpec spec = surgeon::chaos::random_scenario(seed);
  spec.crash_clone = false;
  spec.crash_coordinator_at_step = static_cast<int>(seed % 8);
  return spec;
}

/// Replays `failing` with the flight recorder dumped at the end of the
/// chaos pass.
void dump_flight_recorder(const ScenarioSpec& failing, std::ostream& os) {
  ScenarioSpec replay = failing;
  replay.chaos_pass_observer = [&os](surgeon::app::Runtime& rt) {
    surgeon::trace::Recorder& rec = rt.tracer();
    for (const std::string& machine : rec.machines()) {
      os << "=== machine " << machine << " (dropped "
         << rec.dropped(machine) << ") ===\n";
      for (const surgeon::trace::Event& ev : rec.journal(machine)) {
        os << ev.id << " t=" << ev.at << "us lamport=" << ev.lamport << " "
           << surgeon::trace::kind_name(ev.kind) << " " << ev.module;
        if (ev.parent != 0) os << " parent=" << ev.parent;
        if (ev.cause != 0) os << " cause=" << ev.cause;
        if (!ev.detail.empty()) os << " :: " << ev.detail;
        os << "\n";
      }
    }
  };
  (void)surgeon::chaos::run_scenario(replay);
}

int write_artifacts(const std::string& dir, const ScenarioSpec& spec,
                    const ScenarioResult& result, bool directed, bool kv) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  {
    std::ofstream out(dir + "/failing_seed.txt");
    // For kv scenarios the spec line names the killed machine(s):
    // "... kill=m1@30000us second_kill=m2@90000us".
    out << spec.describe() << "\n\n";
    for (const std::string& violation : result.violations) {
      out << "violated: " << violation << "\n";
    }
    if (!result.abort_reason.empty()) {
      out << "abort_reason: " << result.abort_reason << "\n";
    }
    out << "\nreplay: tools/chaos_sweep " << (kv ? "--kv " : "")
        << "--seeds 1 --start " << spec.seed;
    if (!kv) out << " --coordinator-every " << (directed ? 1 : 0);
    out << "\n";
    out << "\n--- chaos output (" << result.output.size() << " lines) ---\n";
    for (const std::string& line : result.output) out << line << "\n";
    out << "--- golden output (" << result.golden.size() << " lines) ---\n";
    for (const std::string& line : result.golden) out << line << "\n";
  }
  {
    std::ofstream out(dir + "/flight_recorder.txt");
    dump_flight_recorder(spec, out);
  }
  std::cerr << "FAIL " << spec.describe() << "\n";
  for (const std::string& violation : result.violations) {
    std::cerr << "     " << violation << "\n";
  }
  std::cerr << "     artifacts in " << dir << "/\n";
  return 1;
}

int run_systematic(int max_drops, int work_items, int partition_windows,
                   std::uint64_t max_schedules, bool kv,
                   const std::string& artifacts) {
  surgeon::chaos::SystematicOptions options;
  options.max_drops = max_drops;
  options.work_items = work_items;
  options.max_schedules = max_schedules;
  if (kv) {
    // Machine-kill exploration: every (ring machine, kill time) rebuild
    // schedule is its own dimension; the crash-boundary dimension is off
    // because a kv run has no replacement coordinator to kill.
    options.app = surgeon::chaos::SampleApp::kKv;
    options.explore_crash_boundaries = false;
    options.kv_shards = 2;
    options.kv_group_size = 2;
    options.kv_machines = 3;
    options.kv_spares = 1;
    for (int m = 0; m < options.kv_machines; ++m) {
      for (surgeon::net::SimTime at : {10'000, 30'000, 50'000}) {
        options.machine_kill_points.push_back(
            surgeon::chaos::MachineKillPoint{m, at});
      }
    }
    for (int w = 0; w < partition_windows; ++w) {
      // Control-to-ring cuts; the detector reads liveness from the runtime,
      // not the wire, so a cut delays rebuild control traffic without
      // forging a machine death.
      const surgeon::net::SimTime from =
          100'000 + 400'000 * static_cast<surgeon::net::SimTime>(w);
      options.partition_windows.push_back(
          surgeon::chaos::Partition{"ctl", "m0", from, from + 600'000});
    }
  } else {
    options.target_machine = "sparc";  // replacement traffic crosses the wire
    for (int w = 0; w < partition_windows; ++w) {
      // Staggered vax<->sparc cuts, each healing well inside the script's
      // divulge/restore timeouts so the exploration keeps reaching commits.
      const surgeon::net::SimTime from =
          100'000 + 400'000 * static_cast<surgeon::net::SimTime>(w);
      options.partition_windows.push_back(
          surgeon::chaos::Partition{"vax", "sparc", from, from + 600'000});
    }
  }

  const surgeon::chaos::SystematicResult result =
      surgeon::chaos::explore(options);
  std::cout << "systematic: " << result.schedules_explored
            << " schedules explored, " << result.schedules_pruned
            << " reorderings pruned, " << result.points_disabled
            << " disabled extensions skipped, "
            << result.wire_points_discovered << " wire points, "
            << result.crash_boundaries_covered.size()
            << " crash boundaries, " << result.machine_kills_covered.size()
            << " machine kills" << (result.truncated ? " [TRUNCATED]" : "")
            << "\n";
  if (result.ok() && !result.truncated) {
    std::cout << "PASS systematic exploration (0 violating schedules)\n";
    return 0;
  }
  std::error_code ec;
  std::filesystem::create_directories(artifacts, ec);
  std::ofstream out(artifacts + "/failing_schedules.txt");
  if (result.truncated) {
    out << "TRUNCATED at " << result.schedules_explored
        << " schedules (--max-schedules)\n\n";
  }
  for (const surgeon::chaos::ScheduleOutcome& failure : result.failures) {
    out << failure.schedule.describe() << "\n";
    for (const std::string& violation : failure.violations) {
      out << "  violated: " << violation << "\n";
    }
  }
  std::cerr << "FAIL systematic exploration: " << result.failures.size()
            << " violating schedules"
            << (result.truncated ? " (and truncated)" : "")
            << "; artifacts in " << artifacts << "/\n";
  for (std::size_t i = 0; i < result.failures.size() && i < 5; ++i) {
    std::cerr << "     " << result.failures[i].schedule.describe() << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 1000;
  std::uint64_t start = 1;
  std::uint64_t coordinator_every = 4;
  std::string artifacts = "chaos-artifacts";
  bool kv = false;
  bool systematic = false;
  int max_drops = 1;
  int work_items = 4;
  int partition_windows = 0;
  std::uint64_t max_schedules = 250'000;

  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage(argv[0], std::cout);
      return 0;
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      seeds = std::strtoull(value("--seeds"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--start") == 0) {
      start = std::strtoull(value("--start"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--coordinator-every") == 0) {
      coordinator_every =
          std::strtoull(value("--coordinator-every"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--artifacts") == 0) {
      artifacts = value("--artifacts");
    } else if (std::strcmp(argv[i], "--kv") == 0) {
      kv = true;
    } else if (std::strcmp(argv[i], "--systematic") == 0) {
      systematic = true;
    } else if (std::strcmp(argv[i], "--max-drops") == 0) {
      max_drops = static_cast<int>(std::strtol(value("--max-drops"),
                                               nullptr, 10));
    } else if (std::strcmp(argv[i], "--work-items") == 0) {
      work_items = static_cast<int>(std::strtol(value("--work-items"),
                                                nullptr, 10));
    } else if (std::strcmp(argv[i], "--partition-windows") == 0) {
      partition_windows = static_cast<int>(
          std::strtol(value("--partition-windows"), nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-schedules") == 0) {
      max_schedules =
          std::strtoull(value("--max-schedules"), nullptr, 10);
    } else if (std::strcmp(argv[i], "--dump-seed") == 0) {
      const std::uint64_t seed =
          std::strtoull(value("--dump-seed"), nullptr, 10);
      dump_flight_recorder(kv ? surgeon::chaos::random_kv_scenario(seed)
                              : surgeon::chaos::random_scenario(seed),
                          std::cout);
      return 0;
    } else {
      return usage(argv[0]);
    }
  }

  if (systematic) {
    return run_systematic(max_drops, work_items, partition_windows,
                          max_schedules, kv, artifacts);
  }

  if (kv) {
    // Machine-loss sweep: every seed kills a ring machine (some kill two)
    // and requires the GroupManager to rebuild with the ledger intact.
    std::uint64_t double_kills = 0;
    std::uint64_t rebuilt = 0;
    for (std::uint64_t i = 0; i < seeds; ++i) {
      const std::uint64_t seed = start + i;
      ScenarioSpec spec = surgeon::chaos::random_kv_scenario(seed);
      if (spec.kv_second_kill_machine >= 0) ++double_kills;
      ScenarioResult result = surgeon::chaos::run_scenario(spec);
      if (!result.ok()) {
        return write_artifacts(artifacts, spec, result, false, true);
      }
      if (result.replaced) ++rebuilt;
      if ((i + 1) % 100 == 0) {
        std::cout << (i + 1) << "/" << seeds << " kv seeds ok ("
                  << double_kills << " double kills, " << rebuilt
                  << " rebuilt redundancy)" << std::endl;
      }
    }
    std::cout << "PASS " << seeds << " kv seeds (" << double_kills
              << " double kills, " << rebuilt << " rebuilt redundancy)\n";
    return 0;
  }

  std::uint64_t coordinator_kills = 0;
  std::uint64_t rolled_forward = 0;
  std::uint64_t aborted_clean = 0;
  for (std::uint64_t i = 0; i < seeds; ++i) {
    const std::uint64_t seed = start + i;
    const bool directed =
        coordinator_every != 0 && (i % coordinator_every) == 0;
    ScenarioSpec spec = directed ? coordinator_kill_variant(seed)
                                 : surgeon::chaos::random_scenario(seed);
    if (spec.crash_coordinator_at_step >= 0) ++coordinator_kills;
    ScenarioResult result = surgeon::chaos::run_scenario(spec);
    if (!result.ok()) {
      return write_artifacts(artifacts, spec, result, directed, false);
    }
    if (result.recovered_forward) ++rolled_forward;
    if (!result.replaced) ++aborted_clean;
    if ((i + 1) % 100 == 0) {
      std::cout << (i + 1) << "/" << seeds << " seeds ok ("
                << coordinator_kills << " coordinator kills, "
                << rolled_forward << " rolled forward, " << aborted_clean
                << " clean aborts)" << std::endl;
    }
  }
  std::cout << "PASS " << seeds << " seeds (" << coordinator_kills
            << " coordinator kills, " << rolled_forward << " rolled forward, "
            << aborted_clean << " clean aborts)\n";
  return 0;
}
