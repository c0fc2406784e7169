// perfbench: the end-to-end benchmark of SURGEON++.
//
//   perfbench --workload <counter_rpc|pipeline_swap|kv_machine_loss>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Untraced (--trace 0), the workload repeats from an empty runtime until
// --seconds have passed, at least three times, on a different CPU each
// time. Host metrics are fast-side quantiles over the repetitions (see
// run()); virtual-time metrics and the exact-count fingerprint must agree
// across all of them. Traced (--trace 1), the first half of the time runs
// untraced repetitions and the rest traced ones; the per-layer metrics are
// medians over the traced repetitions, and the fingerprint must match the
// untraced one exactly.
//
// Output: a human-readable report, one "report" JSON line (build identity,
// every end-to-end metric with its unit and sample count, the fingerprint,
// per-layer metrics when traced), and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every correctness check passed; 2 on usage errors; 3 when the build
// is not a Release build without assertions.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "harness.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// The result object's metrics: end-to-end (untraced) and per-layer (traced).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"}, {"throughput_ops_s", "1/s"}, {"peak_rss_mb", "MB"}};

constexpr Metric kPerLayer[] = {
    {"app.steps_per_op", "count"},
    {"app.vm_step_ns_per_op", "ns"},
    {"app.event_step_ns_per_op", "ns"},
    {"app.install_ms", "ms"},
    {"app.step_span_coverage", "ratio"},
    {"vm.insns_per_op", "count"},
    {"vm.ns_per_insn", "ns"},
    {"vm.handler_p99_us", "us"},
    {"vm.compile_ms", "ms"},
    {"cfg.parse_ms", "ms"},
    {"minic.front_ms", "ms"},
    {"xform.prepare_ms", "ms"},
    {"replicate.launch_ms", "ms"},
    {"net.events_per_op", "count"},
    {"net.ns_per_event", "ns"},
    {"net.pending_events_p99", "count"},
    {"net.generator_lag_p99_us", "us"},
    {"bus.msgs_per_op", "count"},
    {"bus.native_send_ns", "ns"},
    {"bus.hop_queue_p99_us", "us"},
    {"bus.retransmits_per_op", "count"},
    {"bus.useful_tx_ratio", "ratio"},
    {"bus.state_bytes_moved", "bytes"},
    {"chaos.drops", "count"},
    {"chaos.duplicates", "count"},
    {"trace.events_per_op", "count"},
    {"slo.track_ns_per_event", "ns"},
    {"reconfig.script_host_us", "us"},
    {"reconfig.divulge_wait_us", "us"},
    {"reconfig.queued_moved", "count"},
    {"reconfig.state_bytes", "bytes"},
    {"reconfig.attempts_per_replace", "count"},
    {"recover.wal_appends_per_reconfig", "count"},
    {"recover.wal_bytes_per_reconfig", "bytes"},
    {"recover.detect_ms", "ms"},
    {"replicate.rebuild_host_ms_per_group", "ms"},
    {"replicate.groups_per_loss", "count"},
    {"replicate.group_restore_us", "us"},
    {"replicate.refans_per_op", "count"},
    {"bench.tracing_overhead", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <counter_rpc|pipeline_swap|"
               "kv_machine_loss> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

using Runner = Episode (*)(const Context&);

Runner runner_of(const std::string& workload) {
  if (workload == "counter_rpc") return run_counter_rpc;
  if (workload == "pipeline_swap") return run_pipeline_swap;
  if (workload == "kv_machine_loss") return run_kv_machine_loss;
  usage("unknown workload '" + workload + "'");
}

/// Numbers print with every digit they carry. A ratio over an empty run
/// (which also fails its checks) prints as 0 to keep the output JSON.
std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Pins the (single-threaded) process to one CPU. Repetitions rotate over
/// the allowed CPUs: on a shared host one CPU can run far slower than the
/// others for seconds at a time, and the median over a rotation is immune
/// to a minority of slow CPUs, where an unpinned process is not.
void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Peak resident memory of this process image. VmHWM starts afresh at
/// execve, where getrusage's ru_maxrss keeps the high-water mark of the
/// parent that forked us (the Python driver, larger than counter_rpc).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// A build that may report numbers: Release, assertions compiled out.
std::string build_problem() {
  std::string problem;
#ifndef NDEBUG
  problem += "assertions are enabled (NDEBUG undefined); ";
#endif
#ifdef _GLIBCXX_ASSERTIONS
  problem += "libstdc++ assertions are enabled; ";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    problem += std::string("build type is '") + PERFBENCH_BUILD_TYPE +
               "', not Release; ";
  }
  return problem;
}

struct Summary {
  std::vector<double> setup_s, throughput, reconfig_host_ms, traced_throughput;
  std::map<std::string, std::vector<double>> layers;
  std::uint64_t ops_attempted = 0, ops_failed = 0;
  std::uint64_t reconfig_attempted = 0, reconfig_failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::int64_t> fingerprint;
  std::map<std::string, std::pair<double, std::string>> virtual_metrics;
  int reps = 0, traced_reps = 0;

  void add(Episode& ep, bool traced) {
    const std::string tag = traced ? "traced repetition " : "repetition ";
    if (reps + traced_reps == 0) {
      fingerprint = ep.exact;
      virtual_metrics = ep.virtual_metrics;
    } else if (ep.exact != fingerprint) {
      for (const auto& [k, v] : ep.exact) {
        if (!fingerprint.contains(k) || fingerprint.at(k) != v) {
          failures.push_back(tag + std::to_string(reps + traced_reps + 1) +
                             ": fingerprint " + k + " = " + std::to_string(v) +
                             " differs from the first run");
        }
      }
    }
    for (const std::string& f : ep.failures) failures.push_back(f);
    ops_attempted += ep.attempted;
    ops_failed += ep.failed;
    reconfig_attempted += ep.reconfig_attempted;
    reconfig_failed += ep.reconfig_failed;
    if (traced) {
      ++traced_reps;
      traced_throughput.push_back(ep.throughput());
      for (const auto& [k, v] : ep.layers) layers[k].push_back(v);
      return;
    }
    ++reps;
    setup_s.push_back(ep.setup_s);
    throughput.push_back(ep.throughput());
    if (!ep.reconfig_host_ms.empty()) {
      reconfig_host_ms.push_back(median(ep.reconfig_host_ms));
    }
  }
};

int run(const Args& args) {
  const std::string problem = build_problem();
  if (!problem.empty()) {
    std::cerr << "perfbench: refusing to report numbers: " << problem << "\n";
    return 3;
  }
  const Runner runner = runner_of(args.workload);
  Summary sum;
  const std::vector<int> cpus = allowed_cpus();
  std::size_t next_cpu = 0;
  auto rotate = [&] {
    if (!cpus.empty()) pin_to(cpus[next_cpu++ % cpus.size()]);
  };
  const std::uint64_t start = host_ns();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  auto elapsed = [&] { return static_cast<double>(host_ns() - start) / 1e9; };
  constexpr int kMinReps = 3;
  // Setup is short next to a repetition; extra setup-only runs give its
  // quantile enough samples.
  constexpr int kExtraSetups = 4;
  while (sum.reps < kMinReps || elapsed() < untraced_s) {
    rotate();
    for (int i = 0; i < kExtraSetups; ++i) {
      sum.setup_s.push_back(
          runner(Context{args.seed, nullptr, true}).setup_s);
    }
    Episode ep = runner(Context{args.seed, nullptr});
    sum.add(ep, false);
  }
  SpanLog last_log;
  if (args.trace) {
    do {
      rotate();
      SpanLog log;
      Episode ep = runner(Context{args.seed, &log});
      sum.add(ep, true);
      last_log = std::move(log);
    } while (elapsed() < args.seconds);
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << last_log.to_json();
      if (!out) {
        sum.failures.push_back("could not write the span log to " +
                               args.trace_out);
      }
    }
  }
  const double rss = peak_rss_mb();

  // --- end-to-end metrics (every one the workload has) ---------------------
  struct Line {
    std::string name;
    double value;
    std::string unit;
    std::string samples;
  };
  std::vector<Line> e2e;
  // Host times come from a host shared with other tenants, whose load slows
  // whole repetitions by up to ~1.7x for seconds at a time. Such a slowdown
  // is not the program's cost, so host metrics take the quantile on the
  // fast side: the 90th percentile of throughput and the 10th of setup time.
  const std::string reps = std::to_string(sum.reps);
  e2e.push_back({"setup_s", percentile(sum.setup_s, 0.1), "s",
                 "p10 of " + std::to_string(sum.setup_s.size()) + " setups"});
  e2e.push_back({"throughput_ops_s", percentile(sum.throughput, 0.9), "1/s",
                 "p90 of " + reps + " runs"});
  for (const auto& [name, vu] : sum.virtual_metrics) {
    if (name.ends_with("_samples")) continue;
    std::string samples = "virtual time";
    const std::string base =
        name.starts_with("reconfig_latency") ? "reconfig_latency_samples"
        : name.starts_with("latency")        ? "latency_samples"
        : name.starts_with("reconfig") || name.starts_with("restore")
            ? "reconfig_samples"
            : "";
    if (!base.empty() && sum.virtual_metrics.contains(base)) {
      samples = num(sum.virtual_metrics.at(base).first) + " samples";
    }
    e2e.push_back({name, vu.first, vu.second, samples});
  }
  if (!sum.reconfig_host_ms.empty()) {
    e2e.push_back({"reconfig_host_ms", median(sum.reconfig_host_ms), "ms",
                   reps + " runs"});
  }
  const double failed_frac =
      sum.ops_attempted == 0 ? 1.0
                             : static_cast<double>(sum.ops_failed) /
                                   static_cast<double>(sum.ops_attempted);
  e2e.push_back({"failed_frac", failed_frac, "ratio",
                 std::to_string(sum.ops_attempted) + " operations"});
  if (sum.reconfig_attempted != 0) {
    e2e.push_back({"reconfig_failed_frac",
                   static_cast<double>(sum.reconfig_failed) /
                       static_cast<double>(sum.reconfig_attempted),
                   "ratio",
                   std::to_string(sum.reconfig_attempted) +
                       " reconfigurations"});
  }
  e2e.push_back({"peak_rss_mb", rss, "MB", "process"});

  std::map<std::string, double> layers;
  if (args.trace) {
    for (const auto& [k, v] : sum.layers) layers[k] = median(v);
    layers["bench.tracing_overhead"] =
        1.0 - percentile(sum.traced_throughput, 0.9) /
                  percentile(sum.throughput, 0.9);
  }

  // --- human-readable report -------------------------------------------------
  std::cout << "perfbench " << args.workload << " seed=" << args.seed
            << " repetitions=" << sum.reps
            << " traced_repetitions=" << sum.traced_reps
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=\"" << __VERSION__
            << "\"\n";
  for (const Line& l : e2e) {
    std::cout << "  " << std::left << std::setw(26) << l.name << std::right
              << std::setw(18) << num(l.value) << " " << std::left
              << std::setw(6) << l.unit << " (" << l.samples << ")\n";
  }
  if (args.trace) {
    std::cout << "  per-layer (median of " << sum.traced_reps
              << " traced runs):\n";
    for (const Metric& m : kPerLayer) {
      const auto it = layers.find(m.name);
      std::cout << "    " << std::left << std::setw(36) << m.name
                << std::right << std::setw(18)
                << (it == layers.end() ? std::string("n/a") : num(it->second))
                << " " << m.unit << "\n";
    }
  }
  for (const std::string& f : sum.failures) {
    std::cout << "  CHECK FAILED: " << f << "\n";
  }

  // --- report line -------------------------------------------------------------
  std::ostringstream rep;
  rep << "{\"report\":{\"workload\":" << quoted(args.workload)
      << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"repetitions\":" << sum.reps
      << ",\"traced_repetitions\":" << sum.traced_reps
      << ",\"build\":{\"type\":" << quoted(PERFBENCH_BUILD_TYPE)
      << ",\"assertions\":false,\"compiler\":" << quoted(__VERSION__)
      << ",\"flags\":" << quoted(PERFBENCH_CXX_FLAGS) << "},\"end_to_end\":{";
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    rep << (i == 0 ? "" : ",") << quoted(e2e[i].name)
        << ":{\"value\":" << num(e2e[i].value)
        << ",\"unit\":" << quoted(e2e[i].unit)
        << ",\"samples\":" << quoted(e2e[i].samples) << "}";
  }
  rep << "},\"throughput_by_repetition\":[";
  for (std::size_t i = 0; i < sum.throughput.size(); ++i) {
    rep << (i == 0 ? "" : ",") << num(sum.throughput[i]);
  }
  rep << "],\"fingerprint\":{";
  bool first = true;
  for (const auto& [k, v] : sum.fingerprint) {
    rep << (first ? "" : ",") << quoted(k) << ":" << v;
    first = false;
  }
  rep << "},\"per_layer\":{";
  first = true;
  for (const auto& [k, v] : layers) {
    rep << (first ? "" : ",") << quoted(k) << ":" << num(v);
    first = false;
  }
  rep << "},\"failures\":[";
  for (std::size_t i = 0; i < sum.failures.size(); ++i) {
    rep << (i == 0 ? "" : ",") << quoted(sum.failures[i]);
  }
  rep << "]}}";
  std::cout << rep.str() << "\n";

  // --- result line ---------------------------------------------------------------
  std::map<std::string, double> values;
  for (const Line& l : e2e) values[l.name] = l.value;
  std::ostringstream res;
  const bool correct = sum.failures.empty();
  res << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << sum.ops_attempted + sum.reconfig_attempted
      << ",\"failed\":" << sum.ops_failed + sum.reconfig_failed
      << ",\"metrics\":{";
  first = true;
  auto emit = [&](const Metric& m, double v) {
    res << (first ? "" : ",") << quoted(m.name) << ":{\"value\":" << num(v)
        << ",\"unit\":" << quoted(m.unit) << "}";
    first = false;
  };
  if (args.trace) {
    for (const Metric& m : kPerLayer) {
      const auto it = layers.find(m.name);
      emit(m, it == layers.end() ? 0.0 : it->second);
    }
  } else {
    for (const Metric& m : kEndToEnd) emit(m, values.at(m.name));
  }
  res << "}}";
  std::cout << res.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
}
