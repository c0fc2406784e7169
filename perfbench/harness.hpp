// Shared machinery of the end-to-end benchmark: the step loop both runs
// share, the span log of the traced run, and the per-episode result.
//
// The benchmark measures from outside. It builds and drives applications
// through the platform's public calls only, and every host time it reports
// is a steady_clock interval around such a call. Virtual-time results come
// from the simulator's seeded clock and repeat exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "app/runtime.hpp"

namespace perfbench {

namespace sg = ::surgeon;

[[nodiscard]] inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Independent sub-seed `stream` of the workload seed (SplitMix64 mix), so
/// seeds 1 and 2 give unrelated inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// Nearest-rank percentile (q in [0, 1]) of the samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] std::int64_t percentile_exact(std::vector<std::int64_t> samples,
                                            double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Spans of the traced run, recorded around the calls the benchmark makes.
/// Phase spans (setup, steady, reconfiguration windows) and the coarse spans
/// under them are kept one by one. Per-step and per-message spans are
/// folded into per-(name, phase) totals as they close, so a run of millions
/// of steps keeps constant memory. A step's self time excludes the message
/// spans (bus.native_send, slo.track) that ran inside it.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  struct Total {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Opens a phase span ("setup", "steady", "window"); fine spans that
  /// close while it is the innermost phase are totalled under its name.
  int open_phase(const std::string& name);
  void close_phase(int id);
  /// Records a finished coarse span under the current phase.
  void coarse(const std::string& name, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// One scheduler step: step_begin() right before Runtime::step(), then
  /// step() with its interval; `vm` says whether it advanced some VM.
  void step_begin() noexcept {
    in_step_ = true;
    child_ns_in_step_ = 0;
  }
  void step(bool vm, std::uint64_t start_ns, std::uint64_t end_ns);
  /// A message-level span inside the current step (or between steps).
  void fine(const char* name, std::uint64_t start_ns, std::uint64_t end_ns);

  [[nodiscard]] Total total(const std::string& name,
                            const std::string& phase = "") const;

  /// Chrome trace-event JSON: coarse spans as complete events, the folded
  /// totals under "totals".
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] const std::string& phase_name() const;
  /// The total of `name` under the current phase. Per-step callers pass
  /// string literals, so a pointer-keyed cache, cleared by every phase
  /// change, saves the map lookup.
  Total& slot(const char* name);

  std::vector<Span> spans_;
  std::vector<int> phase_stack_;
  std::map<std::pair<std::string, std::string>, Total> totals_;
  std::vector<std::pair<const char*, Total*>> slot_cache_;
  bool in_step_ = false;
  std::uint64_t child_ns_in_step_ = 0;
  std::uint64_t origin_ns_ = host_ns();
};

/// The benchmark's scheduler loop: Runtime::step() until a predicate holds.
/// The measured and the traced run use the same loop and predicates, so
/// both execute the same steps. With a SpanLog attached every step is timed
/// and classified: it advanced some VM's instructions_executed() (or its
/// nested scheduling changed the module topology), or it ran one simulator
/// event. The vm::Machine pointers are cached and re-resolved whenever
/// Bus::module_topology_generation() moves.
class Driver {
 public:
  Driver(sg::app::Runtime& rt, SpanLog* log) : rt_(&rt), log_(log) {}

  /// One step; false when the system is idle.
  bool step();
  /// Steps until pred() holds; returns pred() (false when idle first).
  template <class Pred>
  bool run_until(Pred pred) {
    while (!pred()) {
      if (!step()) return pred();
    }
    return true;
  }

  /// Simulator queue length sampled before each traced step.
  [[nodiscard]] const std::vector<double>& pending_samples() const noexcept {
    return pending_;
  }

 private:
  void refresh();
  [[nodiscard]] std::uint64_t instructions() const;

  sg::app::Runtime* rt_;
  SpanLog* log_;
  std::vector<const sg::vm::Machine*> vms_;
  std::uint64_t generation_ = ~std::uint64_t{0};
  std::vector<double> pending_;
};

/// Instructions executed by every VM that is alive now.
[[nodiscard]] std::uint64_t live_vm_instructions(sg::app::Runtime& rt);

/// What one repetition of a workload produced.
struct Episode {
  double setup_s = 0;
  double steady_s = 0;
  std::uint64_t ops = 0;  // completed operations
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t reconfig_attempted = 0;
  std::uint64_t reconfig_failed = 0;
  /// Host ms one reconfiguration occupied the coordinator, one per
  /// reconfiguration (pipeline) or per machine loss (kv).
  std::vector<double> reconfig_host_ms;
  /// Exact counts and virtual-time results: the fingerprint. They repeat
  /// bit for bit across repetitions and between traced and untraced runs.
  std::map<std::string, std::int64_t> exact;
  /// End-to-end metrics derived from virtual time, with their units.
  std::map<std::string, std::pair<double, std::string>> virtual_metrics;
  /// Per-layer metrics (traced runs only).
  std::map<std::string, double> layers;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  [[nodiscard]] double throughput() const {
    return steady_s > 0 ? static_cast<double>(ops) / steady_s : 0.0;
  }
};

/// Per-run context handed to a workload.
struct Context {
  std::uint64_t seed = 1;
  SpanLog* log = nullptr;  // non-null in the traced run
  bool setup_only = false;  // return right after setup (extra setup samples)
};

Episode run_counter_rpc(const Context& ctx);
Episode run_pipeline_swap(const Context& ctx);
Episode run_kv_machine_loss(const Context& ctx);

/// Setup breakdown of one application (traced run): times the public calls
/// load_application makes, one by one, on scratch objects, as spans under a
/// setup phase. Fills cfg.parse_ms, minic.front_ms, xform.prepare_ms,
/// vm.compile_ms and app.install_ms.
void time_setup_calls(
    const std::string& config_text, const std::string& application,
    const std::map<std::string, sg::net::Arch>& machines,
    const std::function<std::string(const sg::cfg::ModuleSpec&)>& source_of,
    SpanLog& log, Episode& ep);

}  // namespace perfbench
