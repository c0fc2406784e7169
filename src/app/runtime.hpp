// The application runtime: builds a distributed application from its
// configuration specification and schedules its modules cooperatively over
// the simulated network.
//
// Each module instance is a VM executing (transformed) MiniC bytecode,
// attached to the bus under its instance name. The scheduler interleaves
// runnable modules with simulator events; virtual time advances through
// message latencies, sleeps, and (optionally) a per-instruction compute
// cost. Everything is deterministic for a given seed.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bus/bus.hpp"
#include "bus/client.hpp"
#include "cfg/spec.hpp"
#include "net/sim.hpp"
#include "net/ticker.hpp"
#include "obs/metrics.hpp"
#include "profile/profiler.hpp"
#include "vm/compiler.hpp"
#include "vm/machine.hpp"
#include "xform/transform.hpp"

namespace surgeon::app {

/// Everything needed to instantiate (or clone) a module.
struct ModuleImage {
  cfg::ModuleSpec spec;
  std::shared_ptr<const vm::CompiledProgram> program;
};

/// A live process as Runtime::live_processes() lists it: its instance name
/// and its host machine.
struct LiveProcess {
  const std::string* instance;
  const std::string* host;
};

/// The logical module an instance generation belongs to: the name without
/// the "@n" suffix Runtime::fresh_instance_name appends ("server@3" ->
/// "server"); a name without one is its own. A view into `instance`.
[[nodiscard]] std::string_view logical_name(std::string_view instance) noexcept;

class Runtime {
 public:
  explicit Runtime(std::uint64_t seed = 1);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] net::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] bus::Bus& bus() noexcept { return bus_; }
  [[nodiscard]] net::SimTime now() const noexcept { return sim_.now(); }

  void add_machine(const std::string& name, net::Arch arch) {
    sim_.add_machine(name, std::move(arch));
  }

  /// Virtual nanoseconds charged per executed VM instruction (0 = pure
  /// discrete-event time; computation is instantaneous).
  void set_instruction_cost_ns(std::uint64_t ns) noexcept {
    insn_cost_ns_ = ns;
  }
  /// Instructions a module may run per scheduling slice.
  void set_slice(std::uint64_t insns) noexcept { slice_insns_ = insns; }

  // --- module lifecycle -----------------------------------------------------

  /// Registers a module instance with the bus (not yet running).
  /// `machine` overrides the spec's MACHINE attribute when non-empty.
  void install_module(const std::string& instance, ModuleImage image,
                      const std::string& machine, const std::string& status);
  /// Creates the module's VM and makes it schedulable (mh_chg_obj "add").
  void start_module(const std::string& instance);
  /// Stops scheduling the module; the bus registration remains.
  void stop_module(const std::string& instance);
  /// Stops and removes the module and its bindings (mh_chg_obj "del").
  void remove_module(const std::string& instance);

  [[nodiscard]] bool module_running(const std::string& instance) const;
  [[nodiscard]] bool module_finished(const std::string& instance) const;

  // --- crash injection (surgeon::chaos) -------------------------------------

  /// Kills the instance's process immediately: the VM stops, in-memory state
  /// is lost, but the bus registration (endpoints, queues, bindings) stays,
  /// exactly as when a POLYLITH process dies on its host. A native module
  /// (bus::NativeModule), reached through its bus registration, stops
  /// ticking and answering its query the same way. Reconfiguration scripts
  /// observe the death through module_crashed(). Throws BusError when the
  /// instance is neither a process nor a native module.
  void crash_module(const std::string& instance,
                    const std::string& detail = "injected");
  /// Machine failure: kills EVERY live process and native module hosted on
  /// `machine` at once (all of them leave live_processes() together -- what
  /// a machine-level failure detector aggregates). Bus registrations
  /// stay, like crash_module; the machine is remembered as dead
  /// (machine_dead()) so placement layers exclude it. Returns the killed
  /// instances, name order.
  std::vector<std::string> crash_machine(
      const std::string& machine, const std::string& detail = "machine lost");
  /// Has crash_machine been called for this machine?
  [[nodiscard]] bool machine_dead(const std::string& machine) const {
    return dead_machines_.contains(machine);
  }
  /// Clears the dead mark (a repaired host rejoining under the same name).
  void revive_machine(const std::string& machine) {
    dead_machines_.erase(machine);
  }
  /// Arms a deterministic crash: the process dies after executing `insns`
  /// more VM instructions (0 = at its next scheduling point). When
  /// `restart_after_us` is nonzero the module is restarted with a fresh VM
  /// that many virtual microseconds later.
  void crash_after(const std::string& instance, std::uint64_t insns,
                   net::SimTime restart_after_us = 0);
  /// Restarts a crashed module from its installed image (state lost). VM
  /// modules only: a crashed native module stays down.
  void restart_module(const std::string& instance);
  /// Did the instance's process, or the native module registered under
  /// its name, crash?
  [[nodiscard]] bool module_crashed(const std::string& instance) const;
  /// Direct access to a running module's VM (tests and benchmarks); null if
  /// the instance has no process.
  [[nodiscard]] vm::Machine* machine_of(const std::string& instance);
  [[nodiscard]] const ModuleImage* image_of(const std::string& instance) const;

  /// Unique instance name derived from a base module name ("compute@2"):
  /// a generation of logical_name(base).
  [[nodiscard]] std::string fresh_instance_name(const std::string& base);

  // --- whole applications ----------------------------------------------------

  using SourceProvider =
      std::function<std::string(const cfg::ModuleSpec& spec)>;

  /// Builds an application from its configuration. Each module is prepared
  /// once, at its first instance: `source_of` is called once per module,
  /// and the source is parsed, transformed when the module declares
  /// reconfiguration points, optionally optimized (constant folding +
  /// loop-invariant hoisting; see surgeon::opt) and compiled, so a throw
  /// from any stage surfaces there. Every instance of the module shares
  /// that immutable image; each gets its own spec copy, VM, globals and bus
  /// registration under its instance name (`instance m as name`, or the
  /// module's name). Instances are installed and started in configuration
  /// order, then the bindings are applied. Nothing is cached across calls.
  void load_application(const cfg::ConfigFile& config,
                        const std::string& application,
                        const SourceProvider& source_of,
                        const xform::XformOptions& xform_options = {},
                        bool optimize = false);

  // --- scheduling -------------------------------------------------------------

  /// One scheduling round: runs every runnable module for a slice, then (if
  /// nothing ran) advances the simulator by one event. Returns false when
  /// the whole system is idle (nothing runnable, no pending events).
  bool step();

  /// Runs until `pred()` is true. Returns true on success, false when the
  /// system went idle or `max_rounds` elapsed first.
  bool run_until(const std::function<bool()>& pred,
                 std::uint64_t max_rounds = 1'000'000);

  /// Runs until virtual time reaches now()+duration_us (or idle).
  void run_for(net::SimTime duration_us, std::uint64_t max_rounds = 1'000'000);

  /// Runs until nothing can make progress.
  void run_until_idle(std::uint64_t max_rounds = 1'000'000);

  // --- observability ----------------------------------------------------------

  /// The platform metrics registry: attached to the bus and the scheduler
  /// at construction (so hot-path handles resolve once), but disabled --
  /// a no-op -- until enable_metrics() is called. Spans, counters, and
  /// timers all use the simulator's virtual clock.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  void enable_metrics() noexcept { metrics_.set_enabled(true); }
  void disable_metrics() noexcept { metrics_.set_enabled(false); }

  /// The causal flight recorder (trace/recorder.hpp): attached to the bus
  /// at construction, disabled -- messages carry no headers and no events
  /// record -- until enable_causal_tracing() is called. Like the metrics
  /// registry it runs on the virtual clock.
  [[nodiscard]] trace::Recorder& tracer() noexcept { return tracer_; }
  void enable_causal_tracing() noexcept { tracer_.set_enabled(true); }
  void disable_causal_tracing() noexcept { tracer_.set_enabled(false); }

  // --- sampling profiler (surgeon::profile) ---------------------------------

  /// Attaches the sampling profiler to every module VM (current and future)
  /// and starts whichever sampling drivers the options enable:
  /// `interval_us` arms one sample per live module per virtual-clock tick
  /// (the cluster-operator view; like a failure detector's, the tick chain
  /// keeps the simulator non-idle, so use predicate- or time-bounded runs),
  /// and `every_insns` samples each module every K executed instructions
  /// (the dense, deterministic view opcode studies need). `profiler` must
  /// outlive the runtime or a disable_profiler() call.
  void enable_profiler(profile::Profiler& profiler,
                       profile::ProfileOptions options);
  /// Detaches every tap; armed countdowns fire into nothing (one compare
  /// per instruction remains, the disarmed cost).
  void disable_profiler() noexcept;
  [[nodiscard]] bool profiler_enabled() const noexcept {
    return profiler_ != nullptr;
  }

  // --- liveness (surgeon::recover) ----------------------------------------

  /// Moves whenever the set of live (neither finished nor crashed)
  /// processes changes: a process starts, is dropped, finishes, faults or
  /// crashes. A process's host is fixed for its life, so an unchanged
  /// generation means an unchanged list of (instance, host) pairs.
  [[nodiscard]] std::uint64_t live_generation() const noexcept {
    return live_generation_;
  }
  /// The live processes in name order: what a failure detector reads on
  /// its heartbeat tick (recover::FailureDetector). Rebuilt only when the
  /// generation has moved since the last read; valid until it moves.
  [[nodiscard]] std::span<const LiveProcess> live_processes() const;

  /// A module faulted during this run? (instance, message) of the first.
  [[nodiscard]] const std::optional<std::pair<std::string, std::string>>&
  first_fault() const noexcept {
    return first_fault_;
  }
  /// Throws BusError if any module has faulted (call from tests).
  void check_faults() const;

 private:
  /// Per-process adapter: forwards VM sample callbacks to the shared
  /// profiler with the instance name attached. Heap-owned so the pointer
  /// the Machine holds stays valid when the ProcessRec moves.
  struct SampleTap final : vm::SampleSink {
    profile::Profiler* profiler = nullptr;
    std::string module;
    void on_sample(const vm::Machine& machine) override {
      profiler->sample(module, machine);
    }
  };

  struct ProcessRec {
    std::unique_ptr<bus::Client> client;
    std::unique_ptr<vm::Machine> machine;
    std::string host;       // the bus registration's machine, fixed for life
    bool waiting = false;   // blocked or sleeping
    bool sleeping = false;  // waiting on a timer: only the timer may wake it
    bool finished = false;  // done or fault
    /// Armed crash countdown: instructions left before the process dies.
    std::optional<std::uint64_t> crash_in_insns;
    net::SimTime restart_after_us = 0;
    // Metric handles (owned by metrics_), resolved at start_module so the
    // per-slice publish below is map-free.
    obs::Counter* insn_ctr = nullptr;
    obs::Gauge* capture_frames_gauge = nullptr;
    obs::Gauge* restore_frames_gauge = nullptr;
    obs::Gauge* state_bytes_gauge = nullptr;
    std::unique_ptr<SampleTap> tap;
  };

  using ProcessMap = std::map<std::string, ProcessRec>;
  using ProcessIt = ProcessMap::iterator;

  void wake(const std::string& instance);
  void resume(ProcessIt it);
  /// Position of `name` in the name-ordered ready list (binary search).
  [[nodiscard]] std::size_t ready_slot(const std::string& name) const;
  void make_ready(ProcessIt it);
  void unready(ProcessIt it);
  /// unready() for the process whose slice just ran: no search.
  void unready_running();
  /// Ends the instance's process, if any, and clears its crashed mark.
  void drop_process(const std::string& instance);
  void run_slice(ProcessIt it);
  void attach_tap(const std::string& instance, ProcessRec& rec);
  void publish_vm_metrics(ProcessRec& rec, std::uint64_t instructions);
  void crash_now(ProcessIt it, const std::string& detail);

  net::Simulator sim_;
  bus::Bus bus_;
  std::map<std::string, ModuleImage> images_;
  ProcessMap processes_;
  /// The ready list: exactly the runnable (neither waiting nor finished)
  /// processes, in name order, kept up to date at every transition so a
  /// round visits only them. A sorted vector rather than a node-based set:
  /// once grown it never allocates, and wake/block sit on the request path.
  std::vector<ProcessIt> ready_;
  /// Index into ready_ of the next process the current round visits;
  /// make_ready/unready shift it so that entries inserted or erased before
  /// it leave the round's position unchanged.
  std::size_t ready_next_ = 0;
  std::set<std::string> crashed_;
  std::set<std::string> dead_machines_;
  std::map<std::string, int> name_counters_;
  std::uint64_t slice_insns_ = 10'000;
  std::uint64_t insn_cost_ns_ = 0;
  std::uint64_t seed_ = 1;
  std::optional<std::pair<std::string, std::string>> first_fault_;
  std::uint64_t live_generation_ = 0;
  /// The live processes in name order, as of generation live_listed_.
  mutable std::vector<LiveProcess> live_;
  mutable std::optional<std::uint64_t> live_listed_;
  profile::Profiler* profiler_ = nullptr;
  profile::ProfileOptions profile_options_;
  net::Ticker profile_ticker_;
  obs::MetricsRegistry metrics_;
  trace::Recorder tracer_;
};

}  // namespace surgeon::app
