// Heartbeat failure detection: one detector for modules and machines.
//
// A FailureDetector reads app::Runtime's liveness (its generation and its
// name-ordered live processes) on its own virtual-clock ticker, so any
// number of watchers can each run one on the same runtime. From that one
// fold it gives module verdicts (recover::Supervisor: silent modules, last
// beats) and machine verdicts (replicate::GroupManager: a machine is as
// alive as its most recently heard module). On the discrete-event clock a
// healthy module's beats are perfectly periodic, so suspicion is not
// probabilistic the way a wall-clock phi-accrual detector is: a suspect has
// really stopped beating (crashed, finished, or removed), and the watcher
// disambiguates.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "net/sim.hpp"
#include "net/ticker.hpp"

namespace surgeon::recover {

struct DetectorOptions {
  /// Silence after which a module, or a machine none of whose modules
  /// beats, is suspected. Should cover several heartbeat intervals so one
  /// is never enough (default: five 10ms beats).
  net::SimTime suspicion_timeout_us = 50'000;
  /// Silence after which a suspect machine is confirmed dead.
  net::SimTime confirm_timeout_us = 120'000;
};

/// A machine's health as the detector sees it. The suspect/confirm split
/// follows the usual two-threshold discipline: a *suspect* machine stops
/// receiving new placements, a *confirmed* machine triggers rebuild. On the
/// virtual clock the second threshold is not about false positives (silence
/// is deterministic here) but about batching: a machine that loses its
/// processes one heartbeat apart is rebuilt once, not once per module.
enum class MachineHealth : std::uint8_t { kAlive, kSuspect, kConfirmed };

/// A module stays attributed to the machine it last beat on until it is
/// forgotten (a process started under its name elsewhere moves it). A
/// machine's last beat is the last tick at which any module attributed to
/// it was live. A tick costs what changed: one whose liveness generation is
/// the last walk's, with no forget since, lists what that walk listed and
/// only moves a stamp; any other tick walks the list once, merging it with
/// the name-ordered attribution map.
class FailureDetector {
 public:
  explicit FailureDetector(DetectorOptions options = {})
      : options_(options) {}
  /// Module records point into the machine map.
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// Reads `rt`'s liveness every `interval_us` of virtual time, from one
  /// interval from now until stop() or destruction; meanwhile the simulator
  /// is never idle. Throws BusError for a zero interval.
  void start(app::Runtime& rt, net::SimTime interval_us);
  /// Stops reading; a read already scheduled becomes a no-op.
  void stop() noexcept { ticker_.stop(); }
  [[nodiscard]] bool running() const noexcept { return ticker_.running(); }

  /// One heartbeat tick: every process in `live`, which is in name order,
  /// beats on its host at `at`. Ticks come in virtual-time order.
  void tick(net::SimTime at, std::uint64_t generation,
            std::span<const app::LiveProcess> live);
  /// Stops tracking one module (replaced, finished, or rebuilt away). Its
  /// machine stays tracked while other modules are attributed to it.
  void forget_module(const std::string& module);
  /// Stops tracking a machine and every module attributed to it (rebuild
  /// finished; the corpse's silence is no longer news).
  void forget_machine(const std::string& machine);

  // --- module verdicts -------------------------------------------------------

  /// Modules silent for longer than the suspicion timeout, sorted by name.
  [[nodiscard]] std::vector<std::string> silent_modules(
      net::SimTime now) const;
  [[nodiscard]] std::optional<net::SimTime> module_last_beat(
      const std::string& module) const;
  [[nodiscard]] std::size_t tracked_modules() const noexcept {
    return modules_.size();
  }

  // --- machine verdicts ------------------------------------------------------

  /// kAlive for a machine that is not tracked.
  [[nodiscard]] MachineHealth health(const std::string& machine,
                                     net::SimTime now) const;
  /// The tracked machines in health `h` at `now`, sorted by name.
  [[nodiscard]] std::vector<std::string> machines_in(MachineHealth h,
                                                     net::SimTime now) const;
  /// Modules attributed to `machine`, sorted (what a rebuild must cover).
  [[nodiscard]] std::vector<std::string> modules_on(
      const std::string& machine) const;
  [[nodiscard]] std::optional<net::SimTime> machine_last_beat(
      const std::string& machine) const;
  /// Every machine with at least one attributed module, sorted.
  [[nodiscard]] std::vector<std::string> machine_names() const;

  /// Process-beats: every live process counts once per tick.
  [[nodiscard]] std::uint64_t beats_observed() const noexcept {
    return beats_;
  }
  [[nodiscard]] const DetectorOptions& options() const noexcept {
    return options_;
  }

 private:
  /// `last` as of walk `walk`; a record the latest walk listed has beaten
  /// on every tick since, the latest at stamp_.
  struct Beat {
    net::SimTime last = 0;
    std::uint64_t walk = 0;
  };
  struct MachineRec {
    Beat beat;
    std::size_t modules = 0;  // modules attributed here
  };
  using MachineMap = std::map<std::string, MachineRec>;
  struct ModuleRec {
    Beat beat;
    MachineMap::iterator machine;  // its attribution
  };

  [[nodiscard]] net::SimTime last_of(const Beat& beat) const noexcept {
    return beat.walk == walk_ ? stamp_ : beat.last;
  }
  /// Silence past `timeout` at `now`?
  [[nodiscard]] bool silent(const Beat& beat, net::SimTime now,
                            net::SimTime timeout) const noexcept {
    const net::SimTime last = last_of(beat);
    return now > last && now - last > timeout;
  }
  [[nodiscard]] MachineHealth health_of(const Beat& beat,
                                        net::SimTime now) const noexcept;
  [[nodiscard]] MachineMap::iterator attach(const std::string& machine);
  /// Detaches one module from `machine`; a record left without modules is
  /// erased, so an empty record never makes a healthy machine look silent.
  void detach(MachineMap::iterator machine);

  DetectorOptions options_;
  MachineMap machines_;
  /// Each module's attribution, in name order: the order the runtime lists
  /// its processes in, so a walk is one merge.
  std::map<std::string, ModuleRec> modules_;
  std::uint64_t beats_ = 0;
  /// The latest walk, and the time of the latest tick since.
  std::uint64_t walk_ = 0;
  net::SimTime stamp_ = 0;
  /// The liveness generation of the latest walk; reset by a forget, which
  /// ends the fast path.
  std::optional<std::uint64_t> walked_generation_;
  net::Ticker ticker_;
};

}  // namespace surgeon::recover
