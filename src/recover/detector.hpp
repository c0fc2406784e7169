// Heartbeat failure detector.
//
// Every live module process beats once per heartbeat interval (the runtime
// drives this on the virtual clock); the detector remembers the last beat
// per module and reports as suspect any module whose silence exceeds the
// suspicion timeout. On the discrete-event clock a healthy module's beats
// are perfectly periodic, so suspicion is not probabilistic the way a
// wall-clock phi-accrual detector is -- a suspect here really has stopped
// beating (crashed, finished, or removed); the supervisor disambiguates.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "net/sim.hpp"

namespace surgeon::recover {

struct DetectorOptions {
  /// Silence after which a module is suspected. Should cover several
  /// heartbeat intervals so one is never enough (default: five 10ms beats).
  net::SimTime suspicion_timeout_us = 50'000;
};

class FailureDetector {
 public:
  explicit FailureDetector(DetectorOptions options = {})
      : options_(options) {}

  /// A heartbeat from `module` at virtual time `at`.
  void beat(const std::string& module, net::SimTime at) {
    ++beats_;
    last_[module] = at;
  }
  /// Stops tracking a module (removed, replaced, or finished normally).
  void forget(const std::string& module) { last_.erase(module); }

  /// Modules silent for longer than the suspicion timeout, sorted by name.
  [[nodiscard]] std::vector<std::string> suspects(net::SimTime now) const;

  [[nodiscard]] std::optional<net::SimTime> last_beat(
      const std::string& module) const;
  [[nodiscard]] std::uint64_t beats_observed() const noexcept {
    return beats_;
  }
  [[nodiscard]] std::size_t tracked() const noexcept { return last_.size(); }
  [[nodiscard]] const DetectorOptions& options() const noexcept {
    return options_;
  }

 private:
  DetectorOptions options_;
  std::map<std::string, net::SimTime> last_;
  std::uint64_t beats_ = 0;
};

// --- machine-level detection (surgeon::replicate) ---------------------------

/// A machine's health as the detector sees it. The suspect/confirm split
/// follows the usual two-threshold discipline: a *suspect* machine stops
/// receiving new placements, a *confirmed* machine triggers rebuild. On the
/// virtual clock the second threshold is not about false positives (silence
/// is deterministic here) but about batching: a machine that loses its
/// processes one heartbeat apart is rebuilt once, not once per module.
enum class MachineHealth : std::uint8_t { kAlive, kSuspect, kConfirmed };

[[nodiscard]] const char* machine_health_name(MachineHealth h) noexcept;

struct MachineDetectorOptions {
  /// Per-module silence that makes the module's machine suspect.
  net::SimTime suspicion_timeout_us = 50'000;
  /// Silence after which a suspect machine is confirmed dead.
  net::SimTime confirm_timeout_us = 120'000;
};

/// Aggregates per-module heartbeats (the FailureDetector's currency) into
/// machine-level verdicts: a machine is as alive as its most recently heard
/// module. Module-to-machine attribution comes from the caller (the runtime
/// lists each process's host on its tick); the detector itself never
/// touches the bus, so it is testable on bare timestamps like
/// FailureDetector. Each module's attribution is cached, and the runtime
/// lists its processes in name order -- the attribution map's order -- so
/// the detector keeps a hint at the attribution it expects next: a beat
/// from a module that has not moved, arriving in that order, is one name
/// compare, one host compare and one max. Any other beat (a new module, a
/// migration, a gap left by a module that stopped beating) is one map
/// search, after which the hint follows it again.
///
/// A whole tick (tick()) costs what changed: a tick whose liveness
/// generation is the one of the last full walk, with nothing changed in the
/// detector since, re-stamps only the machines that walk beat.
class MachineDetector {
 public:
  explicit MachineDetector(MachineDetectorOptions options = {})
      : options_(options) {}
  /// The hint is an iterator into this detector's own map; a copy would
  /// carry it into the original's.
  MachineDetector(const MachineDetector&) = delete;
  MachineDetector& operator=(const MachineDetector&) = delete;

  /// A heartbeat from `module` hosted on `machine` at virtual time `at`.
  void beat(const std::string& module, const std::string& machine,
            net::SimTime at);
  /// One runtime heartbeat tick (app::Runtime::HeartbeatSink): every
  /// process in `live` beats on its host at `at`, in list order, so a
  /// member that migrated (a new process under a new name) vouches for its
  /// new host only. When `generation` is the one of this detector's last
  /// full walk and nothing has changed the detector since (forget_module,
  /// forget_machine or a per-module beat), `live` is the list that walk
  /// saw: the tick stamps the machines it beat and counts the beats
  /// without reading the list. Otherwise it walks the list beat by beat.
  void tick(net::SimTime at, std::uint64_t generation,
            std::span<const app::LiveProcess> live);
  /// Stops tracking one module (replaced, finished, or rebuilt away). The
  /// machine entry stays while other modules beat on it.
  void forget_module(const std::string& module);
  /// Stops tracking a machine entirely (rebuild finished; the corpse's
  /// silence is no longer news).
  void forget_machine(const std::string& machine);

  [[nodiscard]] MachineHealth health(const std::string& machine,
                                     net::SimTime now) const;
  /// Machines in the given state, sorted by name.
  [[nodiscard]] std::vector<std::string> suspects(net::SimTime now) const;
  [[nodiscard]] std::vector<std::string> confirmed(net::SimTime now) const;

  /// Modules attributed to `machine`, sorted (what a rebuild must cover).
  [[nodiscard]] std::vector<std::string> modules_on(
      const std::string& machine) const;
  [[nodiscard]] std::optional<net::SimTime> last_beat(
      const std::string& machine) const;
  [[nodiscard]] std::size_t tracked_machines() const noexcept {
    return machines_.size();
  }
  /// Every machine with at least one attributed module, sorted.
  [[nodiscard]] std::vector<std::string> machine_names() const {
    std::vector<std::string> out;
    out.reserve(machines_.size());
    for (const auto& [machine, rec] : machines_) out.push_back(machine);
    return out;
  }
  [[nodiscard]] std::uint64_t beats_observed() const noexcept {
    return beats_;
  }
  [[nodiscard]] const MachineDetectorOptions& options() const noexcept {
    return options_;
  }

 private:
  struct MachineRec {
    net::SimTime last = 0;           // most recent beat of any module
    std::set<std::string> modules;   // modules attributed here
    std::uint64_t walk = 0;          // the last full walk that beat it
  };
  using MachineMap = std::map<std::string, MachineRec>;

  /// beat() without ending the fast path; returns the module's machine.
  MachineMap::iterator attribute(const std::string& module,
                                 const std::string& machine, net::SimTime at);
  /// Detaches `module` from `machine`; a record left without modules is
  /// erased, so an empty record never makes a healthy machine look silent.
  void detach(MachineMap::iterator machine, const std::string& module);

  MachineDetectorOptions options_;
  MachineMap machines_;
  /// Each module's attribution: the record of the machine it beats on. A
  /// record is erased only when no attribution points at it any more
  /// (detach on its last module, or forget_machine dropping them all), so
  /// the cached iterators never dangle.
  using ModuleMap = std::map<std::string, MachineMap::iterator>;
  ModuleMap module_machine_;
  /// Where the next beat is expected: the attribution after the last one
  /// beaten, wrapping to the first. end() when unset; every erase from
  /// module_machine_ resets it, so it never names an erased entry.
  ModuleMap::iterator hint_ = module_machine_.end();
  std::uint64_t beats_ = 0;
  /// The liveness generation of the last full walk; reset by every change
  /// to the detector from outside a tick, which ends the fast path.
  std::optional<std::uint64_t> walked_generation_;
  std::uint64_t walks_ = 0;
  /// The machines the last full walk beat, each once. Each keeps a module
  /// that walk attributed to it until a forget or a per-module beat, both
  /// of which end the fast path, so these iterators are valid whenever it
  /// reads them.
  std::vector<MachineMap::iterator> walked_machines_;
};

}  // namespace surgeon::recover
