// The supervisor: heartbeat-driven failure recovery for module processes.
//
// One Supervisor runs alongside the coordinator. Its FailureDetector reads
// the runtime's liveness on the virtual clock, it sweeps the detector
// periodically, and when a *watched* module stops beating because its
// process crashed, restores it from its last checkpoint -- on a designated
// spare machine if one was given (migration-on-failure), else in place.
//
// Checkpoints use the production capture path, not the §4 `baseline`
// comparator: a checkpoint IS a replacement-in-place (Figure 5 end to end)
// whose divulged state buffer is additionally persisted to the durable
// store. The module genuinely divulges at a reconfiguration point and a
// clone takes over, so a checkpoint proves restorability every time it is
// taken; the instance name advances (server -> server@2) exactly as any
// replacement does, and the supervisor tracks the current name per logical
// module.
//
// Scheduling caveat: the detector's read and the sweep/checkpoint ticks are
// net::Tickers, so the simulator is never idle while a supervisor runs --
// use predicate- or time-bounded runs (run_until/run_for), and stop() it
// (or destroy it: pending ticks become no-ops) before run_until_idle().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/ticker.hpp"
#include "recover/detector.hpp"
#include "recover/wal.hpp"

namespace surgeon::recover {

struct SupervisorOptions {
  /// How often the detector reads the runtime's liveness.
  net::SimTime heartbeat_interval_us = 10'000;
  /// Silence after which a module is suspected (several heartbeats).
  net::SimTime suspicion_timeout_us = 50'000;
  /// How often the supervisor polls the detector.
  net::SimTime sweep_interval_us = 25'000;
  /// Period of background checkpoints of every watched module; 0 (default)
  /// takes checkpoints only on explicit checkpoint_now() calls.
  net::SimTime checkpoint_interval_us = 0;
};

class Supervisor {
 public:
  /// `store` is the durable store holding checkpoints (normally the
  /// coordinator machine's). Throws BusError, before anything is
  /// scheduled, for a zero heartbeat or sweep interval.
  Supervisor(app::Runtime& rt, net::DurableStore& store,
             SupervisorOptions options = {});
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Watches a module: on crash it is restored from its last checkpoint on
  /// `spare_machine` ("" = restarted on its current machine). The name
  /// given may be any instance generation; tracking follows renames.
  void watch(const std::string& instance,
             const std::string& spare_machine = "");
  /// Starts the detector, the detector sweep, and (if configured) the
  /// periodic checkpoint tick.
  void start();
  /// Stops all of it; pending tick events become no-ops.
  void stop() noexcept;
  [[nodiscard]] bool running() const noexcept {
    return sweep_ticker_.running();
  }

  /// Takes a checkpoint of a watched module now (accepts the logical name
  /// or any instance generation). Runs a full replacement-in-place; the
  /// watched instance name advances. Returns the replacement report.
  reconfig::ReplaceReport checkpoint_now(const std::string& name);
  /// Restores a crashed watched instance from its last checkpoint on its
  /// spare machine; returns the heir's instance name. Throws ScriptError
  /// when no checkpoint exists or the instance is not watched.
  std::string restore_from_checkpoint(const std::string& instance);

  /// Current instance generation of a watched logical module ("" unknown).
  [[nodiscard]] std::string current_instance(const std::string& logical) const;
  [[nodiscard]] bool has_checkpoint(const std::string& logical) const {
    return store_->get(checkpoint_key(logical)) != nullptr;
  }

  [[nodiscard]] FailureDetector& detector() noexcept { return detector_; }
  [[nodiscard]] std::uint64_t checkpoints_taken() const noexcept {
    return checkpoints_;
  }
  [[nodiscard]] std::uint64_t restores() const noexcept { return restores_; }
  [[nodiscard]] std::uint64_t suspects_seen() const noexcept {
    return suspects_seen_;
  }

 private:
  struct Watched {
    std::string logical;
    std::string current;
    std::string spare;
  };

  [[nodiscard]] static std::string checkpoint_key(const std::string& logical) {
    return "ckpt/" + logical;
  }
  [[nodiscard]] Watched* find(const std::string& name);
  void sweep();
  void checkpoint_tick();

  app::Runtime* rt_;
  net::DurableStore* store_;
  SupervisorOptions options_;
  FailureDetector detector_;
  std::map<std::string, Watched, std::less<>> watched_;  // by logical name
  net::Ticker sweep_ticker_;
  net::Ticker checkpoint_ticker_;
  bool in_control_ = false;  // re-entrancy: checkpoint/restore pump the sim
  std::uint64_t checkpoints_ = 0;
  std::uint64_t restores_ = 0;
  std::uint64_t suspects_seen_ = 0;
};

}  // namespace surgeon::recover
