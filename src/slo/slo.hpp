// Streaming SLO engine (surgeon::slo).
//
// The paper's transparency claim — reconfiguration must be invisible to the
// running application — is only testable at the granularity applications
// care about: the request. This module turns the request-scoped trace
// stream (trace::Event::request, assembled by slo::RequestTracker) into
// service-level objective arithmetic:
//
//   Objective   a data-driven target, e.g. "p99 of pipeline end-to-end
//               latency < 2000us over a 60s window", plus the two
//               burn-rate detector windows (fast/slow) that make alerts
//               both quick on sharp regressions and quiet on noise
//               (the SRE multi-window multi-burn-rate pattern).
//
//   Engine      sliding slot-ring windows per objective (good/bad counts)
//               and per service (hop-time attribution), fed one completed
//               request at a time. evaluate() runs the detectors and
//               returns edge-triggered AlertEvents with ascending ids —
//               the id sequence is part of the divulged state, which is
//               what makes "no alert lost or duplicated across monitor
//               replacement" an assertable property.
//
// The engine is deliberately bus-free: slo::Monitor owns one, wires it to
// ingest traffic, metrics, and the mh_slo query, and moves it across a
// Figure-5 replacement as an abstract state buffer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/sim.hpp"
#include "serialize/state.hpp"

namespace surgeon::slo {

/// One service-level objective over end-to-end request latency.
struct Objective {
  std::string name;     // unique, e.g. "pipeline-p99"
  std::string service;  // completions are keyed by service
  double quantile = 0.99;           // latency quantile the threshold bounds
  net::SimTime threshold_us = 0;    // a request is "bad" above this
  net::SimTime window_us = 60'000'000;       // attainment window
  net::SimTime fast_window_us = 5'000'000;   // fast burn detector window
  net::SimTime slow_window_us = 60'000'000;  // slow burn detector window
  double fast_burn = 14.0;  // fire when burn(fast) >= this ...
  double slow_burn = 6.0;   // ... AND burn(slow) >= this

  friend bool operator==(const Objective&, const Objective&) = default;
};

/// Parses the compact objective spec the tools take on the command line:
///
///   "<name> service=<svc> p<QQ[.Q]><<T><us|ms|s> [window=<D>]
///    [fast=<D>@<burn>] [slow=<D>@<burn>]"
///
/// e.g. "pipeline-p99 service=pipeline p99<2000us window=60s fast=5s@14
/// slow=60s@6". Omitted windows keep the defaults above (slow window
/// defaults to the attainment window). Throws support::BusError on a
/// malformed spec.
Objective parse_objective(const std::string& spec);

/// One finished request, as streamed by slo::Probe.
struct Completion {
  std::uint64_t request = 0;
  net::SimTime started_at = 0;
  net::SimTime completed_at = 0;
  net::SimTime latency_us = 0;
  bool complete = true;  // every hop record survived (informational)
  struct Hop {
    std::string module;
    /// Upstream send -> this module's receive: wire transit plus queue
    /// wait behind earlier traffic (the saturation signal).
    net::SimTime queue_us = 0;
    /// This module's receive -> its forwarding send (0 on the terminal).
    net::SimTime handler_us = 0;
  };
  std::vector<Hop> hops;
};

/// Edge-triggered alert, emitted by Engine::evaluate. Ids ascend across
/// fire AND clear events; the counter is divulged state, so a replacement
/// clone continues the sequence without gaps or repeats.
struct AlertEvent {
  enum class Kind : std::uint8_t { kFire, kClear };
  std::uint64_t id = 0;
  std::string objective;
  Kind kind = Kind::kFire;
  net::SimTime at = 0;
  double burn_fast = 0.0;
  double burn_slow = 0.0;
  double attainment = 1.0;
};

[[nodiscard]] const char* alert_kind_name(AlertEvent::Kind kind) noexcept;

struct EngineOptions {
  /// Window slot granularity; detector windows are rounded to it.
  net::SimTime slot_us = 1'000'000;
  /// Slots retained per ring (must cover the widest objective window).
  std::size_t slots = 128;
};

class Engine {
 public:
  /// Throws support::BusError for an empty window geometry (see checked).
  explicit Engine(EngineOptions options = {}) : options_(checked(options)) {}
  /// `options`, once its window geometry is known to be usable: a zero
  /// slot_us would divide by zero and zero slots index an empty ring.
  /// Throws support::BusError otherwise.
  static const EngineOptions& checked(const EngineOptions& options);

  /// Throws support::BusError on a duplicate objective name.
  void add_objective(Objective objective);
  [[nodiscard]] const std::vector<Objective>& objectives() const noexcept {
    return objectives_;
  }
  [[nodiscard]] const EngineOptions& options() const noexcept {
    return options_;
  }

  /// Accredits one completed request to every objective of its service and
  /// to the service's hop-attribution window.
  void observe(const std::string& service, const Completion& completion);

  /// Runs the burn-rate detectors at virtual time `now`; returns the edge
  /// transitions (fire/clear) since the last evaluation, ids ascending.
  [[nodiscard]] std::vector<AlertEvent> evaluate(net::SimTime now);

  /// Registers a replacement blackout window [from_us, to_us]: bad
  /// completions finishing inside one are counted as blackout-correlated.
  /// Windows are kept newest-first, bounded.
  void note_blackout(net::SimTime from_us, net::SimTime to_us);

  // --- reporting ----------------------------------------------------------

  struct ObjectiveStatus {
    const Objective* objective = nullptr;
    std::uint64_t window_total = 0;  // completions in the attainment window
    std::uint64_t window_bad = 0;
    double attainment = 1.0;  // good fraction over the attainment window
    double burn_fast = 0.0;
    double burn_slow = 0.0;
    bool firing = false;
    std::uint64_t violations_total = 0;  // bad completions, lifetime
    std::uint64_t blackout_violations_total = 0;
    std::uint64_t alerts_total = 0;  // fire events, lifetime
  };
  struct HopStatus {
    std::string module;
    std::uint64_t count = 0;
    net::SimTime queue_us = 0;    // summed over the window
    net::SimTime handler_us = 0;  // summed over the window
  };
  struct ServiceStatus {
    std::string service;
    std::uint64_t completions_total = 0;
    std::uint64_t window_completions = 0;
    std::vector<HopStatus> hops;  // sorted by module name
    std::string worst_hop;        // max queue+handler sum over the window
  };

  [[nodiscard]] std::vector<ObjectiveStatus> objective_status(
      net::SimTime now) const;
  [[nodiscard]] std::vector<ServiceStatus> service_status(
      net::SimTime now) const;
  [[nodiscard]] const std::vector<std::pair<net::SimTime, net::SimTime>>&
  blackouts() const noexcept {
    return blackouts_;
  }
  [[nodiscard]] std::uint64_t completions_total() const noexcept {
    return completions_total_;
  }
  /// The id the next alert event will carry (issued ids are 1-based and
  /// contiguous across fire AND clear events).
  [[nodiscard]] std::uint64_t next_alert_id() const noexcept {
    return next_alert_ + 1;
  }

  // --- Figure 5 participation ---------------------------------------------

  /// Everything needed to continue objective arithmetic and the alert id
  /// sequence elsewhere: objectives, window rings, lifetime counters,
  /// firing flags, blackout windows.
  [[nodiscard]] ser::StateBuffer encode_state() const;
  /// Replaces this engine's state with a divulged buffer (clone side).
  /// Throws support::BusError on an unknown format, a short frame, a
  /// negative time or count, or a zero slot width or count, and VmError on
  /// a value of the wrong kind.
  void install_state(const ser::StateBuffer& state);

 private:
  struct ObjSlot {
    net::SimTime start_us = 0;
    std::uint64_t total = 0;
    std::uint64_t bad = 0;
  };
  struct HopAgg {
    std::uint64_t count = 0;
    net::SimTime queue_us = 0;
    net::SimTime handler_us = 0;
  };
  struct SvcSlot {
    net::SimTime start_us = 0;
    std::uint64_t completions = 0;
    std::map<std::string, HopAgg> hops;
  };
  struct ObjState {
    std::vector<ObjSlot> slots;  // oldest first
    bool firing = false;
    std::uint64_t violations_total = 0;
    std::uint64_t blackout_violations_total = 0;
    std::uint64_t alerts_total = 0;
  };
  struct SvcState {
    std::vector<SvcSlot> slots;  // oldest first
    std::uint64_t completions_total = 0;
  };

  [[nodiscard]] bool in_blackout(net::SimTime at) const;
  template <typename Slot>
  Slot& slot_for(std::vector<Slot>& ring, net::SimTime at);
  /// Sums {total, bad} over slots overlapping [now - window, now].
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> window_counts(
      const std::vector<ObjSlot>& ring, net::SimTime now,
      net::SimTime window_us) const;
  [[nodiscard]] static double burn_rate(std::uint64_t total, std::uint64_t bad,
                                        double quantile);

  EngineOptions options_;
  std::vector<Objective> objectives_;
  std::map<std::string, ObjState> obj_state_;      // by objective name
  std::map<std::string, SvcState> svc_state_;      // by service
  std::vector<std::pair<net::SimTime, net::SimTime>> blackouts_;
  std::uint64_t completions_total_ = 0;
  std::uint64_t next_alert_ = 0;
};

}  // namespace surgeon::slo
