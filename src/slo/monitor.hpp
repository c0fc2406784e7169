// The SLO plane's bus modules (surgeon::slo).
//
// Mirrors the telemetry plane's Reporter/Collector split (surgeon::profile),
// and for the same reason: by making both halves real bus modules whose
// traffic rides ordinary bindings, the SLO pipeline is faulted by chaos,
// sequenced by the reliable layer, and survives replacement via queue
// capture — the alert stream is as observable (and as protected) as the
// application traffic it judges.
//
//   Probe     holds the streaming RequestTracker (fed straight off the
//             flight recorder's observer hook, so it never loses a
//             completion to ring eviction), batches finished requests, and
//             streams them on its "records" interface to the monitor.
//
//   Monitor   drains "records" into the slo::Engine, publishes alert
//             events as ordinary bus messages on its "alerts" interface
//             AND as surgeon_slo_* metrics through obs, and answers the
//             mh_slo query. Replaceable by the Figure-5 script
//             (reconfig::replace_module): the engine state (windows,
//             lifetime counters, the alert id sequence, blackout windows)
//             moves as an abstract state buffer, so a replacement neither
//             loses nor re-fires alerts.
//
// Both are bus::NativeModules. The base owns registration, the tick chain
// with its idle backoff (max_tick_us), stop, crash and the
// signal/divulge/install handshake; Probe keeps its drain, Monitor its
// ingest-and-evaluate fold and the engine's state.
//
// Record-stream wire format, one message per batch on records -> ingest:
//   [service, count, { request, started_at, completed_at, latency_us,
//                      complete, nhops, { module, queue_us, handler_us
//                    }*nhops }*count]
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bus/native.hpp"
#include "obs/metrics.hpp"
#include "slo/request.hpp"
#include "slo/slo.hpp"

namespace surgeon::slo {

/// ModuleInfo.source tag for SLO-plane modules (keeps them recognizable
/// and lets the telemetry Reporter keep streaming their bus metrics —
/// unlike the telemetry plane itself, the SLO plane cannot feed back into
/// its own input, which is the trace stream, not the metrics registry).
inline constexpr const char* kSloSource = "builtin:slo";

// --- Probe -------------------------------------------------------------------

struct ProbeOptions {
  /// Drain cadence on the virtual clock.
  net::SimTime tick_us = 50'000;
  /// Completions per record-stream message (amortizes per-message bus cost
  /// so the enabled-path overhead stays inside the bench budget).
  std::size_t batch = 64;
  /// A partial batch is held back until its oldest completion is this old,
  /// so a trickle of traffic doesn't cost one bus message per request.
  /// Bounded staleness: small against the burn-rate detector windows.
  net::SimTime linger_us = 100'000;
  /// Idle backoff cap: each tick that drains nothing doubles the next
  /// delay up to this bound, so an idle probe costs O(1/max_tick_us) sim
  /// events instead of O(1/tick_us). First traffic after a quiet stretch
  /// waits at most this long for pickup; the next tick snaps back to
  /// tick_us.
  net::SimTime max_tick_us = 1'000'000;
  /// RequestTracker open-table bound.
  std::size_t max_open = 65'536;
};

class Probe final : public bus::NativeModule {
 public:
  /// Registers module "sloprobe@<machine>" on `machine`, binds "records"
  /// to `monitor_module`.ingest, subscribes the tracker to `recorder`, and
  /// starts ticking. `service` labels every batch from this probe.
  Probe(bus::Bus& bus, trace::Recorder& recorder, std::string machine,
        std::string service, std::string monitor_module,
        ProbeOptions options = {});
  ~Probe() override;

  [[nodiscard]] const RequestTracker& tracker() const noexcept {
    return tracker_;
  }
  /// Drains and streams everything immediately, partial batch included
  /// (tests and shutdown; the tick lingers partial batches instead).
  void flush();
  /// Stops the tick chain and the observer subscription.
  void stop() noexcept override;

  [[nodiscard]] std::uint64_t batches_sent() const noexcept {
    return batches_sent_;
  }

 private:
  /// A tick that finds nothing (no fresh completions, no partial batch
  /// waiting out its linger) is idle.
  bool fold() override { return drain(/*force=*/false) || !pending_.empty(); }
  bool drain(bool force);
  void send_batch(std::size_t n);

  trace::Recorder* recorder_;
  std::string service_;
  ProbeOptions options_;
  RequestTracker tracker_;
  trace::Recorder::ObserverId observer_ = 0;
  std::uint64_t batches_sent_ = 0;
  std::vector<Completion> pending_;     // drained, not yet streamed
  net::SimTime pending_since_ = 0;      // when pending_ became non-empty
};

// --- Monitor -----------------------------------------------------------------

struct MonitorOptions {
  /// Processing cadence: drain ingest, run the detectors, publish.
  net::SimTime tick_us = 50'000;
  /// Idle backoff cap (see ProbeOptions::max_tick_us): a tick that applies
  /// no records doubles the next delay up to this bound. Record batches
  /// arriving after a quiet stretch wait at most this long before the
  /// detectors see them.
  net::SimTime max_tick_us = 1'000'000;
  EngineOptions engine;
};

class Monitor final : public bus::NativeModule {
 public:
  /// Registers the monitor module (interfaces: "ingest" use, "alerts"
  /// define) on `machine`. STATUS "new" activates immediately and answers
  /// mh_slo; "clone" stays passive until a state buffer arrives (Figure 4
  /// discipline).
  Monitor(bus::Bus& bus, std::string module_name, std::string machine,
          MonitorOptions options = {}, std::string status = "new");

  [[nodiscard]] const MonitorOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const Engine& engine() const noexcept { return engine_; }
  [[nodiscard]] std::uint64_t records_applied() const noexcept {
    return records_applied_;
  }
  [[nodiscard]] std::uint64_t malformed_dropped() const noexcept {
    return malformed_;
  }
  [[nodiscard]] std::uint64_t alerts_published() const noexcept {
    return alerts_published_;
  }

  /// Adds an objective to the engine ("new" instances; clones inherit the
  /// divulged objective set instead).
  void add_objective(Objective objective);
  /// Registers a replacement blackout window for violation correlation.
  void note_blackout(net::SimTime from_us, net::SimTime to_us);

  /// The mh_slo rendering: "text" or "json" (deterministic; byte-stable
  /// across a replacement of the monitor itself).
  [[nodiscard]] std::string report(const std::string& format) const;
  [[nodiscard]] std::string answer(const std::string& format) const override {
    return report(format);
  }

  [[nodiscard]] ser::StateBuffer encode_state() const override {
    return engine_.encode_state();
  }

 private:
  /// Drains ingest, runs the detectors, publishes. Idle when no record was
  /// applied: slot roll-over evaluations still happen (the gate below keys
  /// on the clock, not the cadence), just no more than once per backed-off
  /// tick.
  bool fold() override;
  void restore(const ser::StateBuffer& state) override {
    engine_.install_state(state);
  }
  void apply(const bus::Message& msg);
  void publish_alert(const AlertEvent& ev);
  void refresh_gauges(net::SimTime now);
  [[nodiscard]] std::string report_text(net::SimTime now) const;
  [[nodiscard]] std::string report_json(net::SimTime now) const;

  // Per-objective gauge handles, resolved once (registry nodes are
  // reference-stable): a labeled lookup builds a label map per call, which
  // would dominate refresh_gauges on every productive tick.
  struct GaugeSet {
    obs::Gauge* attainment;
    obs::Gauge* burn_fast;
    obs::Gauge* burn_slow;
    obs::Gauge* firing;
  };
  GaugeSet& gauges_for(const std::string& objective);

  MonitorOptions options_;
  Engine engine_;
  std::map<std::string, GaugeSet> gauges_;
  // Evaluation gate: the window arithmetic is slot-granular, so with no new
  // records the detector verdict can only change when the clock crosses a
  // slot boundary. Idle ticks inside a slot skip the engine entirely.
  bool evaluated_once_ = false;
  net::SimTime eval_slot_ = 0;
  std::uint64_t eval_records_ = 0;
  std::uint64_t records_applied_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t alerts_published_ = 0;
};

}  // namespace surgeon::slo
