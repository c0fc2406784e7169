// The cluster telemetry aggregation plane (surgeon::profile).
//
// Metrics (PR 1) and traces (PR 3) are per-machine: mh_stats answers from
// the local registry only. This plane adds the cluster view that
// metrics-driven reconfiguration (ROADMAP item 3, after Vogel et al.'s
// autonomous reconfiguration procedures) needs:
//
//   Reporter   one per machine. A real bus module (registered, bound,
//              streaming on its "deltas" interface) that ticks on the
//              virtual clock, diffs the machine's metric series against its
//              last report, and streams the *deltas* to the collector over
//              the ordinary message path — so telemetry traffic rides the
//              reliable delivery layer, is faulted by chaos like any other
//              traffic, and survives replacements via queue capture.
//
//   Collector  a native bus module maintaining sliding-window aggregates
//              (totals, rates, p50/p95/p99 via histogram bucket merge)
//              keyed by machine/module/iface/metric. Answers the new
//              mh_top query (bus::Client::mh_top / tools/mh_top). It is
//              itself replaceable by the Figure-5 script
//              (reconfig::replace_module): it divulges its windows as an
//              abstract state buffer when signalled, and a clone installs
//              them — no window is lost.
//
// Both are bus::NativeModules: registration, the tick chain, stop, crash
// and the signal/divulge/install handshake live in that base; the two
// classes keep their folds and, for the collector, its state codec.
//
// Window semantics: the window advances with DATA, not with virtual time.
// A delta is accredited to the slot covering its arrival time; slots are
// created lazily and pruned to the configured depth. An idle cluster's
// mh_top therefore shows the last active window unchanged — which is what
// makes "byte-identical aggregates across the collector's own replacement"
// a meaningful, testable property.
//
// Delta-stream wire format, one message per changed series per tick on
// deltas -> ingest: [machine, module, iface, metric, kind, payload...]
//   kind "c": payload = [delta]                      (counter increment)
//   kind "g": payload = [value]                      (gauge, absolute)
//   kind "h": payload = [bound, delta]...            (histogram buckets;
//             bound -1 is the +Inf bucket)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bus/native.hpp"
#include "obs/metrics.hpp"
#include "serialize/state.hpp"

namespace surgeon::profile {

/// ModuleInfo.source tag marking telemetry-plane modules. Reporters skip
/// series belonging to tagged modules: streaming a delta bumps the bus
/// counters of the stream itself, and reporting those would feed back into
/// a self-sustaining telemetry loop that never quiesces.
inline constexpr const char* kTelemetrySource = "builtin:telemetry";

/// One aggregate key: where the series lives and what it measures.
struct SeriesId {
  std::string machine;
  std::string module;
  std::string iface;   // empty for module-level series
  std::string metric;  // registry family name

  friend auto operator<=>(const SeriesId&, const SeriesId&) = default;
};

// --- Reporter ----------------------------------------------------------------

class Reporter final : public bus::NativeModule {
 public:
  /// Registers module "telemetry@<machine>" on `machine`, binds its
  /// "deltas" interface to `collector_module`.ingest, and starts ticking
  /// every `interval_us` of virtual time. stop() ends the stream; the module
  /// stays registered (its in-flight deltas still need their endpoint)
  /// until destruction.
  Reporter(bus::Bus& bus, obs::MetricsRegistry& registry, std::string machine,
           std::string collector_module, net::SimTime interval_us = 100'000);

  /// Diffs and streams immediately (tests; the tick calls this too).
  void flush();

  [[nodiscard]] std::uint64_t deltas_sent() const noexcept {
    return deltas_sent_;
  }

 private:
  bool fold() override {
    flush();
    return true;
  }

  obs::MetricsRegistry* registry_;
  std::uint64_t deltas_sent_ = 0;
  // Last reported value per registry series, keyed exactly as the registry
  // keys them so renamed/re-labelled series never collide.
  std::map<obs::MetricsRegistry::SeriesKey, std::uint64_t> last_counter_;
  std::map<obs::MetricsRegistry::SeriesKey, std::int64_t> last_gauge_;
  std::map<obs::MetricsRegistry::SeriesKey, std::vector<std::uint64_t>>
      last_hist_;
};

// --- Collector ---------------------------------------------------------------

struct CollectorOptions {
  /// Processing cadence: drain the ingest queue and handle reconfiguration
  /// traffic every this many virtual microseconds.
  net::SimTime tick_us = 50'000;
  /// One window slot covers this much virtual time.
  net::SimTime slot_us = 1'000'000;
  /// Slots retained; the sliding window spans slot_us * slots.
  std::size_t slots = 8;
};

class Collector final : public bus::NativeModule {
 public:
  /// Registers the collector module (interfaces: "ingest") on `machine`.
  /// STATUS "new" activates immediately and answers mh_top; "clone" stays
  /// passive until a state buffer arrives (mh_decode discipline, Figure 4).
  Collector(bus::Bus& bus, std::string module_name, std::string machine,
            CollectorOptions options = {}, std::string status = "new");

  [[nodiscard]] const CollectorOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] std::uint64_t deltas_applied() const noexcept {
    return deltas_applied_;
  }
  /// Messages that did not parse as delta-stream records (stale or foreign
  /// traffic swept into the ingest queue; counted, never fatal).
  [[nodiscard]] std::uint64_t malformed_dropped() const noexcept {
    return malformed_;
  }

  /// The mh_top rendering: "table" (fixed-width, rate-sorted) or "json"
  /// (deterministic; byte-stable across a replacement of the collector).
  [[nodiscard]] std::string top(const std::string& format) const;
  [[nodiscard]] std::string answer(const std::string& format) const override {
    return top(format);
  }

  /// The window state as an abstract state buffer (what a reconfiguration
  /// signal makes the collector divulge).
  [[nodiscard]] ser::StateBuffer encode_state() const override;

 private:
  struct Slot {
    net::SimTime start_us = 0;
    std::map<SeriesId, std::uint64_t> counters;
    /// bound -> summed delta; bound -1 is the +Inf bucket.
    std::map<SeriesId, std::map<std::int64_t, std::uint64_t>> hists;
  };

  bool fold() override;
  /// Installs a divulged window state. The divulged window geometry wins:
  /// merging slots cut at a different grain would mis-attribute deltas.
  void restore(const ser::StateBuffer& state) override;
  void apply(const bus::Message& msg);
  [[nodiscard]] Slot& slot_for(net::SimTime at);
  [[nodiscard]] std::string top_json() const;
  [[nodiscard]] std::string top_table() const;

  CollectorOptions options_;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t malformed_ = 0;
  std::vector<Slot> slots_;  // oldest first; size <= options_.slots
  std::map<SeriesId, std::int64_t> gauges_;
};

}  // namespace surgeon::profile
