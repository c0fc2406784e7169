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
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "bus/client.hpp"
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

class Reporter {
 public:
  /// Registers module "telemetry@<machine>" on `machine`, binds its
  /// "deltas" interface to `collector_module`.ingest, and starts ticking
  /// every `interval_us` of virtual time.
  Reporter(bus::Bus& bus, obs::MetricsRegistry& registry, std::string machine,
           std::string collector_module, net::SimTime interval_us = 100'000);
  ~Reporter();

  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  [[nodiscard]] const std::string& module_name() const noexcept {
    return module_;
  }
  /// Diffs and streams immediately (tests; the tick calls this too).
  void flush();
  /// Stops the tick chain and stops streaming. The module stays registered
  /// (its in-flight deltas still need their endpoint) until destruction.
  void stop() noexcept { alive_.reset(); }

  [[nodiscard]] std::uint64_t deltas_sent() const noexcept {
    return deltas_sent_;
  }

 private:
  void schedule_tick();

  bus::Bus* bus_;
  obs::MetricsRegistry* registry_;
  std::string machine_;
  std::string module_;
  bus::Client client_;
  net::SimTime interval_us_;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
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

class Collector {
 public:
  /// Registers the collector module (interfaces: "ingest") on `machine`.
  /// STATUS "new" activates immediately; "clone" stays passive until a
  /// state buffer arrives (mh_decode discipline, Figure 4).
  Collector(bus::Bus& bus, std::string module_name, std::string machine,
            CollectorOptions options = {}, std::string status = "new");
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  [[nodiscard]] const std::string& module_name() const noexcept {
    return module_;
  }
  [[nodiscard]] const CollectorOptions& options() const noexcept {
    return options_;
  }
  /// Clone: has the state buffer been installed? ("new": true from start.)
  [[nodiscard]] bool active() const noexcept { return active_; }
  /// Signalled and divulged; no longer processing (awaiting retirement).
  [[nodiscard]] bool passivated() const noexcept { return passivated_; }
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

  /// Removes the module from the bus and stops the tick chain.
  void retire();

  // --- Figure 5 participation (the native-module variant of the VM's
  // --- capture/restore blocks) --------------------------------------------

  /// The window state as an abstract state buffer (what a reconfiguration
  /// signal makes the collector divulge).
  [[nodiscard]] ser::StateBuffer encode_state() const;
  /// Installs a divulged window state and activates (clone side).
  void install_state(const ser::StateBuffer& state);

  /// One processing step, exposed for deterministic tests; normally driven
  /// by the virtual-clock tick chain.
  void tick();

 private:
  struct Slot {
    net::SimTime start_us = 0;
    std::map<SeriesId, std::uint64_t> counters;
    /// bound -> summed delta; bound -1 is the +Inf bucket.
    std::map<SeriesId, std::map<std::int64_t, std::uint64_t>> hists;
  };

  void schedule_tick();
  void activate();
  void apply(const bus::Message& msg);
  [[nodiscard]] Slot& slot_for(net::SimTime at);
  [[nodiscard]] std::string top_json() const;
  [[nodiscard]] std::string top_table() const;

  bus::Bus* bus_;
  std::string module_;
  std::string machine_;
  CollectorOptions options_;
  bus::Client client_;
  bool active_ = false;
  bool passivated_ = false;
  std::uint64_t deltas_applied_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t top_token_ = 0;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  std::vector<Slot> slots_;  // oldest first; size <= options_.slots
  std::map<SeriesId, std::int64_t> gauges_;
};

}  // namespace surgeon::profile
