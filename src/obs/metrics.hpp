// Observability: the platform-wide metrics registry.
//
// Counters, gauges, and fixed-bucket histograms, keyed by name + sorted
// label set. The registry is designed around the simulator's *virtual*
// clock: every timer and span records virtual microseconds (net::SimTime),
// never wall time, so measurements are deterministic and comparable across
// runs and machines, and correlate 1:1 with flight-recorder timestamps.
//
// Cost model: instrumented components (bus, runtime, scripts) hold a
// `MetricsRegistry*` that is null by default, and hot paths cache handles
// (`Counter*`, `Gauge*`) resolved once at registration time. A disabled or
// absent registry therefore costs one pointer test per event -- the
// bench_obs_overhead benchmark pins this down against bench_bus.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace surgeon::obs {

/// Label set of a metric ("module" = "compute", "iface" = "out", ...).
/// Stored sorted by key so the same set always names the same series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// A value that goes up and down (queue depths, bytes held, ...).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  void add(std::int64_t delta) noexcept { value_ += delta; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Fixed-bucket histogram of non-negative integer observations (virtual
/// microseconds, batch sizes, byte counts). Buckets are cumulative upper
/// bounds, Prometheus-style, with an implicit +Inf bucket at the end.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> upper_bounds);

  void observe(std::uint64_t value) noexcept;

  [[nodiscard]] const std::vector<std::uint64_t>& upper_bounds()
      const noexcept {
    return upper_bounds_;
  }
  /// Per-bucket counts, non-cumulative; index upper_bounds().size() is +Inf.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts()
      const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }

  /// Quantile estimate for q in [0, 1] by linear interpolation inside the
  /// bucket holding the target rank (histogram_quantile semantics). The
  /// bucket's lower edge is the previous upper bound (0 for the first);
  /// observations landing in the +Inf bucket clamp to the highest finite
  /// bound. Returns 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const noexcept {
    return quantile_from_buckets(upper_bounds_, counts_, count_, q);
  }

  /// The interpolation shared with merged-bucket consumers (the telemetry
  /// collector re-derives quantiles from summed window buckets). `counts`
  /// must have bounds.size()+1 entries, the last being the +Inf bucket.
  [[nodiscard]] static double quantile_from_buckets(
      const std::vector<std::uint64_t>& bounds,
      const std::vector<std::uint64_t>& counts, std::uint64_t total,
      double q) noexcept;

 private:
  std::vector<std::uint64_t> upper_bounds_;  // sorted ascending
  std::vector<std::uint64_t> counts_;        // size upper_bounds_+1 (+Inf)
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Default bucket bounds for virtual-time measurements: 1us .. 10s.
[[nodiscard]] std::vector<std::uint64_t> default_time_buckets();

/// One closed span: a named phase of a reconfiguration script with its
/// begin/end virtual timestamps. `seq` is the global open order, so a
/// timeline sorted by seq is the order the script executed its steps.
struct SpanRecord {
  std::string name;   // step name: "obj_cap", "rebind", ...
  std::string scope;  // what was reconfigured, e.g. the old instance name
  std::uint64_t begin_us = 0;
  std::uint64_t end_us = 0;
  std::uint64_t seq = 0;

  [[nodiscard]] std::uint64_t duration_us() const noexcept {
    return end_us - begin_us;
  }
  [[nodiscard]] std::string to_string() const;
};

class MetricsRegistry {
 public:
  /// A registry starts disabled: handles resolve (so hot paths can cache
  /// them) but instrumented components skip recording until enabled.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// The virtual clock (the simulator's now()); spans read it at open and
  /// close. Without a clock every timestamp is 0.
  void set_clock(std::function<std::uint64_t()> clock) {
    clock_ = std::move(clock);
  }
  [[nodiscard]] std::uint64_t now() const { return clock_ ? clock_() : 0; }

  /// Handle lookup: creates the series on first use, returns a pointer that
  /// stays valid for the registry's lifetime. Labels may arrive in any
  /// order; they are canonicalized (sorted by key).
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {},
                       std::vector<std::uint64_t> upper_bounds = {});

  /// Test/exporter convenience: the value of a series, 0 if it was never
  /// touched (does not create the series).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            Labels labels = {}) const;
  [[nodiscard]] std::int64_t gauge_value(const std::string& name,
                                         Labels labels = {}) const;

  void record_span(SpanRecord span);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t next_span_seq() noexcept { return span_seq_++; }

  /// Drops every series and span (benchmarks reuse one registry).
  void clear();

  // --- exporter access (deterministic: maps iterate in key order) ---------
  using SeriesKey = std::pair<std::string, Labels>;
  [[nodiscard]] const std::map<SeriesKey, Counter>& counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<SeriesKey, Gauge>& gauges() const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<SeriesKey, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

 private:
  static SeriesKey key_of(const std::string& name, Labels labels);

  bool enabled_ = false;
  std::function<std::uint64_t()> clock_;
  std::map<SeriesKey, Counter> counters_;
  std::map<SeriesKey, Gauge> gauges_;
  std::map<SeriesKey, Histogram> histograms_;
  std::vector<SpanRecord> spans_;
  std::uint64_t span_seq_ = 0;
};

/// RAII timer over the registry's virtual clock. Opening reads now();
/// close() (or destruction) reads it again, appends a SpanRecord, and
/// observes the duration in the `surgeon_reconfig_step_us{step=...}`
/// histogram. With a null or disabled registry a Span is a no-op.
class Span {
 public:
  Span(MetricsRegistry* registry, std::string name, std::string scope);
  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void close();

 private:
  MetricsRegistry* registry_;  // null when disabled at open
  SpanRecord record_;
};

}  // namespace surgeon::obs
