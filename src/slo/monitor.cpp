#include "slo/monitor.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/diag.hpp"

namespace surgeon::slo {

namespace {

using support::BusError;

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt_fixed(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string duration_text(net::SimTime us) {
  if (us % 1'000'000 == 0) return std::to_string(us / 1'000'000) + "s";
  if (us % 1'000 == 0) return std::to_string(us / 1'000) + "ms";
  return std::to_string(us) + "us";
}

std::string quantile_text(double quantile) {
  const double pct = quantile * 100.0;
  if (pct == static_cast<double>(static_cast<int>(pct))) {
    return std::to_string(static_cast<int>(pct));
  }
  return fmt_fixed(pct, 1);
}

}  // namespace

// --- Probe -------------------------------------------------------------------

Probe::Probe(bus::Bus& bus, trace::Recorder& recorder, std::string machine,
             std::string service, std::string monitor_module,
             ProbeOptions options)
    : NativeModule(
          bus,
          {.name = "sloprobe@" + machine,
           .machine = machine,
           .source = kSloSource,
           .interfaces = {{"records", bus::IfaceRole::kDefine, "", ""}}},
          options.tick_us, options.max_tick_us),
      recorder_(&recorder),
      service_(std::move(service)),
      options_(options),
      tracker_(options.max_open) {
  bus.add_binding(bus::BindingEnd{module_name(), "records"},
                  bus::BindingEnd{std::move(monitor_module), "ingest"});
  observer_ = recorder_->add_observer(
      [this](const trace::Event& ev) { tracker_.observe(ev); });
}

Probe::~Probe() { stop(); }

void Probe::stop() noexcept {
  NativeModule::stop();
  if (observer_ != 0) {
    recorder_->remove_observer(observer_);
    observer_ = 0;
  }
}

void Probe::flush() { (void)drain(/*force=*/true); }

bool Probe::drain(bool force) {
  std::vector<Completion> done = tracker_.drain();
  if (!done.empty()) {
    if (pending_.empty()) pending_since_ = bus().simulator().now();
    pending_.insert(pending_.end(), std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
  }
  while (pending_.size() >= options_.batch) send_batch(options_.batch);
  // The partial batch lingers up to linger_us: a trickle of traffic then
  // costs one bus message per linger window, not one per request.
  if (!pending_.empty() &&
      (force ||
       bus().simulator().now() - pending_since_ >= options_.linger_us)) {
    send_batch(pending_.size());
  }
  return !done.empty();
}

void Probe::send_batch(std::size_t n) {
  std::vector<ser::Value> values;
  values.reserve(2 + n * 8);
  values.emplace_back(service_);
  values.emplace_back(static_cast<std::int64_t>(n));
  for (std::size_t k = 0; k < n; ++k) {
    const Completion& c = pending_[k];
    values.emplace_back(static_cast<std::int64_t>(c.request));
    values.emplace_back(static_cast<std::int64_t>(c.started_at));
    values.emplace_back(static_cast<std::int64_t>(c.completed_at));
    values.emplace_back(static_cast<std::int64_t>(c.latency_us));
    values.emplace_back(static_cast<std::int64_t>(c.complete ? 1 : 0));
    values.emplace_back(static_cast<std::int64_t>(c.hops.size()));
    for (const Completion::Hop& hop : c.hops) {
      values.emplace_back(hop.module);
      values.emplace_back(static_cast<std::int64_t>(hop.queue_us));
      values.emplace_back(static_cast<std::int64_t>(hop.handler_us));
    }
  }
  client().write("records", std::move(values));
  ++batches_sent_;
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
  pending_since_ = bus().simulator().now();
}

// --- Monitor -----------------------------------------------------------------

Monitor::Monitor(bus::Bus& bus, std::string module_name, std::string machine,
                 MonitorOptions options, std::string status)
    : NativeModule(
          bus,
          {.name = std::move(module_name),
           .machine = std::move(machine),
           .status = std::move(status),
           .source = kSloSource,
           .interfaces = {{"ingest", bus::IfaceRole::kUse, "", ""},
                          {"alerts", bus::IfaceRole::kDefine, "", ""}}},
          // The engine's geometry is checked before the module registers.
          ((void)Engine::checked(options.engine), options.tick_us),
          options.max_tick_us, "slo"),
      options_(options),
      engine_(options.engine) {}

void Monitor::add_objective(Objective objective) {
  engine_.add_objective(std::move(objective));
  evaluated_once_ = false;  // re-arm the evaluation gate for the newcomer
}

void Monitor::note_blackout(net::SimTime from_us, net::SimTime to_us) {
  engine_.note_blackout(from_us, to_us);
  evaluated_once_ = false;
}

bool Monitor::fold() {
  const std::uint64_t applied_before = records_applied_;
  while (auto msg = client().try_read("ingest")) apply(*msg);
  const net::SimTime now = bus().simulator().now();
  // The engine's windows are slot-granular: with no new records since the
  // last evaluation, the detector verdict (and every gauge) is unchanged
  // until the clock crosses a slot boundary. Skipping idle in-slot ticks
  // keeps the enabled-path cost proportional to traffic, not virtual time.
  const net::SimTime slot = now / engine_.options().slot_us;
  if (!evaluated_once_ || slot != eval_slot_ ||
      records_applied_ != eval_records_) {
    for (const AlertEvent& ev : engine_.evaluate(now)) publish_alert(ev);
    refresh_gauges(now);
    evaluated_once_ = true;
    eval_slot_ = slot;
    eval_records_ = records_applied_;
  }
  return records_applied_ != applied_before;
}

void Monitor::apply(const bus::Message& msg) {
  const std::vector<ser::Value>& v = msg.values;
  if (v.size() < 2 || !v[0].is_string() || !v[1].is_int()) {
    ++malformed_;
    return;
  }
  const std::string& service = v[0].as_string();
  const std::int64_t count = v[1].as_int();
  obs::MetricsRegistry* reg = bus().metrics();
  const bool metrics_on = reg != nullptr && reg->enabled();
  // The service is constant across the batch: resolve the hot series once
  // (a labeled-map lookup per completion would dominate the apply path).
  // Violation counters stay lazily resolved -- violations are the rare
  // case, and eager resolution would surface zero-valued series in the
  // exporter before the first violation.
  obs::Counter* completions_ctr = nullptr;
  obs::Histogram* latency_hist = nullptr;
  if (metrics_on) {
    completions_ctr =
        &reg->counter("surgeon_slo_completions_total", {{"service", service}});
    latency_hist =
        &reg->histogram("surgeon_slo_request_latency_us", {{"service", service}});
  }
  std::size_t i = 2;
  for (std::int64_t k = 0; k < count; ++k) {
    if (i + 6 > v.size()) {
      ++malformed_;
      return;
    }
    for (std::size_t j = i; j < i + 6; ++j) {
      if (!v[j].is_int()) {
        ++malformed_;
        return;
      }
    }
    Completion c;
    c.request = static_cast<std::uint64_t>(v[i].as_int());
    c.started_at = v[i + 1].as_int();
    c.completed_at = v[i + 2].as_int();
    c.latency_us = v[i + 3].as_int();
    c.complete = v[i + 4].as_int() != 0;
    const std::int64_t nhops = v[i + 5].as_int();
    i += 6;
    for (std::int64_t h = 0; h < nhops; ++h) {
      if (i + 3 > v.size() || !v[i].is_string() || !v[i + 1].is_int() ||
          !v[i + 2].is_int()) {
        ++malformed_;
        return;
      }
      c.hops.push_back(Completion::Hop{
          v[i].as_string(), static_cast<net::SimTime>(v[i + 1].as_int()),
          static_cast<net::SimTime>(v[i + 2].as_int())});
      i += 3;
    }
    if (metrics_on) {
      completions_ctr->inc();
      latency_hist->observe(static_cast<std::uint64_t>(c.latency_us));
      for (const Objective& obj : engine_.objectives()) {
        if (obj.service != service || c.latency_us <= obj.threshold_us) {
          continue;
        }
        reg->counter("surgeon_slo_violations_total",
                     {{"objective", obj.name}})
            .inc();
        if (std::any_of(engine_.blackouts().begin(),
                        engine_.blackouts().end(), [&](const auto& w) {
                          return c.completed_at >= w.first &&
                                 c.completed_at <= w.second;
                        })) {
          reg->counter("surgeon_slo_blackout_violations_total",
                       {{"objective", obj.name}})
              .inc();
        }
      }
    }
    engine_.observe(service, c);
    ++records_applied_;
  }
  if (i != v.size()) ++malformed_;  // trailing garbage: count, keep applied
}

void Monitor::publish_alert(const AlertEvent& ev) {
  // Alerts are ordinary bus traffic: chaos can drop them (fire-and-forget)
  // or the reliable layer sequences them — exactly like the application
  // messages whose latency they judge.
  client().write(
      "alerts",
      {ser::Value{static_cast<std::int64_t>(ev.id)}, ser::Value{ev.objective},
       ser::Value{std::string{alert_kind_name(ev.kind)}},
       ser::Value{static_cast<std::int64_t>(ev.at)},
       ser::Value{static_cast<std::int64_t>(ev.burn_fast * 1000.0)},
       ser::Value{static_cast<std::int64_t>(ev.burn_slow * 1000.0)},
       ser::Value{static_cast<std::int64_t>(ev.attainment * 1'000'000.0)}});
  ++alerts_published_;
  obs::MetricsRegistry* reg = bus().metrics();
  if (reg != nullptr && reg->enabled()) {
    reg->counter("surgeon_slo_alerts_total",
                 {{"kind", alert_kind_name(ev.kind)},
                  {"objective", ev.objective}})
        .inc();
  }
}

Monitor::GaugeSet& Monitor::gauges_for(const std::string& objective) {
  auto it = gauges_.find(objective);
  if (it == gauges_.end()) {
    obs::MetricsRegistry& reg = *bus().metrics();
    GaugeSet set;
    set.attainment =
        &reg.gauge("surgeon_slo_attainment_ppm", {{"objective", objective}});
    set.burn_fast = &reg.gauge("surgeon_slo_burn_milli",
                               {{"objective", objective}, {"window", "fast"}});
    set.burn_slow = &reg.gauge("surgeon_slo_burn_milli",
                               {{"objective", objective}, {"window", "slow"}});
    set.firing = &reg.gauge("surgeon_slo_firing", {{"objective", objective}});
    it = gauges_.emplace(objective, set).first;
  }
  return it->second;
}

void Monitor::refresh_gauges(net::SimTime now) {
  obs::MetricsRegistry* reg = bus().metrics();
  if (reg == nullptr || !reg->enabled()) return;
  for (const Engine::ObjectiveStatus& st : engine_.objective_status(now)) {
    GaugeSet& g = gauges_for(st.objective->name);
    g.attainment->set(static_cast<std::int64_t>(st.attainment * 1'000'000.0));
    g.burn_fast->set(static_cast<std::int64_t>(st.burn_fast * 1000.0));
    g.burn_slow->set(static_cast<std::int64_t>(st.burn_slow * 1000.0));
    g.firing->set(st.firing ? 1 : 0);
  }
}

// --- Monitor: the mh_slo renderings ------------------------------------------

std::string Monitor::report(const std::string& format) const {
  const net::SimTime now = bus().simulator().now();
  if (format == "json") return report_json(now);
  if (format == "text") return report_text(now);
  throw BusError("mh_slo: unknown format '" + format +
                 "' (expected \"text\" or \"json\")");
}

std::string Monitor::report_text(net::SimTime now) const {
  std::ostringstream os;
  os << "SLO REPORT @ " << now << "us  completions "
     << engine_.completions_total() << "\n";
  for (const Engine::ObjectiveStatus& st : engine_.objective_status(now)) {
    const Objective& obj = *st.objective;
    os << "objective " << obj.name << "  service=" << obj.service << "  p"
       << quantile_text(obj.quantile) << "<" << obj.threshold_us
       << "us  window "
       << duration_text(obj.window_us) << "\n"
       << "  attainment " << fmt_fixed(st.attainment, 6) << "  (total "
       << st.window_total << ", bad " << st.window_bad << ")\n"
       << "  burn fast " << fmt_fixed(st.burn_fast, 3) << " ("
       << duration_text(obj.fast_window_us) << "@"
       << fmt_fixed(obj.fast_burn, 1) << ")  slow "
       << fmt_fixed(st.burn_slow, 3) << " ("
       << duration_text(obj.slow_window_us) << "@"
       << fmt_fixed(obj.slow_burn, 1) << ")  "
       << (st.firing ? "FIRING" : "ok") << "\n"
       << "  violations " << st.violations_total << " (blackout-correlated "
       << st.blackout_violations_total << ")  alerts " << st.alerts_total
       << "\n";
  }
  for (const Engine::ServiceStatus& st : engine_.service_status(now)) {
    os << "service " << st.service << "  completions "
       << st.completions_total << " (window " << st.window_completions
       << ")";
    if (!st.worst_hop.empty()) os << "  worst-hop " << st.worst_hop;
    os << "\n";
    for (const Engine::HopStatus& hop : st.hops) {
      os << "  hop " << hop.module << "  count " << hop.count << "  queue "
         << hop.queue_us << "us  handler " << hop.handler_us << "us\n";
    }
  }
  os << "blackouts " << engine_.blackouts().size() << "\n";
  for (const auto& [from, to] : engine_.blackouts()) {
    os << "  [" << from << "us, " << to << "us]\n";
  }
  return os.str();
}

std::string Monitor::report_json(net::SimTime now) const {
  std::ostringstream os;
  os << "{\"at\":" << now
     << ",\"completions\":" << engine_.completions_total()
     << ",\"objectives\":[";
  bool first = true;
  for (const Engine::ObjectiveStatus& st : engine_.objective_status(now)) {
    const Objective& obj = *st.objective;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << json_quote(obj.name)
       << ",\"service\":" << json_quote(obj.service)
       << ",\"quantile\":" << fmt_fixed(obj.quantile, 4)
       << ",\"threshold_us\":" << obj.threshold_us
       << ",\"window_us\":" << obj.window_us
       << ",\"attainment\":" << fmt_fixed(st.attainment, 6)
       << ",\"window_total\":" << st.window_total
       << ",\"window_bad\":" << st.window_bad
       << ",\"burn_fast\":" << fmt_fixed(st.burn_fast, 3)
       << ",\"burn_slow\":" << fmt_fixed(st.burn_slow, 3)
       << ",\"firing\":" << (st.firing ? "true" : "false")
       << ",\"violations\":" << st.violations_total
       << ",\"blackout_violations\":" << st.blackout_violations_total
       << ",\"alerts\":" << st.alerts_total << "}";
  }
  os << "],\"services\":[";
  first = true;
  for (const Engine::ServiceStatus& st : engine_.service_status(now)) {
    if (!first) os << ",";
    first = false;
    os << "{\"service\":" << json_quote(st.service)
       << ",\"completions\":" << st.completions_total
       << ",\"window_completions\":" << st.window_completions
       << ",\"worst_hop\":" << json_quote(st.worst_hop) << ",\"hops\":[";
    for (std::size_t i = 0; i < st.hops.size(); ++i) {
      const Engine::HopStatus& hop = st.hops[i];
      if (i != 0) os << ",";
      os << "{\"module\":" << json_quote(hop.module)
         << ",\"count\":" << hop.count << ",\"queue_us\":" << hop.queue_us
         << ",\"handler_us\":" << hop.handler_us << "}";
    }
    os << "]}";
  }
  os << "],\"blackouts\":[";
  first = true;
  for (const auto& [from, to] : engine_.blackouts()) {
    if (!first) os << ",";
    first = false;
    os << "{\"from_us\":" << from << ",\"to_us\":" << to << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace surgeon::slo
