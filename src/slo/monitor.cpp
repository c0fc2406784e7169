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
    : bus_(&bus),
      recorder_(&recorder),
      machine_(std::move(machine)),
      service_(std::move(service)),
      module_("sloprobe@" + machine_),
      client_(bus, module_),
      options_(options),
      tracker_(options.max_open),
      delay_us_(options.tick_us) {
  bus::ModuleInfo info;
  info.name = module_;
  info.machine = machine_;
  info.source = kSloSource;
  info.interfaces.push_back(
      bus::InterfaceSpec{"records", bus::IfaceRole::kDefine, "", ""});
  bus_->add_module(std::move(info));
  bus_->add_binding(bus::BindingEnd{module_, "records"},
                    bus::BindingEnd{std::move(monitor_module), "ingest"});
  observer_ = recorder_->add_observer(
      [this](const trace::Event& ev) { tracker_.observe(ev); });
  schedule_tick();
}

Probe::~Probe() {
  stop();
  if (bus_->has_module(module_)) bus_->remove_module(module_);
}

void Probe::stop() noexcept {
  alive_.reset();
  if (observer_ != 0) {
    recorder_->remove_observer(observer_);
    observer_ = 0;
  }
}

void Probe::schedule_tick() {
  std::weak_ptr<int> alive = alive_;
  bus_->simulator().schedule_after(delay_us_, [this, alive] {
    if (alive.expired()) return;
    // Idle backoff: a tick that finds nothing (no fresh completions, no
    // partial batch waiting out its linger) doubles the next delay up to
    // max_tick_us, so an idle probe stops churning the event queue. Any
    // work snaps the cadence back to tick_us.
    if (drain(/*force=*/false) || !pending_.empty()) {
      delay_us_ = options_.tick_us;
    } else {
      delay_us_ = std::min(delay_us_ * 2,
                           std::max(options_.tick_us, options_.max_tick_us));
    }
    schedule_tick();
  });
}

void Probe::flush() { (void)drain(/*force=*/true); }

bool Probe::drain(bool force) {
  std::vector<Completion> done = tracker_.drain();
  if (!done.empty()) {
    if (pending_.empty()) pending_since_ = bus_->simulator().now();
    pending_.insert(pending_.end(), std::make_move_iterator(done.begin()),
                    std::make_move_iterator(done.end()));
  }
  while (pending_.size() >= options_.batch) send_batch(options_.batch);
  // The partial batch lingers up to linger_us: a trickle of traffic then
  // costs one bus message per linger window, not one per request.
  if (!pending_.empty() &&
      (force ||
       bus_->simulator().now() - pending_since_ >= options_.linger_us)) {
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
  client_.write("records", std::move(values));
  ++batches_sent_;
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(n));
  pending_since_ = bus_->simulator().now();
}

// --- Monitor -----------------------------------------------------------------

Monitor::Monitor(bus::Bus& bus, std::string module_name, std::string machine,
                 MonitorOptions options, std::string status)
    : bus_(&bus),
      module_(std::move(module_name)),
      machine_(std::move(machine)),
      options_(options),
      client_(bus, module_),
      engine_(options.engine),
      delay_us_(options.tick_us) {
  bus::ModuleInfo info;
  info.name = module_;
  info.machine = machine_;
  info.status = status;
  info.source = kSloSource;
  info.interfaces.push_back(
      bus::InterfaceSpec{"ingest", bus::IfaceRole::kUse, "", ""});
  info.interfaces.push_back(
      bus::InterfaceSpec{"alerts", bus::IfaceRole::kDefine, "", ""});
  bus_->add_module(std::move(info));
  if (status == "new") activate();
  schedule_tick();
}

Monitor::~Monitor() {
  bus_->clear_slo_handler(slo_token_);
  retire();
}

void Monitor::retire() {
  alive_.reset();
  if (bus_->has_module(module_)) bus_->remove_module(module_);
}

void Monitor::activate() {
  active_ = true;
  slo_token_ = bus_->set_slo_handler(
      [this](const std::string& format) { return report(format); });
}

void Monitor::add_objective(Objective objective) {
  engine_.add_objective(std::move(objective));
  evaluated_once_ = false;  // re-arm the evaluation gate for the newcomer
}

void Monitor::note_blackout(net::SimTime from_us, net::SimTime to_us) {
  engine_.note_blackout(from_us, to_us);
  evaluated_once_ = false;
}

void Monitor::schedule_tick() {
  std::weak_ptr<int> alive = alive_;
  bus_->simulator().schedule_after(delay_us_, [this, alive] {
    if (alive.expired()) return;
    tick();
  });
}

void Monitor::tick() {
  if (passivated_) return;  // divulged; awaiting retirement, no reschedule
  if (!active_) {
    // Clone discipline (Figure 4): queued record batches wait untouched
    // until the divulged engine state arrives. A waiting clone keeps the
    // base cadence — its restore latency is someone's blackout.
    if (bus_->has_incoming_state(module_)) {
      auto bytes = bus_->take_incoming_state(module_);
      install_state(ser::StateBuffer::decode(*bytes));
    }
    delay_us_ = options_.tick_us;
    schedule_tick();
    return;
  }
  if (client_.take_pending_signal()) {
    // Passivate BEFORE draining: queued batches belong to the successor
    // and reach it via queue capture.
    (void)client_.encode_state(encode_state());
    passivated_ = true;
    return;
  }
  const std::uint64_t applied_before = records_applied_;
  while (auto msg = client_.try_read("ingest")) apply(*msg);
  // Idle backoff, mirroring the probe's: ticks that apply no records
  // stretch toward max_tick_us. Slot roll-over evaluations still happen
  // (the gate below keys on the clock, not the cadence), just no more
  // than once per backed-off tick.
  delay_us_ = records_applied_ != applied_before
                  ? options_.tick_us
                  : std::min(delay_us_ * 2,
                             std::max(options_.tick_us, options_.max_tick_us));
  const net::SimTime now = bus_->simulator().now();
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
  schedule_tick();
}

void Monitor::apply(const bus::Message& msg) {
  const std::vector<ser::Value>& v = msg.values;
  if (v.size() < 2 || !v[0].is_string() || !v[1].is_int()) {
    ++malformed_;
    return;
  }
  const std::string& service = v[0].as_string();
  const std::int64_t count = v[1].as_int();
  obs::MetricsRegistry* reg = bus_->metrics();
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
  client_.write(
      "alerts",
      {ser::Value{static_cast<std::int64_t>(ev.id)}, ser::Value{ev.objective},
       ser::Value{std::string{alert_kind_name(ev.kind)}},
       ser::Value{static_cast<std::int64_t>(ev.at)},
       ser::Value{static_cast<std::int64_t>(ev.burn_fast * 1000.0)},
       ser::Value{static_cast<std::int64_t>(ev.burn_slow * 1000.0)},
       ser::Value{static_cast<std::int64_t>(ev.attainment * 1'000'000.0)}});
  ++alerts_published_;
  obs::MetricsRegistry* reg = bus_->metrics();
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
    obs::MetricsRegistry& reg = *bus_->metrics();
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
  obs::MetricsRegistry* reg = bus_->metrics();
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
  const net::SimTime now = bus_->simulator().now();
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

// --- Monitor: state divulge/install ------------------------------------------

ser::StateBuffer Monitor::encode_state() const { return engine_.encode_state(); }

void Monitor::install_state(const ser::StateBuffer& state) {
  engine_.install_state(state);
  activate();
}

}  // namespace surgeon::slo
