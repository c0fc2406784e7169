#include "profile/telemetry.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/diag.hpp"

namespace surgeon::profile {

namespace {

const std::string* label_of(const obs::Labels& labels, const char* key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string fmt_fixed3(double v) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << v;
  return os.str();
}

/// The +Inf bucket sentinel on the wire and in window slots.
constexpr std::int64_t kInfBound = -1;

/// `options`, once its window geometry is known to be usable: a zero
/// slot_us would divide by zero and zero slots index an empty ring. Throws
/// BusError naming `what` otherwise.
const CollectorOptions& checked_geometry(const CollectorOptions& options,
                                         const char* what) {
  if (options.slot_us == 0 || options.slots == 0) {
    throw support::BusError(std::string(what) + ": empty window geometry");
  }
  return options;
}

}  // namespace

// --- Reporter ----------------------------------------------------------------

Reporter::Reporter(bus::Bus& bus, obs::MetricsRegistry& registry,
                   std::string machine, std::string collector_module,
                   net::SimTime interval_us)
    : NativeModule(
          bus,
          {.name = "telemetry@" + machine,
           .machine = machine,
           .source = kTelemetrySource,
           .interfaces = {{"deltas", bus::IfaceRole::kDefine, "", ""}}},
          interval_us, interval_us),
      registry_(&registry) {
  bus.add_binding(bus::BindingEnd{module_name(), "deltas"},
                  bus::BindingEnd{std::move(collector_module), "ingest"});
}

void Reporter::flush() {
  // Which registry series are ours to report? Those labelled with a module
  // that is (a) still on the bus, (b) hosted on this machine, and (c) not
  // part of the telemetry plane itself (kTelemetrySource — reporting our
  // own stream's counters would be a feedback loop that never quiesces).
  const auto owner_iface =
      [&](const obs::Labels& labels) -> std::pair<const bus::ModuleInfo*,
                                                  std::string> {
    const std::string* module = label_of(labels, "module");
    if (module == nullptr || !bus().has_module(*module)) return {nullptr, ""};
    const bus::ModuleInfo& info = bus().module_info(*module);
    if (info.machine != machine() || info.source == kTelemetrySource) {
      return {nullptr, ""};
    }
    const std::string* iface = label_of(labels, "iface");
    return {&info, iface != nullptr ? *iface : std::string{}};
  };

  for (const auto& [key, counter] : registry_->counters()) {
    const auto [info, iface] = owner_iface(key.second);
    if (info == nullptr) continue;
    std::uint64_t& last = last_counter_[key];
    const std::uint64_t value = counter.value();
    if (value < last) last = 0;  // registry was cleared: resynchronize
    if (value == last) continue;
    const std::uint64_t delta = value - last;
    last = value;
    client().write("deltas",
                   {ser::Value{machine()}, ser::Value{info->name},
                    ser::Value{iface}, ser::Value{key.first},
                    ser::Value{std::string{"c"}},
                    ser::Value{static_cast<std::int64_t>(delta)}});
    ++deltas_sent_;
  }
  for (const auto& [key, gauge] : registry_->gauges()) {
    const auto [info, iface] = owner_iface(key.second);
    if (info == nullptr) continue;
    const std::int64_t value = gauge.value();
    auto it = last_gauge_.find(key);
    if (it != last_gauge_.end() && it->second == value) continue;
    last_gauge_[key] = value;
    client().write("deltas", {ser::Value{machine()}, ser::Value{info->name},
                              ser::Value{iface}, ser::Value{key.first},
                              ser::Value{std::string{"g"}}, ser::Value{value}});
    ++deltas_sent_;
  }
  for (const auto& [key, hist] : registry_->histograms()) {
    const auto [info, iface] = owner_iface(key.second);
    if (info == nullptr) continue;
    const std::vector<std::uint64_t>& counts = hist.bucket_counts();
    std::vector<std::uint64_t>& last = last_hist_[key];
    if (last.size() != counts.size()) last.assign(counts.size(), 0);
    std::vector<ser::Value> values = {
        ser::Value{machine()}, ser::Value{info->name}, ser::Value{iface},
        ser::Value{key.first}, ser::Value{std::string{"h"}}};
    bool changed = false;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (counts[i] < last[i]) last[i] = 0;  // registry cleared
      if (counts[i] == last[i]) continue;
      const std::int64_t bound =
          i < hist.upper_bounds().size()
              ? static_cast<std::int64_t>(hist.upper_bounds()[i])
              : kInfBound;
      values.emplace_back(bound);
      values.emplace_back(static_cast<std::int64_t>(counts[i] - last[i]));
      last[i] = counts[i];
      changed = true;
    }
    if (!changed) continue;
    client().write("deltas", std::move(values));
    ++deltas_sent_;
  }
}

// --- Collector ---------------------------------------------------------------

Collector::Collector(bus::Bus& bus, std::string module_name,
                     std::string machine, CollectorOptions options,
                     std::string status)
    : NativeModule(bus,
                   {.name = std::move(module_name),
                    .machine = std::move(machine),
                    .status = std::move(status),
                    .source = kTelemetrySource,
                    .interfaces = {{"ingest", bus::IfaceRole::kUse, "", ""}}},
                   checked_geometry(options, "collector").tick_us,
                   options.tick_us, "top"),
      options_(options) {}

bool Collector::fold() {
  while (auto msg = client().try_read("ingest")) apply(*msg);
  return true;
}

Collector::Slot& Collector::slot_for(net::SimTime at) {
  const net::SimTime start = at - (at % options_.slot_us);
  if (slots_.empty() || start > slots_.back().start_us) {
    slots_.push_back(Slot{start, {}, {}});
    while (slots_.size() > options_.slots) slots_.erase(slots_.begin());
  }
  return slots_.back();
}

void Collector::apply(const bus::Message& msg) {
  const std::vector<ser::Value>& v = msg.values;
  const bool framed = v.size() >= 6 && v[0].is_string() && v[1].is_string() &&
                      v[2].is_string() && v[3].is_string() && v[4].is_string();
  if (!framed) {
    ++malformed_;
    return;
  }
  SeriesId id{v[0].as_string(), v[1].as_string(), v[2].as_string(),
              v[3].as_string()};
  const std::string& kind = v[4].as_string();
  const net::SimTime now = bus().simulator().now();
  if (kind == "c" && v[5].is_int()) {
    slot_for(now).counters[std::move(id)] +=
        static_cast<std::uint64_t>(v[5].as_int());
  } else if (kind == "g" && v[5].is_int()) {
    gauges_[std::move(id)] = v[5].as_int();
  } else if (kind == "h" && (v.size() - 5) % 2 == 0) {
    for (std::size_t i = 5; i + 1 < v.size(); i += 2) {
      if (!v[i].is_int() || !v[i + 1].is_int()) {
        ++malformed_;
        return;
      }
    }
    auto& buckets = slot_for(now).hists[std::move(id)];
    for (std::size_t i = 5; i + 1 < v.size(); i += 2) {
      buckets[v[i].as_int()] +=
          static_cast<std::uint64_t>(v[i + 1].as_int());
    }
  } else {
    ++malformed_;
    return;
  }
  ++deltas_applied_;
}

// --- Collector: state divulge/install ---------------------------------------

ser::StateBuffer Collector::encode_state() const {
  using ser::StateFrame;
  using ser::Value;
  ser::StateBuffer state;
  const auto str = [](const std::string& s) { return Value{s}; };
  const auto num = [](auto n) {
    return Value{static_cast<std::int64_t>(n)};
  };
  state.push_frame(StateFrame{{num(1),  // format version
                               num(options_.tick_us), num(options_.slot_us),
                               num(options_.slots), num(slots_.size())}});
  for (const Slot& slot : slots_) {
    state.push_frame(StateFrame{{num(0), num(slot.start_us)}});
    for (const auto& [id, total] : slot.counters) {
      state.push_frame(StateFrame{{num(1), str(id.machine), str(id.module),
                                   str(id.iface), str(id.metric),
                                   num(total)}});
    }
    for (const auto& [id, buckets] : slot.hists) {
      StateFrame frame{{num(2), str(id.machine), str(id.module),
                        str(id.iface), str(id.metric)}};
      for (const auto& [bound, count] : buckets) {
        frame.values.push_back(num(bound));
        frame.values.push_back(num(count));
      }
      state.push_frame(std::move(frame));
    }
  }
  for (const auto& [id, value] : gauges_) {
    state.push_frame(StateFrame{{num(3), str(id.machine), str(id.module),
                                 str(id.iface), str(id.metric), num(value)}});
  }
  return state;
}

void Collector::restore(const ser::StateBuffer& state) {
  constexpr const char* kWhat = "collector state";
  const auto& frames = state.frames();
  if (frames.empty() ||
      bus::state_fields(frames[0], 5, kWhat)[0].as_int() != 1) {
    throw support::BusError("collector state: unknown format");
  }
  // The divulged window geometry wins: merging slots cut at a different
  // grain would mis-attribute deltas. The tick cadence stays the clone's.
  // Everything is built aside and moved in, so a rejected buffer changes
  // nothing.
  CollectorOptions options = options_;
  options.slot_us = bus::state_count(frames[0].values[2], kWhat);
  options.slots = bus::state_count(frames[0].values[3], kWhat);
  (void)checked_geometry(options, kWhat);
  std::vector<Slot> slots;
  std::map<SeriesId, std::int64_t> gauges;
  const auto id_of = [](const std::vector<ser::Value>& v) {
    return SeriesId{v[1].as_string(), v[2].as_string(), v[3].as_string(),
                    v[4].as_string()};
  };
  // Fields per frame kind: slot, counter, histogram, gauge.
  constexpr std::size_t kArity[] = {2, 6, 5, 6};
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const std::int64_t kind =
        bus::state_fields(frames[i], 1, kWhat)[0].as_int();
    if (kind < 0 || kind > 3) {
      throw support::BusError("collector state: unknown frame kind");
    }
    const std::vector<ser::Value>& v =
        bus::state_fields(frames[i], kArity[kind], kWhat);
    if ((kind == 1 || kind == 2) && slots.empty()) {
      throw support::BusError("collector state: series before slot");
    }
    switch (kind) {
      case 0:
        slots.push_back(Slot{bus::state_count(v[1], kWhat), {}, {}});
        break;
      case 1:
        slots.back().counters[id_of(v)] = bus::state_count(v[5], kWhat);
        break;
      case 2: {
        auto& buckets = slots.back().hists[id_of(v)];
        for (std::size_t j = 5; j + 1 < v.size(); j += 2) {
          buckets[v[j].as_int()] = bus::state_count(v[j + 1], kWhat);
        }
        break;
      }
      default:
        gauges[id_of(v)] = v[5].as_int();
        break;
    }
  }
  options_ = options;
  slots_ = std::move(slots);
  gauges_ = std::move(gauges);
}

// --- Collector: the mh_top renderings ----------------------------------------

namespace {

/// One series aggregated across the window, ready to render.
struct TopRow {
  SeriesId id;
  bool is_hist = false;
  std::uint64_t total = 0;  // counter sum / histogram observation count
  double rate = 0.0;        // per second of window span
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

}  // namespace

std::string Collector::top(const std::string& format) const {
  if (format == "json") return top_json();
  if (format == "table") return top_table();
  throw support::BusError("mh_top: unknown format '" + format +
                          "' (expected \"table\" or \"json\")");
}

namespace {

/// Window aggregation shared by both renderings. The span is data-derived
/// (first slot start to last slot end), matching the data-driven window
/// advance — so the output is a pure function of collector state, which is
/// what makes the before/after-replacement byte-identity hold.
template <typename SlotRange>
std::vector<TopRow> aggregate_rows(const SlotRange& slots,
                                   net::SimTime slot_us) {
  std::map<SeriesId, std::uint64_t> totals;
  std::map<SeriesId, std::map<std::int64_t, std::uint64_t>> hists;
  for (const auto& slot : slots) {
    for (const auto& [id, n] : slot.counters) totals[id] += n;
    for (const auto& [id, buckets] : slot.hists) {
      auto& merged = hists[id];
      for (const auto& [bound, count] : buckets) merged[bound] += count;
    }
  }
  net::SimTime span = 0;
  if (!slots.empty()) {
    span = (slots.back().start_us + slot_us) - slots.front().start_us;
  }
  std::vector<TopRow> rows;
  for (const auto& [id, total] : totals) {
    TopRow row;
    row.id = id;
    row.total = total;
    if (span != 0) {
      row.rate = static_cast<double>(total) * 1e6 / static_cast<double>(span);
    }
    rows.push_back(std::move(row));
  }
  for (const auto& [id, buckets] : hists) {
    TopRow row;
    row.id = id;
    row.is_hist = true;
    std::vector<std::uint64_t> bounds;
    std::vector<std::uint64_t> counts;
    for (const auto& [bound, count] : buckets) {
      if (bound == kInfBound) continue;
      bounds.push_back(static_cast<std::uint64_t>(bound));
      counts.push_back(count);
      row.total += count;
    }
    auto inf = buckets.find(kInfBound);
    counts.push_back(inf != buckets.end() ? inf->second : 0);
    row.total += counts.back();
    if (span != 0) {
      row.rate =
          static_cast<double>(row.total) * 1e6 / static_cast<double>(span);
    }
    row.p50 = obs::Histogram::quantile_from_buckets(bounds, counts, row.total,
                                                    0.50);
    row.p95 = obs::Histogram::quantile_from_buckets(bounds, counts, row.total,
                                                    0.95);
    row.p99 = obs::Histogram::quantile_from_buckets(bounds, counts, row.total,
                                                    0.99);
    rows.push_back(std::move(row));
  }
  // Busiest first; the full SeriesId breaks rate ties deterministically.
  std::sort(rows.begin(), rows.end(), [](const TopRow& a, const TopRow& b) {
    if (a.rate != b.rate) return a.rate > b.rate;
    return a.id < b.id;
  });
  return rows;
}

}  // namespace

std::string Collector::top_json() const {
  const std::vector<TopRow> rows = aggregate_rows(slots_, options_.slot_us);
  net::SimTime span = 0;
  if (!slots_.empty()) {
    span = (slots_.back().start_us + options_.slot_us) -
           slots_.front().start_us;
  }
  std::ostringstream os;
  os << "{\"window_us\":" << span << ",\"slots\":" << slots_.size()
     << ",\"series\":[";
  bool first = true;
  for (const TopRow& row : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"machine\":" << json_quote(row.id.machine)
       << ",\"module\":" << json_quote(row.id.module)
       << ",\"iface\":" << json_quote(row.id.iface)
       << ",\"metric\":" << json_quote(row.id.metric) << ",\"kind\":\""
       << (row.is_hist ? "histogram" : "counter")
       << "\",\"total\":" << row.total
       << ",\"rate_per_s\":" << fmt_fixed3(row.rate);
    if (row.is_hist) {
      os << ",\"p50\":" << fmt_fixed3(row.p50)
         << ",\"p95\":" << fmt_fixed3(row.p95)
         << ",\"p99\":" << fmt_fixed3(row.p99);
    }
    os << "}";
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& [id, value] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "{\"machine\":" << json_quote(id.machine)
       << ",\"module\":" << json_quote(id.module)
       << ",\"iface\":" << json_quote(id.iface)
       << ",\"metric\":" << json_quote(id.metric) << ",\"value\":" << value
       << "}";
  }
  os << "]}";
  return os.str();
}

std::string Collector::top_table() const {
  const std::vector<TopRow> rows = aggregate_rows(slots_, options_.slot_us);
  // Replica roles, published by replicate::GroupManager as the
  // surgeon_replica_role gauge (1 = primary, 2 = follower). Rendered as a
  // column so an operator can see primaries/followers per machine at a
  // glance; modules outside any replica group show "-".
  std::map<std::pair<std::string, std::string>, std::int64_t> roles;
  for (const auto& [id, value] : gauges_) {
    if (id.metric == "surgeon_replica_role") {
      roles[{id.machine, id.module}] = value;
    }
  }
  const auto role_of = [&](const SeriesId& id) -> std::string {
    const auto it = roles.find({id.machine, id.module});
    if (it == roles.end()) return "-";
    if (it->second == 1) return "primary";
    if (it->second == 2) return "follower";
    return "?";
  };
  std::ostringstream os;
  os << std::left << std::setw(10) << "MACHINE" << std::setw(22) << "MODULE"
     << std::setw(10) << "ROLE" << std::setw(12) << "IFACE" << std::setw(42)
     << "METRIC" << std::right << std::setw(12) << "TOTAL" << std::setw(12)
     << "RATE/S" << std::setw(10) << "P50" << std::setw(10) << "P95"
     << std::setw(10) << "P99" << "\n";
  const auto quant = [&](double v, bool is_hist) {
    return is_hist ? fmt_fixed3(v) : std::string{"-"};
  };
  for (const TopRow& row : rows) {
    os << std::left << std::setw(10) << row.id.machine << std::setw(22)
       << row.id.module << std::setw(10) << role_of(row.id) << std::setw(12)
       << row.id.iface << std::setw(42) << row.id.metric << std::right
       << std::setw(12) << row.total << std::setw(12) << fmt_fixed3(row.rate)
       << std::setw(10) << quant(row.p50, row.is_hist) << std::setw(10)
       << quant(row.p95, row.is_hist) << std::setw(10)
       << quant(row.p99, row.is_hist) << "\n";
  }
  for (const auto& [id, value] : gauges_) {
    os << std::left << std::setw(10) << id.machine << std::setw(22)
       << id.module << std::setw(10) << role_of(id) << std::setw(12)
       << id.iface << std::setw(42) << id.metric << std::right << std::setw(12)
       << value << std::setw(12) << "-" << std::setw(10) << "-"
       << std::setw(10) << "-" << std::setw(10) << "-" << "\n";
  }
  return os.str();
}

}  // namespace surgeon::profile
