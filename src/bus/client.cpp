#include "bus/client.hpp"

#include "bus/native.hpp"
#include "obs/export.hpp"
#include "support/diag.hpp"
#include "trace/assemble.hpp"

namespace surgeon::bus {

std::optional<ser::StateBuffer> Client::decode_state() {
  auto bytes = bus_->take_incoming_state(module_);
  if (!bytes.has_value()) return std::nullopt;
  return ser::StateBuffer::decode(*bytes);
}

std::string Client::mh_stats(const std::string& format) const {
  static const obs::MetricsRegistry kEmpty;
  const obs::MetricsRegistry* registry = bus_->metrics();
  if (registry == nullptr) registry = &kEmpty;
  if (format == "prometheus") return obs::to_prometheus(*registry);
  if (format == "json") return obs::to_json(*registry);
  throw support::BusError("mh_stats: unknown format '" + format +
                          "' (expected \"prometheus\" or \"json\")");
}

std::string Client::mh_top(const std::string& format) const {
  if (format != "table" && format != "json") {
    throw support::BusError("mh_top: unknown format '" + format +
                            "' (expected \"table\" or \"json\")");
  }
  const NativeModule* server = bus_->query_server("top");
  if (server == nullptr) return format == "json" ? "{}" : "";
  return server->answer(format);
}

std::string Client::mh_slo(const std::string& format) const {
  if (format != "text" && format != "json") {
    throw support::BusError("mh_slo: unknown format '" + format +
                            "' (expected \"text\" or \"json\")");
  }
  const NativeModule* server = bus_->query_server("slo");
  if (server == nullptr) return format == "json" ? "{}" : "";
  return server->answer(format);
}

std::string Client::mh_trace(const std::string& format, bool drain) {
  if (format != "json" && format != "text") {
    throw support::BusError("mh_trace: unknown format '" + format +
                            "' (expected \"json\" or \"text\")");
  }
  trace::Recorder* recorder = bus_->tracer();
  if (recorder == nullptr) return format == "json" ? "[]\n" : "";
  const std::string& machine = bus_->module_info(module_).machine;
  std::vector<trace::Event> events;
  if (drain) {
    events = recorder->drain(machine);
  } else {
    const auto& journal = recorder->journal(machine);
    events.assign(journal.begin(), journal.end());
  }
  return format == "json" ? trace::events_to_json(events)
                          : trace::events_to_text(events);
}

}  // namespace surgeon::bus
