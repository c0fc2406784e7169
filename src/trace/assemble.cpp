#include "trace/assemble.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace surgeon::trace {
namespace {

// JSON string escaping including control characters (RFC 8259): the
// detail field can carry anything a module put on the wire.
std::string json_escape(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (unsigned char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (c < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << static_cast<char>(c);
        }
    }
  }
  os << '"';
  return os.str();
}

void append_event_json(std::ostringstream& os, const Event& ev) {
  os << "{\"id\":" << ev.id << ",\"parent\":" << ev.parent
     << ",\"cause\":" << ev.cause << ",\"trace\":" << ev.trace_id
     << ",\"request\":" << ev.request << ",\"lamport\":" << ev.lamport
     << ",\"at\":" << ev.at
     << ",\"kind\":" << json_escape(kind_name(ev.kind))
     << ",\"machine\":" << json_escape(ev.machine)
     << ",\"module\":" << json_escape(ev.module)
     << ",\"detail\":" << json_escape(ev.detail) << "}";
}

void append_timeline_line(std::ostringstream& os, const Event& ev) {
  os << std::setw(10) << ev.at << "us  L" << std::left << std::setw(5)
     << ev.lamport << std::setw(9) << ev.machine << std::setw(13)
     << ev.module << std::setw(14) << kind_name(ev.kind) << std::right
     << "#" << ev.id;
  if (ev.cause != 0) os << " <-#" << ev.cause;
  if (!ev.detail.empty()) os << "  " << ev.detail;
  os << "\n";
}

}  // namespace

const Event* Dag::find(EventId id) const {
  auto it = std::lower_bound(
      events.begin(), events.end(), id,
      [](const Event& ev, EventId want) { return ev.id < want; });
  if (it == events.end() || it->id != id) return nullptr;
  return &*it;
}

bool Dag::happens_before(EventId a, EventId b) const {
  if (a == 0 || b == 0 || a == b) return false;
  std::vector<EventId> stack{b};
  std::unordered_set<EventId> seen;
  while (!stack.empty()) {
    EventId cur = stack.back();
    stack.pop_back();
    if (!seen.insert(cur).second) continue;
    const Event* ev = find(cur);
    if (ev == nullptr) continue;
    for (EventId up : {ev->parent, ev->cause}) {
      if (up == 0 || up < a) continue;  // ids ascend; can't reach a below it
      if (up == a) return true;
      stack.push_back(up);
    }
  }
  return false;
}

Dag assemble(const Recorder& recorder) {
  std::vector<Event> all;
  for (const auto& machine : recorder.machines()) {
    const auto& journal = recorder.journal(machine);
    all.insert(all.end(), journal.begin(), journal.end());
  }
  return assemble(std::move(all));
}

Dag assemble(std::vector<Event> events) {
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.id < b.id; });
  Dag dag;
  dag.events = std::move(events);
  return dag;
}

std::string to_chrome_trace(const Dag& dag, std::uint64_t trace_id) {
  std::unordered_map<std::string, int> pids;
  std::unordered_map<std::string, int> tids;
  std::ostringstream meta;
  std::ostringstream body;
  bool first = true;
  for (const Event& ev : dag.events) {
    if (trace_id != 0 && ev.trace_id != trace_id) continue;
    auto [pit, pnew] = pids.emplace(ev.machine, pids.size() + 1);
    if (pnew) {
      meta << (pids.size() + tids.size() > 1 ? ",\n" : "")
           << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pit->second
           << ",\"args\":{\"name\":" << json_escape(ev.machine) << "}}";
    }
    auto [tit, tnew] = tids.emplace(ev.module, tids.size() + 1);
    if (tnew) {
      meta << (pids.size() + tids.size() > 1 ? ",\n" : "")
           << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pit->second
           << ",\"tid\":" << tit->second
           << ",\"args\":{\"name\":" << json_escape(ev.module) << "}}";
    }
    body << (first ? "" : ",\n") << "{\"name\":\""
         << kind_name(ev.kind) << "\",\"cat\":\"bus\",\"ph\":\"i\",\"s\":\"t\""
         << ",\"pid\":" << pit->second << ",\"tid\":" << tit->second
         << ",\"ts\":" << ev.at << ",\"args\":{\"id\":" << ev.id
         << ",\"lamport\":" << ev.lamport << ",\"trace\":" << ev.trace_id
         << ",\"detail\":" << json_escape(ev.detail) << "}}";
    first = false;
    if (ev.cause != 0) {
      const Event* cause = dag.find(ev.cause);
      if (cause != nullptr) {
        int cpid = pids.emplace(cause->machine, pids.size() + 1).first->second;
        int ctid = tids.emplace(cause->module, tids.size() + 1).first->second;
        body << ",\n{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":"
             << ev.id << ",\"pid\":" << cpid << ",\"tid\":" << ctid
             << ",\"ts\":" << cause->at << "},\n"
             << "{\"name\":\"cause\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\""
             << ",\"id\":" << ev.id << ",\"pid\":" << pit->second
             << ",\"tid\":" << tit->second << ",\"ts\":" << ev.at << "}";
      }
    }
  }
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" << meta.str();
  if (!meta.str().empty() && !body.str().empty()) os << ",\n";
  os << body.str() << "\n]}\n";
  return os.str();
}

std::string to_timeline(const Dag& dag, std::uint64_t trace_id) {
  std::ostringstream os;
  for (const Event& ev : dag.events) {
    if (trace_id != 0 && ev.trace_id != trace_id) continue;
    append_timeline_line(os, ev);
  }
  return os.str();
}

std::string events_to_json(const std::vector<Event>& events) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) os << ",\n ";
    append_event_json(os, events[i]);
  }
  os << "]\n";
  return os.str();
}

std::string events_to_text(const std::vector<Event>& events) {
  std::ostringstream os;
  for (const Event& ev : events) append_timeline_line(os, ev);
  return os.str();
}

// --- request-scoped assembly --------------------------------------------------

namespace {

std::string iface_of_detail(const std::string& detail) {
  if (is_terminal_detail(detail)) {
    return detail.substr(0, detail.size() - kTerminalSuffix.size());
  }
  return detail;
}

RequestTrace assemble_from(std::uint64_t request,
                           const std::vector<const Event*>& events) {
  RequestTrace rt;
  rt.request = request;
  if (events.empty()) {
    rt.completeness = 0.0;
    return rt;
  }
  std::unordered_set<EventId> ids;
  ids.reserve(events.size());
  for (const Event* ev : events) ids.insert(ev->id);
  std::size_t dangling = 0;
  // Latest hop per module still waiting for its receive / next send.
  std::unordered_map<std::string, std::size_t> hop_of_module;
  for (const Event* ev : events) {
    if (ev->cause != 0 && ids.find(ev->cause) == ids.end()) ++dangling;
    switch (ev->kind) {
      case EventKind::kSend: {
        if (ev->cause == 0) {
          // Entry send: the synthetic request context has no event id.
          if (rt.started_at == 0) rt.started_at = ev->at;
          break;
        }
        auto it = hop_of_module.find(ev->module);
        if (it != hop_of_module.end()) {
          RequestHop& hop = rt.hops[it->second];
          if (hop.received_at != 0 && hop.handler_us == 0) {
            hop.handler_us = ev->at - hop.received_at;
          }
        }
        break;
      }
      case EventKind::kDeliver: {
        RequestHop hop;
        hop.machine = ev->machine;
        hop.module = ev->module;
        hop.iface = ev->detail;
        hop.delivered_at = ev->at;
        const Event* send = nullptr;
        if (ev->cause != 0) {
          auto sit = std::find_if(
              events.begin(), events.end(),
              [&](const Event* e) { return e->id == ev->cause; });
          if (sit != events.end()) send = *sit;
        }
        if (send != nullptr) {
          hop.sent_at = send->at;
          hop.wire_us = hop.delivered_at - hop.sent_at;
        } else {
          hop.partial = true;  // the upstream send was evicted
        }
        hop_of_module[ev->module] = rt.hops.size();
        rt.hops.push_back(std::move(hop));
        break;
      }
      case EventKind::kReceive: {
        auto it = hop_of_module.find(ev->module);
        if (it == hop_of_module.end() ||
            rt.hops[it->second].received_at != 0) {
          // The deliver record was evicted: open a partial hop so the
          // receive still contributes its timestamp.
          RequestHop hop;
          hop.machine = ev->machine;
          hop.module = ev->module;
          hop.iface = iface_of_detail(ev->detail);
          hop.partial = true;
          hop_of_module[ev->module] = rt.hops.size();
          rt.hops.push_back(std::move(hop));
          it = hop_of_module.find(ev->module);
        }
        RequestHop& hop = rt.hops[it->second];
        hop.received_at = ev->at;
        if (hop.delivered_at != 0) {
          hop.queue_us = hop.received_at - hop.delivered_at;
        }
        if (is_terminal_detail(ev->detail)) {
          rt.completed = true;
          rt.completed_at = ev->at;
        }
        break;
      }
      default:
        break;  // drops/retransmits etc. keep their dangling accounting
    }
  }
  for (RequestHop& hop : rt.hops) {
    if (hop.sent_at == 0 || hop.received_at == 0) hop.partial = true;
  }
  const double found = static_cast<double>(events.size());
  rt.completeness = found / (found + static_cast<double>(dangling));
  rt.complete = dangling == 0 && rt.started_at != 0 && rt.completed;
  if (rt.started_at != 0 && rt.completed) {
    rt.latency_us = rt.completed_at - rt.started_at;
  }
  return rt;
}

}  // namespace

std::vector<RequestTrace> assemble_requests(const Dag& dag) {
  std::map<std::uint64_t, std::vector<const Event*>> by_request;
  for (const Event& ev : dag.events) {
    if (ev.request != 0) by_request[ev.request].push_back(&ev);
  }
  std::vector<RequestTrace> out;
  out.reserve(by_request.size());
  for (const auto& [request, events] : by_request) {
    out.push_back(assemble_from(request, events));
  }
  return out;
}

RequestTrace assemble_request(const Dag& dag, std::uint64_t request) {
  std::vector<const Event*> events;
  for (const Event& ev : dag.events) {
    if (ev.request == request) events.push_back(&ev);
  }
  return assemble_from(request, events);
}

std::string requests_to_json(const std::vector<RequestTrace>& requests) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const RequestTrace& rt = requests[i];
    if (i != 0) os << ",\n ";
    os << "{\"request\":" << rt.request << ",\"started_at\":" << rt.started_at
       << ",\"completed_at\":" << rt.completed_at
       << ",\"latency_us\":" << rt.latency_us
       << ",\"completed\":" << (rt.completed ? "true" : "false")
       << ",\"complete\":" << (rt.complete ? "true" : "false")
       << ",\"completeness\":" << rt.completeness << ",\"hops\":[";
    for (std::size_t h = 0; h < rt.hops.size(); ++h) {
      const RequestHop& hop = rt.hops[h];
      if (h != 0) os << ",";
      os << "{\"machine\":" << json_escape(hop.machine)
         << ",\"module\":" << json_escape(hop.module)
         << ",\"iface\":" << json_escape(hop.iface)
         << ",\"wire_us\":" << hop.wire_us << ",\"queue_us\":" << hop.queue_us
         << ",\"handler_us\":" << hop.handler_us
         << ",\"partial\":" << (hop.partial ? "true" : "false") << "}";
    }
    os << "]}";
  }
  os << "]\n";
  return os.str();
}

}  // namespace surgeon::trace
