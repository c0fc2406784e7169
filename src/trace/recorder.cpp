#include "trace/recorder.hpp"

#include <algorithm>

namespace surgeon::trace {

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSend: return "send";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kReceive: return "receive";
    case EventKind::kDrop: return "drop";
    case EventKind::kRetransmit: return "retransmit";
    case EventKind::kDupDiscard: return "dup_discard";
    case EventKind::kSignal: return "signal";
    case EventKind::kCapture: return "capture";
    case EventKind::kDivulge: return "divulge";
    case EventKind::kStateDeliver: return "state_deliver";
    case EventKind::kRestore: return "restore";
    case EventKind::kRebind: return "rebind";
    case EventKind::kModuleAdded: return "module_added";
    case EventKind::kModuleRemoved: return "module_removed";
    case EventKind::kCrash: return "crash";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kSuspect: return "suspect";
    case EventKind::kCheckpoint: return "checkpoint";
    case EventKind::kRecover: return "recover";
  }
  return "?";
}

void Recorder::set_capacity(std::size_t per_machine) {
  capacity_ = std::max<std::size_t>(1, per_machine);
  for (auto& [name, journal] : journals_) {
    // Unroll a wrapped ring to oldest-first, so it can grow by appending
    // again or shed its oldest records from the front.
    std::vector<Record>& ring = journal.ring;
    std::rotate(ring.begin(), ring.begin() + journal.head, ring.end());
    journal.head = 0;
    if (ring.size() <= capacity_) continue;
    const std::size_t evicted = ring.size() - capacity_;
    ring.erase(ring.begin(), ring.begin() + evicted);
    ring.shrink_to_fit();
    journal.dropped += evicted;
    auto& side = journal.side;
    while (!side.empty() && side.front().first < journal.dropped) {
      side.pop_front();
    }
  }
}

Recorder::ObserverId Recorder::add_observer(
    std::function<void(const Event&)> observer) {
  const ObserverId id = ++next_observer_;
  observers_.emplace_back(id, std::move(observer));
  return id;
}

void Recorder::remove_observer(ObserverId id) {
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->first == id) {
      observers_.erase(it);
      break;
    }
  }
}

std::uint64_t Recorder::begin_trace(const std::string& name) {
  current_trace_ = ++next_trace_;
  trace_names_[current_trace_] = name;
  return current_trace_;
}

const std::string& Recorder::trace_name(std::uint64_t trace_id) const {
  static const std::string kEmpty;
  auto it = trace_names_.find(trace_id);
  return it == trace_names_.end() ? kEmpty : it->second;
}

Recorder::Journal& Recorder::journal_of(const std::string& machine) {
  if (cached_machine_ != nullptr && *cached_machine_ == machine) {
    return *cached_journal_;
  }
  auto [it, inserted] = journals_.try_emplace(machine);
  if (inserted) it->second.machine = &it->first;
  cached_machine_ = &it->first;
  cached_journal_ = &it->second;
  return it->second;
}

Recorder::Name& Recorder::name_of(const std::string& text) {
  auto [it, inserted] = names_.try_emplace(text);
  if (inserted) {
    it->second.symbol = static_cast<Symbol>(texts_.size());
    texts_.push_back(&it->first);
  }
  return it->second;
}

Recorder::Symbol Recorder::intern(const std::string& text) {
  return name_of(text).symbol;
}

Recorder::Site Recorder::resolve_site(const std::string& machine,
                                      const std::string& module) {
  Name& name = name_of(module);
  return Site{&journal_of(machine), &name.last, name.symbol};
}

TraceContext Recorder::record(EventKind kind, const std::string& machine,
                              const std::string& module, std::string detail,
                              const TraceContext& cause) {
  if (!enabled_) return {};
  Journal& journal = journal_of(machine);
  Name& name = name_of(module);
  const Record rec =
      stamp(journal, name.last, name.symbol, kind, kSideDetail, cause);
  if (!observers_.empty()) notify(journal, rec, detail);
  journal.side.emplace_back(write(journal, rec), std::move(detail));
  return {rec.trace_id, rec.id, rec.lamport, rec.request};
}

TraceContext Recorder::record_at(const Site& site, EventKind kind,
                                 Symbol detail, const TraceContext& cause) {
  if (!enabled_) return {};
  const Record rec =
      stamp(*site.journal, *site.last, site.module, kind, detail, cause);
  if (!observers_.empty()) notify(*site.journal, rec, *texts_[detail]);
  write(*site.journal, rec);
  return {rec.trace_id, rec.id, rec.lamport, rec.request};
}

Recorder::Record Recorder::stamp(Journal& journal, LastEvent& last,
                                 Symbol module, EventKind kind, Symbol detail,
                                 const TraceContext& cause) {
  Record rec;
  rec.id = next_id_++;
  rec.parent = last.id;
  rec.cause = cause.event;
  // Merge over both causal edges: the parent (program order) may live in
  // another machine's journal, so the machine clock alone need not
  // dominate it.
  rec.lamport = std::max({journal.lamport, last.lamport, cause.lamport}) + 1;
  journal.lamport = rec.lamport;
  rec.trace_id = cause.valid() ? cause.trace_id : current_trace_;
  // The request rides the cause edge only: a synthetic entry context
  // (event == 0, request != 0) seeds it without creating a false edge.
  rec.request = cause.request;
  rec.at = sim_clock_ != nullptr ? sim_clock_->now() : (clock_ ? clock_() : 0);
  rec.module = module;
  rec.detail = detail;
  rec.kind = kind;
  last = {rec.id, rec.lamport};
  return rec;
}

void Recorder::notify(const Journal& journal, const Record& rec,
                      const std::string& detail) {
  // An observer that records re-enters here one level deeper and fills
  // its own scratch Event, leaving this one intact.
  if (depth_ == scratch_.size()) scratch_.push_back(std::make_unique<Event>());
  Event& ev = *scratch_[depth_];
  materialize(journal, rec, detail, ev);
  struct Nesting {
    std::size_t& depth;
    ~Nesting() { --depth; }
  } nesting{++depth_};
  for (const auto& [id, fn] : observers_) fn(ev);
}

std::uint64_t Recorder::write(Journal& journal, const Record& rec) {
  const std::uint64_t pos = journal.dropped + journal.ring.size();
  std::vector<Record>& ring = journal.ring;
  if (ring.size() < capacity_) {
    if (ring.size() == ring.capacity()) {
      ring.reserve(
          std::min(capacity_, std::max<std::size_t>(64, 2 * ring.size())));
    }
    ring.push_back(rec);
    return pos;
  }
  ring[journal.head] = rec;
  if (++journal.head == ring.size()) journal.head = 0;
  if (!journal.side.empty() && journal.side.front().first == journal.dropped) {
    journal.side.pop_front();
  }
  ++journal.dropped;
  return pos;
}

void Recorder::materialize(const Journal& journal, const Record& rec,
                           const std::string& detail, Event& out) const {
  out.id = rec.id;
  out.parent = rec.parent;
  out.cause = rec.cause;
  out.trace_id = rec.trace_id;
  out.request = rec.request;
  out.lamport = rec.lamport;
  out.at = rec.at;
  out.kind = rec.kind;
  out.machine = *journal.machine;
  out.module = *texts_[rec.module];
  out.detail = detail;
}

std::vector<Event> Recorder::events_of(const Journal& journal) const {
  const std::vector<Record>& ring = journal.ring;
  std::vector<Event> out(ring.size());
  auto side = journal.side.begin();
  std::size_t slot = journal.head;
  for (Event& ev : out) {
    const Record& rec = ring[slot];
    if (++slot == ring.size()) slot = 0;
    materialize(journal, rec,
                rec.detail == kSideDetail ? (side++)->second
                                          : *texts_[rec.detail],
                ev);
  }
  return out;
}

std::vector<std::string> Recorder::machines() const {
  std::vector<std::string> names;
  names.reserve(journals_.size());
  for (const auto& [name, journal] : journals_) names.push_back(name);
  std::sort(names.begin(), names.end());  // hash-map order is arbitrary
  return names;
}

std::vector<Event> Recorder::journal(const std::string& machine) const {
  auto it = journals_.find(machine);
  return it == journals_.end() ? std::vector<Event>{}
                               : events_of(it->second);
}

std::vector<Event> Recorder::drain(const std::string& machine) {
  auto it = journals_.find(machine);
  if (it == journals_.end()) return {};
  Journal& journal = it->second;
  std::vector<Event> out = events_of(journal);
  journal.ring.clear();
  journal.head = 0;
  journal.side.clear();
  return out;
}

std::uint64_t Recorder::dropped(const std::string& machine) const {
  auto it = journals_.find(machine);
  return it == journals_.end() ? 0 : it->second.dropped;
}

}  // namespace surgeon::trace
