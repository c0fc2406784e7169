// Per-machine flight recorder.
//
// One Recorder serves the whole platform (the Runtime owns it, the Bus
// holds a pointer, mirroring obs::MetricsRegistry).  Each machine gets a
// bounded ring journal; when a ring fills, the oldest event is overwritten
// and a per-machine dropped counter ticks — the recorder never grows
// without bound and never blocks the data path.
//
// A journal stores compact, trivially-copyable records, not Events: the
// numeric fields, the kind, and the module and detail as interned
// Symbols; the machine is the journal's own.  Module names and per-hop
// details (an iface name, or that name plus kTerminalSuffix) are interned
// once, so the bus's per-hop record_at copies no string and hashes
// nothing.  Free-form details from record() vary without limit (drop
// reasons, byte counts, rebind lists), so they stay out of the symbol
// table: each journal keeps them in a side queue keyed by ring position
// and evicts them together with their records.  A ring's storage grows
// by doubling as records arrive, up to the capacity; once it has wrapped,
// writing a record overwrites the oldest slot in place without reading
// it and allocates nothing.  The public Event is built only for readers:
// observers at record time, and journal()/drain() callers.
//
// Lamport clocks are per machine and merged over both causal edges: an
// event gets lamport = max(machine_clock, parent, cause) + 1.  The parent
// edge (program order of a module) participates because a module's events
// can land in different machine journals — a control-plane signal is
// recorded where the script runs, not where the module lives.
// Observers see every event at record time, before it enters its ring,
// which is what the online happens-before checker hangs off.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/event.hpp"

namespace surgeon::trace {

class Recorder {
  struct Journal;  // one machine's ring (defined below)

 public:
  /// An interned module name or per-hop detail.
  using Symbol = std::uint32_t;
  struct LastEvent {
    EventId id = 0;
    std::uint64_t lamport = 0;
  };
  // A pre-resolved (machine journal, module program-order, module name)
  // slot.  The bus caches one per module record, so the per-hop path does
  // no lookup at all.  Pointers stay valid for the recorder's lifetime.
  struct Site {
    Journal* journal = nullptr;
    LastEvent* last = nullptr;
    Symbol module = 0;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Events-per-machine bound; evicting beyond it ticks dropped().
  void set_capacity(std::size_t per_machine);
  std::size_t capacity() const { return capacity_; }

  void set_clock(std::function<net::SimTime()> clock) {
    clock_ = std::move(clock);
  }
  /// Fast path for the common case: read the virtual clock straight off
  /// the simulator instead of through a std::function per event.
  void set_clock(const net::Simulator* sim) { sim_clock_ = sim; }

  // Observers see every event at record time, including ones a full ring
  // will evict later — which is why streaming consumers (the HB checker,
  // the SLO request tracker) are eviction-immune.  Multiple observers can
  // coexist; each add returns an id for removal.  An observer may record
  // (e.g. by sending on the bus); the nested event is journaled before the
  // one being observed, and the observed Event stays intact.
  using ObserverId = std::uint64_t;
  ObserverId add_observer(std::function<void(const Event&)> observer);
  void remove_observer(ObserverId id);

  // Mints a fresh request id for a tagged workload-entry message.  Pass it
  // back inside a synthetic cause context (event == 0) so the recorded
  // event inherits the request without fabricating a causal edge.
  std::uint64_t new_request() { return ++next_request_; }

  // Opens a new trace grouping (e.g. one module replacement).  Events
  // recorded without a causal context inherit the current trace id;
  // events with a context inherit the context's.
  std::uint64_t begin_trace(const std::string& name);
  void end_trace() { current_trace_ = 0; }
  std::uint64_t current_trace() const { return current_trace_; }
  const std::string& trace_name(std::uint64_t trace_id) const;

  // Records one event with a free-form detail and returns its wire header.
  // No-op (returns an invalid context) while disabled.
  TraceContext record(EventKind kind, const std::string& machine,
                      const std::string& module, std::string detail,
                      const TraceContext& cause = {});
  // The per-hop form: a resolved Site and an interned detail.
  TraceContext record_at(const Site& site, EventKind kind, Symbol detail,
                         const TraceContext& cause = {});
  // Resolves a Site once, up front, so a caller registering a module pays
  // the lookups at registration instead of per event.  Opens the
  // machine's journal without reserving ring storage.
  [[nodiscard]] Site resolve_site(const std::string& machine,
                                  const std::string& module);
  // Interns a module name or a per-hop detail; the same text always gets
  // the same symbol.  Not for free-form details: the table never shrinks.
  [[nodiscard]] Symbol intern(const std::string& text);

  // Journal access; events come back oldest first.
  std::vector<std::string> machines() const;
  std::vector<Event> journal(const std::string& machine) const;
  std::vector<Event> drain(const std::string& machine);
  std::uint64_t dropped(const std::string& machine) const;
  std::uint64_t total_events() const { return next_id_ - 1; }

 private:
  // Marks a record whose detail lives in its journal's side queue.
  static constexpr Symbol kSideDetail = ~Symbol{0};

  // One journaled event as stored: an Event minus its strings.
  struct Record {
    EventId id = 0;
    EventId parent = 0;
    EventId cause = 0;
    std::uint64_t trace_id = 0;
    std::uint64_t request = 0;
    std::uint64_t lamport = 0;
    net::SimTime at = 0;
    Symbol module = 0;
    Symbol detail = 0;  // kSideDetail: the next entry of the side queue
    EventKind kind = EventKind::kSend;
  };
  // Writing a slot is a plain copy that never reads what was there.
  static_assert(std::is_trivially_copyable_v<Record> && sizeof(Record) <= 72);

  struct Journal {
    const std::string* machine = nullptr;  // key in journals_
    // Oldest record first until the ring is full; from then on the oldest
    // sits at `head` and each write overwrites it.
    std::vector<Record> ring;
    std::size_t head = 0;
    // Free-form details keyed by ring position, ascending.  A record's ring
    // position is the number of records evicted before it plus its index
    // from the oldest, so `dropped` is the oldest record's position.
    std::deque<std::pair<std::uint64_t, std::string>> side;
    std::uint64_t lamport = 0;
    std::uint64_t dropped = 0;
  };

  // One interned string.  A module's program-order tail lives with its
  // name, so the free-form path finds both with one lookup.
  struct Name {
    Symbol symbol = 0;
    LastEvent last;
  };

  bool enabled_ = false;
  std::size_t capacity_ = 65536;
  const net::Simulator* sim_clock_ = nullptr;
  std::function<net::SimTime()> clock_;
  std::vector<std::pair<ObserverId, std::function<void(const Event&)>>>
      observers_;
  ObserverId next_observer_ = 0;
  // Reused Events handed to observers, one per nesting level of recording
  // from inside an observer; boxed so growing keeps the outer ones in place.
  std::vector<std::unique_ptr<Event>> scratch_;
  std::size_t depth_ = 0;

  Journal& journal_of(const std::string& machine);
  Name& name_of(const std::string& text);
  Record stamp(Journal& journal, LastEvent& last, Symbol module,
               EventKind kind, Symbol detail, const TraceContext& cause);
  void notify(const Journal& journal, const Record& rec,
              const std::string& detail);
  // Appends to the ring, overwriting the oldest record once it is full;
  // returns the new record's ring position.
  std::uint64_t write(Journal& journal, const Record& rec);
  void materialize(const Journal& journal, const Record& rec,
                   const std::string& detail, Event& out) const;
  std::vector<Event> events_of(const Journal& journal) const;

  // Node pointers of both maps are stable across inserts, so Sites, the
  // one-entry cache below, `texts_` and `Journal::machine` survive new
  // names and machines appearing.
  std::unordered_map<std::string, Journal> journals_;
  std::unordered_map<std::string, Name> names_;
  std::vector<const std::string*> texts_;  // by symbol: keys of names_
  // Consecutive events overwhelmingly hit the same machine (bursts are
  // per-link); one comparison beats a hash lookup.
  const std::string* cached_machine_ = nullptr;
  Journal* cached_journal_ = nullptr;
  std::map<std::uint64_t, std::string> trace_names_;
  EventId next_id_ = 1;
  std::uint64_t next_trace_ = 0;
  std::uint64_t current_trace_ = 0;
  std::uint64_t next_request_ = 0;
};

}  // namespace surgeon::trace
