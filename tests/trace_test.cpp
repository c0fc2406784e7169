// Unit and integration tests of surgeon::trace: the flight recorder's
// clocks and ring (checked step by step against a deque-of-Events model),
// causal-context propagation through the bus (including
// the reliable layer's retransmissions and deduplication), the DAG
// assembler/exporters, the mh_trace client query, and the online
// happens-before checker -- both that a clean replacement passes it and
// that a deliberately corrupted journal is flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "bus/bus.hpp"
#include "bus/client.hpp"
#include "cfg/parser.hpp"
#include "obs/metrics.hpp"
#include "reconfig/scripts.hpp"
#include "trace/assemble.hpp"
#include "trace/checker.hpp"
#include "trace/recorder.hpp"

namespace surgeon::trace {
namespace {

// ---------------------------------------------------------------- recorder

TEST(Recorder, DisabledRecordsNothing) {
  Recorder rec;
  TraceContext ctx = rec.record(EventKind::kSend, "vax", "a", "x");
  EXPECT_FALSE(ctx.valid());
  EXPECT_EQ(rec.total_events(), 0u);
  EXPECT_TRUE(rec.machines().empty());
}

TEST(Recorder, ProgramOrderParentsChainPerModule) {
  Recorder rec;
  rec.set_enabled(true);
  TraceContext a1 = rec.record(EventKind::kSend, "vax", "a", "1");
  TraceContext b1 = rec.record(EventKind::kSend, "vax", "b", "1");
  TraceContext a2 = rec.record(EventKind::kSend, "vax", "a", "2");
  const auto& journal = rec.journal("vax");
  ASSERT_EQ(journal.size(), 3u);
  EXPECT_EQ(journal[0].parent, 0u);           // a's first event
  EXPECT_EQ(journal[1].parent, 0u);           // b's first event
  EXPECT_EQ(journal[2].parent, a1.event);     // a's second chains to a1
  EXPECT_LT(a1.event, b1.event);
  EXPECT_LT(b1.event, a2.event);
}

TEST(Recorder, LamportMergesCauseAcrossMachines) {
  Recorder rec;
  rec.set_enabled(true);
  // Tick vax's clock ahead, then carry its context to sparc: the deliver
  // must land strictly after the send even though sparc's own clock is 0.
  TraceContext c;
  for (int i = 0; i < 5; ++i) c = rec.record(EventKind::kSend, "vax", "a", "");
  EXPECT_EQ(c.lamport, 5u);
  TraceContext d = rec.record(EventKind::kDeliver, "sparc", "b", "", c);
  EXPECT_EQ(d.lamport, 6u);
  EXPECT_EQ(rec.journal("sparc").front().cause, c.event);
}

TEST(Recorder, LamportMergesProgramOrderParentAcrossMachines) {
  Recorder rec;
  rec.set_enabled(true);
  // A module's events can land in different journals (a control-plane
  // event is recorded where the script runs). The parent edge must
  // advance the clock too, or the second event would sort before the
  // first.
  TraceContext first;
  for (int i = 0; i < 4; ++i) {
    first = rec.record(EventKind::kDeliver, "vax", "server", "");
  }
  TraceContext second =
      rec.record(EventKind::kSignal, "sparc", "server", "requested");
  EXPECT_EQ(rec.journal("sparc").front().parent, first.event);
  EXPECT_GT(second.lamport, first.lamport);
}

TEST(Recorder, RingEvictsOldestAndCountsDrops) {
  Recorder rec;
  rec.set_enabled(true);
  rec.set_capacity(4);
  std::size_t observed = 0;
  rec.add_observer([&observed](const Event&) { ++observed; });
  for (int i = 0; i < 10; ++i) {
    rec.record(EventKind::kSend, "vax", "a", std::to_string(i));
  }
  EXPECT_EQ(rec.journal("vax").size(), 4u);
  EXPECT_EQ(rec.journal("vax").front().detail, "6");
  EXPECT_EQ(rec.dropped("vax"), 6u);
  EXPECT_EQ(observed, 10u);  // the observer saw every event pre-eviction
  EXPECT_EQ(rec.total_events(), 10u);
}

TEST(Recorder, TraceIdInheritedFromScopeAndFromCause) {
  Recorder rec;
  rec.set_enabled(true);
  std::uint64_t id = rec.begin_trace("replace:server");
  EXPECT_EQ(rec.trace_name(id), "replace:server");
  TraceContext inside = rec.record(EventKind::kSignal, "vax", "a", "");
  EXPECT_EQ(inside.trace_id, id);
  rec.end_trace();
  // After the scope closes, a caused event still rides the cause's trace;
  // an uncaused one belongs to no trace.
  TraceContext caused = rec.record(EventKind::kDeliver, "vax", "b", "",
                                   inside);
  TraceContext uncaused = rec.record(EventKind::kSend, "vax", "c", "");
  EXPECT_EQ(caused.trace_id, id);
  EXPECT_EQ(uncaused.trace_id, 0u);
}

auto fields(const Event& ev) {
  return std::tie(ev.id, ev.parent, ev.cause, ev.trace_id, ev.request,
                  ev.lamport, ev.at, ev.kind, ev.machine, ev.module,
                  ev.detail);
}

TEST(Recorder, ObserverRecordingReentrantlyKeepsItsEvent) {
  Recorder rec;
  rec.set_enabled(true);
  const Recorder::Site site = rec.resolve_site("vax", "client");
  const Recorder::Symbol out = rec.intern("out");
  std::vector<Event> after_nesting;
  std::vector<Event> second_observer;
  bool nested = false;
  rec.add_observer([&](const Event& ev) {
    if (nested) return;
    nested = true;
    const Event before = ev;
    // A nested event on the same machine, with its own id, kind, trace,
    // request, Lamport clock, module and detail.
    rec.begin_trace("nested");
    rec.record(EventKind::kDrop, "vax", "a-much-longer-module-name",
               "a free-form detail too long for any short-string buffer",
               TraceContext{0, 0, 0, rec.new_request()});
    rec.end_trace();
    EXPECT_TRUE(fields(ev) == fields(before));
    after_nesting.push_back(ev);
  });
  rec.add_observer([&](const Event& ev) { second_observer.push_back(ev); });
  const TraceContext outer = rec.record_at(site, EventKind::kSend, out);
  ASSERT_EQ(after_nesting.size(), 1u);
  EXPECT_EQ(after_nesting[0].id, outer.event);
  EXPECT_EQ(after_nesting[0].module, "client");
  EXPECT_EQ(after_nesting[0].detail, "out");
  // The second observer sees the nested event first (it was recorded from
  // inside the first observer), then the outer one, unchanged.
  ASSERT_EQ(second_observer.size(), 2u);
  EXPECT_EQ(second_observer[0].kind, EventKind::kDrop);
  EXPECT_EQ(second_observer[1].id, outer.event);
  EXPECT_EQ(second_observer[1].module, "client");
  EXPECT_EQ(second_observer[1].detail, "out");
  // Journal order is insertion order: the nested event entered the ring
  // before the event whose observer recorded it.
  const std::vector<Event> journal = rec.journal("vax");
  ASSERT_EQ(journal.size(), 2u);
  EXPECT_EQ(journal[0].kind, EventKind::kDrop);
  EXPECT_EQ(journal[0].detail,
            "a free-form detail too long for any short-string buffer");
  EXPECT_EQ(journal[1].id, outer.event);
  EXPECT_EQ(journal[1].detail, "out");
}

// Reference model of the journals: one std::deque<Event> per machine,
// pushed after the observers ran, oldest evicted past the capacity.
class RecorderModel {
 public:
  explicit RecorderModel(std::size_t capacity) : capacity_(capacity) {}

  Event record(EventKind kind, const std::string& machine,
               const std::string& module, const std::string& detail,
               const TraceContext& cause, std::uint64_t current_trace,
               net::SimTime at) {
    Event ev;
    ev.id = next_id_++;
    Recorder::LastEvent& last = last_[module];
    ev.parent = last.id;
    ev.cause = cause.event;
    std::uint64_t& clock = clock_[machine];
    ev.lamport = std::max({clock, last.lamport, cause.lamport}) + 1;
    clock = ev.lamport;
    ev.trace_id = cause.valid() ? cause.trace_id : current_trace;
    ev.request = cause.request;
    ev.at = at;
    ev.kind = kind;
    ev.machine = machine;
    ev.module = module;
    ev.detail = detail;
    last = {ev.id, ev.lamport};
    std::deque<Event>& journal = journals_[machine];
    if (journal.size() >= capacity_) {
      journal.pop_front();
      ++dropped_[machine];
    }
    journal.push_back(ev);
    return ev;
  }

  void set_capacity(std::size_t capacity) {
    capacity_ = std::max<std::size_t>(1, capacity);
    for (auto& [machine, journal] : journals_) {
      while (journal.size() > capacity_) {
        journal.pop_front();
        ++dropped_[machine];
      }
    }
  }

  std::vector<Event> journal(const std::string& machine) {
    const std::deque<Event>& j = journals_[machine];
    return {j.begin(), j.end()};
  }
  std::vector<Event> drain(const std::string& machine) {
    std::vector<Event> out = journal(machine);
    journals_[machine].clear();
    return out;
  }
  std::uint64_t dropped(const std::string& machine) {
    return dropped_[machine];
  }
  std::uint64_t total_events() const { return next_id_ - 1; }

 private:
  std::size_t capacity_;
  EventId next_id_ = 1;
  std::map<std::string, std::deque<Event>> journals_;
  std::map<std::string, std::uint64_t> dropped_;
  std::map<std::string, std::uint64_t> clock_;
  std::map<std::string, Recorder::LastEvent> last_;
};

void expect_same_events(const std::vector<Event>& got,
                        const std::vector<Event>& want,
                        const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(fields(got[i]) == fields(want[i]))
        << where << ": event " << i << " id " << got[i].id << " vs "
        << want[i].id << ", detail '" << got[i].detail << "' vs '"
        << want[i].detail << "'";
  }
}

// Seeded random walk over the recorder's whole surface -- per-hop
// record_at through resolved Sites and interned details, free-form
// record, capacity changes across wraps, drains and trace scopes --
// checked after every step against the deque model.
TEST(Recorder, CompactRingMatchesTheDequeModel) {
  constexpr std::size_t kCapacity = 7;
  const std::vector<std::string> machines = {"m0", "m1", "m2"};
  const std::vector<std::string> modules = {"client", "filter",
                                            "a-module-name-past-sso"};
  const std::vector<std::string> details = {"in", "out",
                                            "in (terminal)"};
  std::mt19937_64 rng(20260117);
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  net::SimTime now = 0;
  Recorder rec;
  rec.set_enabled(true);
  rec.set_capacity(kCapacity);
  rec.set_clock([&now] { return now; });
  RecorderModel model(kCapacity);
  std::vector<Event> observed;
  rec.add_observer([&observed](const Event& ev) { observed.push_back(ev); });

  std::vector<std::vector<Recorder::Site>> sites(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (const std::string& module : modules) {
      sites[m].push_back(rec.resolve_site(machines[m], module));
    }
  }
  std::vector<Recorder::Symbol> symbols;
  for (const std::string& d : details) symbols.push_back(rec.intern(d));

  std::vector<TraceContext> contexts;
  std::uint64_t current_trace = 0;
  bool wrapped = false;
  for (int step = 0; step < 4000; ++step) {
    now += pick(5);
    TraceContext cause;
    switch (pick(4)) {
      case 0: break;  // local event
      case 1: cause.request = rec.new_request(); break;  // synthetic entry
      default:
        if (!contexts.empty()) cause = contexts[pick(contexts.size())];
    }
    const std::size_t m = pick(machines.size());
    const std::size_t mod = pick(modules.size());
    const auto kind = static_cast<EventKind>(pick(19));
    const std::size_t op = pick(100);
    std::string where = "step " + std::to_string(step);
    if (op < 85) {
      TraceContext ctx;
      Event want;
      if (op < 60) {
        const std::size_t d = pick(details.size());
        ctx = rec.record_at(sites[m][mod], kind, symbols[d], cause);
        want = model.record(kind, machines[m], modules[mod], details[d],
                            cause, current_trace, now);
      } else {
        // Free-form details never repeat; some exceed the short-string
        // buffer.
        std::string detail = "drop seq=" + std::to_string(rng());
        if (pick(3) == 0) detail += " after a retransmit past the window";
        ctx = rec.record(kind, machines[m], modules[mod], detail, cause);
        want = model.record(kind, machines[m], modules[mod], detail, cause,
                            current_trace, now);
      }
      ASSERT_EQ(ctx.event, want.id) << where;
      EXPECT_EQ(ctx.lamport, want.lamport) << where;
      EXPECT_EQ(ctx.trace_id, want.trace_id) << where;
      EXPECT_EQ(ctx.request, want.request) << where;
      ASSERT_FALSE(observed.empty());
      EXPECT_TRUE(fields(observed.back()) == fields(want))
          << where << ": observed event " << observed.back().id;
      contexts.push_back(ctx);
    } else if (op < 92) {
      if (!wrapped) continue;
      const std::size_t capacity = 1 + pick(2 * kCapacity);
      rec.set_capacity(capacity);
      model.set_capacity(capacity);
      where += " set_capacity(" + std::to_string(capacity) + ")";
    } else if (op < 96) {
      expect_same_events(rec.drain(machines[m]), model.drain(machines[m]),
                         where + " drain");
    } else if (current_trace == 0) {
      current_trace = rec.begin_trace("scope");
    } else {
      rec.end_trace();
      current_trace = 0;
    }
    if (contexts.size() > 64) contexts.erase(contexts.begin());
    for (const std::string& machine : machines) {
      expect_same_events(rec.journal(machine), model.journal(machine),
                         where + " " + machine);
      EXPECT_EQ(rec.dropped(machine), model.dropped(machine)) << where;
      wrapped = wrapped || rec.dropped(machine) != 0;
    }
    EXPECT_EQ(rec.total_events(), model.total_events()) << where;
    if (HasFailure()) break;
  }
  EXPECT_TRUE(wrapped);
  EXPECT_EQ(observed.size(), rec.total_events());
  EXPECT_EQ(rec.machines(), machines);
}

// --------------------------------------------- propagation through the bus

class TracedBusTest : public ::testing::Test {
 protected:
  TracedBusTest() : bus_(sim_) {
    sim_.add_machine("vax", net::arch_vax());
    sim_.add_machine("sparc", net::arch_sparc());
    net::LatencyModel model;
    model.local_us = 10;
    model.remote_us = 1000;
    sim_.set_latency_model(model);
    rec_.set_clock([this] { return sim_.now(); });
    rec_.set_enabled(true);
    bus_.set_tracer(&rec_);
    metrics_.set_enabled(true);
    bus_.set_metrics(&metrics_);
  }

  bus::ModuleInfo make_module(const std::string& name,
                              const std::string& machine) {
    bus::ModuleInfo info;
    info.name = name;
    info.machine = machine;
    info.interfaces = {
        bus::InterfaceSpec{"in", bus::IfaceRole::kUse, "i", ""},
        bus::InterfaceSpec{"out", bus::IfaceRole::kDefine, "i", ""},
    };
    return info;
  }

  void add_pair() {
    bus_.add_module(make_module("a", "vax"));
    bus_.add_module(make_module("b", "sparc"));
    bus_.add_binding({"a", "out"}, {"b", "in"});
  }

  std::vector<Event> events_of(const std::string& machine, EventKind kind) {
    std::vector<Event> out;
    for (const Event& ev : rec_.journal(machine)) {
      if (ev.kind == kind) out.push_back(ev);
    }
    return out;
  }

  std::uint64_t counter(const char* name) {
    return metrics_.counter(name, {{"kind", "message"}}).value();
  }

  net::Simulator sim_;
  bus::Bus bus_;
  Recorder rec_;
  obs::MetricsRegistry metrics_;
};

TEST_F(TracedBusTest, FireAndForgetDeliveryChainsToSend) {
  add_pair();
  bus_.send("a", "out", {ser::Value(std::int64_t{5})});
  sim_.run();
  auto sends = events_of("vax", EventKind::kSend);
  auto delivers = events_of("sparc", EventKind::kDeliver);
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_EQ(delivers.size(), 1u);
  EXPECT_EQ(delivers[0].cause, sends[0].id);
  EXPECT_GT(delivers[0].lamport, sends[0].lamport);
  Dag dag = assemble(rec_);
  EXPECT_TRUE(dag.happens_before(sends[0].id, delivers[0].id));
  EXPECT_FALSE(dag.happens_before(delivers[0].id, sends[0].id));
}

TEST_F(TracedBusTest, ContextSurvivesRetransmission) {
  bus_.set_delivery(bus::DeliveryOptions{.reliable = true});
  add_pair();
  int copies = 0;
  bus_.set_fault_hook([&copies](const std::string& src, const std::string&) {
    if (src == "vax" && ++copies <= 2) return bus::FaultDecision{.drop = true};
    return bus::FaultDecision{};
  });
  bus_.send("a", "out", {ser::Value(std::int64_t{7})});
  sim_.run();
  ASSERT_TRUE(bus_.receive("b", "in").has_value());
  auto sends = events_of("vax", EventKind::kSend);
  auto retransmits = events_of("vax", EventKind::kRetransmit);
  auto delivers = events_of("sparc", EventKind::kDeliver);
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_GE(retransmits.size(), 2u);
  ASSERT_EQ(delivers.size(), 1u);
  // Every retry chains to the original send; the delivery chains to the
  // transmission that actually arrived.
  for (const Event& rt : retransmits) EXPECT_EQ(rt.cause, sends[0].id);
  EXPECT_EQ(delivers[0].cause, retransmits.back().id);
  Dag dag = assemble(rec_);
  EXPECT_TRUE(dag.happens_before(sends[0].id, delivers[0].id));
  EXPECT_GE(counter("surgeon_bus_transmissions_total"), 3u);
}

TEST_F(TracedBusTest, ContextSurvivesDuplicateDiscard) {
  bus_.set_delivery(bus::DeliveryOptions{.reliable = true});
  add_pair();
  bus_.set_fault_hook([](const std::string& src, const std::string&) {
    if (src == "vax") {
      return bus::FaultDecision{.duplicate = true, .duplicate_delay_us = 50};
    }
    return bus::FaultDecision{};
  });
  bus_.send("a", "out", {ser::Value(std::int64_t{9})});
  sim_.run();
  ASSERT_TRUE(bus_.receive("b", "in").has_value());
  ASSERT_FALSE(bus_.receive("b", "in").has_value());  // deduplicated
  auto sends = events_of("vax", EventKind::kSend);
  auto delivers = events_of("sparc", EventKind::kDeliver);
  auto discards = events_of("sparc", EventKind::kDupDiscard);
  ASSERT_EQ(sends.size(), 1u);
  ASSERT_EQ(delivers.size(), 1u);
  ASSERT_GE(discards.size(), 1u);
  // The discarded copy carried the same causal header as the applied one.
  EXPECT_EQ(discards[0].cause, sends[0].id);
  EXPECT_GE(counter("surgeon_bus_dup_injected_total"), 1u);
}

TEST_F(TracedBusTest, OutOfOrderBufferingIsCounted) {
  bus_.set_delivery(bus::DeliveryOptions{.reliable = true});
  add_pair();
  int data_copies = 0;
  bus_.set_fault_hook(
      [&data_copies](const std::string& src, const std::string&) {
        // Delay only the first wire copy leaving vax, so seq 2 overtakes
        // seq 1 and must be buffered for re-sequencing at the receiver.
        if (src == "vax" && ++data_copies == 1) {
          return bus::FaultDecision{.extra_delay_us = 5'000};
        }
        return bus::FaultDecision{};
      });
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  bus_.send("a", "out", {ser::Value(std::int64_t{2})});
  sim_.run();
  EXPECT_EQ(bus_.receive("b", "in")->values[0].as_int(), 1);
  EXPECT_EQ(bus_.receive("b", "in")->values[0].as_int(), 2);
  EXPECT_GE(counter("surgeon_bus_ooo_buffered_total"), 1u);
  EXPECT_GE(counter("surgeon_bus_transmissions_total"), 2u);
  // The labeled reliable-layer internals surface through mh_stats.
  bus::Client client(bus_, "b");
  std::string stats = client.mh_stats("prometheus");
  EXPECT_NE(stats.find("surgeon_bus_ooo_buffered_total"), std::string::npos);
  EXPECT_NE(stats.find("surgeon_bus_transmissions_total"), std::string::npos);
}

// Ring eviction must never fail request assembly: a request whose early
// records were evicted assembles into a partial trace with a completeness
// fraction < 1, while requests whose full chain survived stay complete.
TEST_F(TracedBusTest, RequestAssemblySurvivesRingEviction) {
  rec_.set_capacity(4);  // tiny ring: sparc holds 4 of its 6 records
  add_pair();
  bus_.set_request_entry("a", "out");
  bus_.set_request_terminal("b", "in");
  // Move off t=0: a started_at of 0 is the assembler's "entry send was
  // evicted" sentinel, and these sends must be distinguishable from that.
  sim_.schedule_after(500, [] {});
  sim_.run();
  for (int i = 0; i < 3; ++i) {
    bus_.send("a", "out", {ser::Value(std::int64_t{i})});
  }
  sim_.run();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(bus_.receive("b", "in").has_value());
  }
  // vax keeps its 3 sends; sparc journaled deliver 1-3 then receive 1-3,
  // so the 4-slot ring evicted request 1's and 2's delivers: their
  // surviving receives now carry dangling cause references.
  Dag dag = assemble(rec_);
  std::vector<RequestTrace> requests = assemble_requests(dag);
  ASSERT_EQ(requests.size(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    const RequestTrace& rt = requests[r];
    EXPECT_EQ(rt.request, r + 1) << "request " << r + 1;
    EXPECT_TRUE(rt.completed) << "request " << r + 1;   // terminal receive
    EXPECT_FALSE(rt.complete) << "request " << r + 1;   // ...but holes
    EXPECT_LT(rt.completeness, 1.0) << "request " << r + 1;
    ASSERT_FALSE(rt.hops.empty()) << "request " << r + 1;
    EXPECT_TRUE(rt.hops.back().partial) << "request " << r + 1;
  }
  // The survivor assembles end to end: every causal reference resolved,
  // latency derived from both ends.
  const RequestTrace& intact = requests[2];
  EXPECT_EQ(intact.request, 3u);
  EXPECT_TRUE(intact.completed);
  EXPECT_TRUE(intact.complete);
  EXPECT_DOUBLE_EQ(intact.completeness, 1.0);
  EXPECT_EQ(intact.latency_us, intact.completed_at - intact.started_at);
  ASSERT_FALSE(intact.hops.empty());
  for (const RequestHop& hop : intact.hops) {
    EXPECT_FALSE(hop.partial);
  }
  // The export stays well-formed in the presence of partial traces.
  const std::string json = requests_to_json(requests);
  EXPECT_NE(json.find("\"complete\":false"), std::string::npos);
  EXPECT_NE(json.find("\"complete\":true"), std::string::npos);
}

// ------------------------------------------------- replacement integration

std::unique_ptr<app::Runtime> make_counter(int requests = 20) {
  auto rt = std::make_unique<app::Runtime>(7);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  rt->load_application(config, "counter",
                       [&](const cfg::ModuleSpec& spec) {
                         if (spec.name == "client") {
                           return app::samples::counter_client_source(
                               requests);
                         }
                         return app::samples::counter_server_source();
                       });
  return rt;
}

TEST(Replacement, CloneInheritsCapturedQueueContexts) {
  auto rt = make_counter();
  rt->enable_causal_tracing();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  reconfig::ReplaceReport report =
      reconfig::replace_module(*rt, "server", {});
  EXPECT_GT(report.trace_id, 0u);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();

  Dag dag = assemble(rt->tracer());
  const Event* divulge = nullptr;
  const Event* rebind = nullptr;
  const Event* capture = nullptr;
  const Event* first_clone_deliver = nullptr;
  for (const Event& ev : dag.events) {
    if (ev.kind == EventKind::kDivulge && divulge == nullptr) divulge = &ev;
    if (ev.kind == EventKind::kRebind && rebind == nullptr) rebind = &ev;
    if (ev.kind == EventKind::kCapture && capture == nullptr) capture = &ev;
    if (ev.kind == EventKind::kDeliver &&
        ev.module == report.new_instance && first_clone_deliver == nullptr) {
      first_clone_deliver = &ev;
    }
  }
  ASSERT_NE(divulge, nullptr);
  ASSERT_NE(rebind, nullptr);
  ASSERT_NE(capture, nullptr);
  ASSERT_NE(first_clone_deliver, nullptr);
  // Figure 5 order, causally: divulge -> rebind -> queue capture, and the
  // clone's first delivery happens after the rebind that bound it.
  EXPECT_TRUE(dag.happens_before(divulge->id, rebind->id));
  EXPECT_TRUE(dag.happens_before(rebind->id, capture->id));
  EXPECT_TRUE(dag.happens_before(rebind->id, first_clone_deliver->id));
  // The replacement's events are grouped under the report's trace id.
  EXPECT_EQ(rebind->trace_id, report.trace_id);
}

TEST(Replacement, CleanRunPassesTheOnlineChecker) {
  auto rt = make_counter();
  HbChecker checker;
  rt->tracer().add_observer(
      [&checker](const Event& ev) { checker.observe(ev); });
  rt->enable_causal_tracing();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  (void)reconfig::replace_module(*rt, "server", {});
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  EXPECT_GT(checker.observed(), 0u);
  EXPECT_TRUE(checker.ok()) << checker.violations().front();
}

TEST(Replacement, MhTraceExportsTheMachineJournal) {
  auto rt = make_counter();
  rt->enable_causal_tracing();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  bus::Client client(rt->bus(), "server");
  EXPECT_THROW((void)client.mh_trace("xml"), support::BusError);
  std::string json = client.mh_trace("json");
  EXPECT_NE(json.find("\"kind\":\"deliver\""), std::string::npos);
  EXPECT_NE(json.find("\"lamport\""), std::string::npos);
  std::string text = client.mh_trace("text");
  EXPECT_NE(text.find("deliver"), std::string::npos);
  // Draining empties the journal; a second drain sees nothing new.
  std::string drained = client.mh_trace("json", /*drain=*/true);
  EXPECT_NE(drained.find("\"kind\""), std::string::npos);
  EXPECT_EQ(client.mh_trace("json").find("\"kind\""), std::string::npos);
}

TEST(Replacement, ChromeTraceAndTimelineExports) {
  auto rt = make_counter();
  rt->enable_causal_tracing();
  rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 2; },
      10'000'000);
  reconfig::ReplaceReport report =
      reconfig::replace_module(*rt, "server", {});
  Dag dag = assemble(rt->tracer());
  std::string chrome = to_chrome_trace(dag, report.trace_id);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("process_name"), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"s\""), std::string::npos);  // flow edges
  EXPECT_NE(chrome.find("rebind"), std::string::npos);
  std::string timeline = to_timeline(dag, report.trace_id);
  EXPECT_NE(timeline.find("divulge"), std::string::npos);
  EXPECT_NE(timeline.find("rebind"), std::string::npos);
  // Filtering works: the full timeline has steady-state traffic the
  // replacement-only view omits.
  EXPECT_GT(to_timeline(dag).size(), timeline.size());
}

// ------------------------------------------------------- directed checker

Event make_event(EventId id, EventKind kind, const std::string& machine,
                 const std::string& module, std::uint64_t lamport,
                 net::SimTime at, EventId parent = 0, EventId cause = 0,
                 std::string detail = "") {
  Event ev;
  ev.id = id;
  ev.parent = parent;
  ev.cause = cause;
  ev.trace_id = 1;
  ev.lamport = lamport;
  ev.at = at;
  ev.kind = kind;
  ev.machine = machine;
  ev.module = module;
  ev.detail = std::move(detail);
  return ev;
}

bool any_violation_mentions(const HbChecker& checker, const char* tag) {
  return std::any_of(checker.violations().begin(),
                     checker.violations().end(),
                     [tag](const std::string& v) {
                       return v.find(tag) != std::string::npos;
                     });
}

TEST(HbCheckerDirected, ReorderedJournalIsFlagged) {
  // A journal whose Lamport clocks run backwards on one machine: exactly
  // what a buggy merge (or a tampered export) would produce.
  HbChecker checker;
  checker.observe(
      make_event(1, EventKind::kSend, "vax", "a", /*lamport=*/5, 100));
  checker.observe(
      make_event(2, EventKind::kSend, "vax", "a", /*lamport=*/3, 200, 1));
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(any_violation_mentions(checker, "I6"));
  EXPECT_TRUE(any_violation_mentions(checker, "I5"));
}

TEST(HbCheckerDirected, TimeTravelIsFlagged) {
  HbChecker checker;
  checker.observe(make_event(1, EventKind::kSend, "vax", "a", 1, 500));
  checker.observe(make_event(2, EventKind::kSend, "vax", "a", 2, 400, 1));
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(any_violation_mentions(checker, "I6"));
}

TEST(HbCheckerDirected, RebindWithoutQuiescenceIsFlagged) {
  // A clone rebind whose cause is a plain send, not the divulge: the
  // Figure 5 protocol rebinds only after the old module divulged.
  HbChecker checker;
  checker.observe(make_event(1, EventKind::kModuleAdded, "sparc", "x@2", 1,
                             0, 0, 0, "machine=sparc status=clone"));
  checker.observe(make_event(2, EventKind::kSend, "vax", "y", 1, 10));
  checker.observe(make_event(3, EventKind::kRebind, "bus", "x", 2, 20, 0, 2,
                             "edits=2 modules=x,x@2"));
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(any_violation_mentions(checker, "I1"));
}

TEST(HbCheckerDirected, StateDeliveryWithoutDivulgeIsFlagged) {
  HbChecker checker;
  checker.observe(
      make_event(1, EventKind::kStateDeliver, "sparc", "x@2", 1, 10));
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(any_violation_mentions(checker, "I3"));
}

TEST(HbCheckerDirected, DeliveryToRetiredModuleIsFlagged) {
  HbChecker checker;
  checker.observe(make_event(1, EventKind::kDivulge, "vax", "x", 1, 10));
  checker.observe(make_event(2, EventKind::kRebind, "bus", "x", 2, 20, 0, 1,
                             "edits=2 modules=x,x@2"));
  checker.observe(
      make_event(3, EventKind::kDeliver, "vax", "x", 3, 30, 0, 0, "in"));
  EXPECT_FALSE(checker.ok());
  EXPECT_TRUE(any_violation_mentions(checker, "I2"));
}

TEST(HbCheckerDirected, CleanSyntheticJournalPasses) {
  HbChecker checker;
  checker.observe(make_event(1, EventKind::kSend, "vax", "a", 1, 10));
  checker.observe(
      make_event(2, EventKind::kDeliver, "sparc", "b", 2, 1010, 0, 1, "in"));
  checker.observe(make_event(3, EventKind::kSend, "sparc", "b", 3, 1020, 2));
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.observed(), 3u);
}

}  // namespace
}  // namespace surgeon::trace
