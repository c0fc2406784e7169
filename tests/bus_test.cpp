#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bus/bus.hpp"
#include "bus/client.hpp"
#include "bus/native.hpp"
#include "trace/assemble.hpp"

namespace surgeon::bus {
namespace {

using support::BusError;

class BusTest : public ::testing::Test {
 protected:
  BusTest() : bus_(sim_) {
    sim_.add_machine("vax", net::arch_vax());
    sim_.add_machine("sparc", net::arch_sparc());
    net::LatencyModel model;
    model.local_us = 10;
    model.remote_us = 1000;
    sim_.set_latency_model(model);
  }

  ModuleInfo make_module(const std::string& name, const std::string& machine) {
    ModuleInfo info;
    info.name = name;
    info.machine = machine;
    info.interfaces = {
        InterfaceSpec{"in", IfaceRole::kUse, "i", ""},
        InterfaceSpec{"out", IfaceRole::kDefine, "i", ""},
    };
    return info;
  }

  void add_pair() {
    bus_.add_module(make_module("a", "vax"));
    bus_.add_module(make_module("b", "sparc"));
    bus_.add_binding({"a", "out"}, {"b", "in"});
  }

  net::Simulator sim_;
  Bus bus_;
};

TEST_F(BusTest, RegisterAndQueryModules) {
  bus_.add_module(make_module("a", "vax"));
  EXPECT_TRUE(bus_.has_module("a"));
  EXPECT_EQ(bus_.module_info("a").machine, "vax");
  EXPECT_EQ(bus_.interface_names("a"),
            (std::vector<std::string>{"in", "out"}));
  EXPECT_THROW(bus_.add_module(make_module("a", "vax")), BusError);
  EXPECT_THROW(bus_.add_module(make_module("x", "nosuch")), BusError);
  EXPECT_THROW((void)bus_.module_info("zz"), BusError);
}

TEST_F(BusTest, DuplicateInterfaceRejected) {
  ModuleInfo info = make_module("dup", "vax");
  info.interfaces.push_back(info.interfaces.front());
  EXPECT_THROW(bus_.add_module(std::move(info)), BusError);
}

TEST_F(BusTest, SendDeliversAfterLatency) {
  add_pair();
  bus_.send("a", "out", {ser::Value(std::int64_t{5})});
  EXPECT_FALSE(bus_.has_message("b", "in"));  // still in flight
  sim_.run();
  EXPECT_EQ(sim_.now(), 1000u);  // cross-machine latency
  ASSERT_TRUE(bus_.has_message("b", "in"));
  auto msg = bus_.receive("b", "in");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->values[0].as_int(), 5);
  EXPECT_EQ(bus_.source_of(*msg), (BindingEnd{"a", "out"}));
  EXPECT_FALSE(bus_.has_message("b", "in"));
}

TEST_F(BusTest, UnboundSendIsCountedAndDropped) {
  bus_.add_module(make_module("a", "vax"));
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  sim_.run();
  EXPECT_EQ(bus_.stats().messages_dropped_unbound, 1u);
  EXPECT_EQ(bus_.stats().messages_delivered, 0u);
}

TEST_F(BusTest, RoleDirectionEnforced) {
  add_pair();
  EXPECT_THROW(bus_.send("b", "in", {}), BusError);       // use can't send
  EXPECT_THROW((void)bus_.receive("a", "out"), BusError); // define can't recv
}

TEST_F(BusTest, MessageOrderPreservedPerSender) {
  add_pair();
  for (int i = 0; i < 10; ++i) {
    bus_.send("a", "out", {ser::Value(std::int64_t{i})});
  }
  sim_.run();
  for (int i = 0; i < 10; ++i) {
    auto msg = bus_.receive("b", "in");
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->values[0].as_int(), i);
  }
}

TEST_F(BusTest, FanOutToMultiplePeers) {
  bus_.add_module(make_module("a", "vax"));
  bus_.add_module(make_module("b", "vax"));
  bus_.add_module(make_module("c", "sparc"));
  bus_.add_binding({"a", "out"}, {"b", "in"});
  bus_.add_binding({"a", "out"}, {"c", "in"});
  bus_.send("a", "out", {ser::Value(std::int64_t{9})});
  sim_.run();
  EXPECT_TRUE(bus_.has_message("b", "in"));
  EXPECT_TRUE(bus_.has_message("c", "in"));
}

TEST_F(BusTest, BindingValidation) {
  add_pair();
  // duplicate (including flipped) rejected
  EXPECT_THROW(bus_.add_binding({"b", "in"}, {"a", "out"}), BusError);
  // unknown interface rejected
  EXPECT_THROW(bus_.add_binding({"a", "nope"}, {"b", "in"}), BusError);
  // delete works, then double delete rejected
  bus_.del_binding({"a", "out"}, {"b", "in"});
  EXPECT_THROW(bus_.del_binding({"a", "out"}, {"b", "in"}), BusError);
}

TEST_F(BusTest, BoundPeersReflectsTable) {
  add_pair();
  auto peers = bus_.bound_peers({"a", "out"});
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_EQ(peers[0], (BindingEnd{"b", "in"}));
  EXPECT_TRUE(bus_.bound_peers({"a", "in"}).empty());
}

TEST_F(BusTest, RebindIsAtomicOnFailure) {
  add_pair();
  BindEditBatch batch;
  batch.add(BindEdit{BindEdit::Op::kDel, {"a", "out"}, {"b", "in"}});
  batch.add(BindEdit{BindEdit::Op::kAdd, {"a", "nosuch"}, {"b", "in"}});
  EXPECT_THROW(bus_.rebind(batch), BusError);
  // The delete must have been rolled back.
  EXPECT_EQ(bus_.bound_peers({"a", "out"}).size(), 1u);
}

// The bind table's reference semantics: one flat list of bindings in the
// order they were made. An endpoint's peers are the far ends of the
// bindings that involve it, in list order (a self-binding once). Adds
// append, deletes erase in place, and removing a module erases every
// binding that names it.
class BindTableModel {
 public:
  using Link = std::pair<BindingEnd, BindingEnd>;

  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] bool bound(const BindingEnd& a, const BindingEnd& b) const {
    return std::ranges::any_of(links_,
                               [&](const Link& l) { return is(l, a, b); });
  }
  void add(const BindingEnd& a, const BindingEnd& b) {
    links_.emplace_back(a, b);
  }
  void del(const BindingEnd& a, const BindingEnd& b) {
    std::erase_if(links_, [&](const Link& l) { return is(l, a, b); });
  }
  void remove_module(const std::string& module) {
    std::erase_if(links_, [&](const Link& l) {
      return l.first.module == module || l.second.module == module;
    });
  }
  [[nodiscard]] std::vector<BindingEnd> peers(const BindingEnd& end) const {
    std::vector<BindingEnd> out;
    for (const Link& l : links_) {
      if (l.first == end) {
        out.push_back(l.second);
      } else if (l.second == end) {
        out.push_back(l.first);
      }
    }
    return out;
  }

 private:
  static bool is(const Link& l, const BindingEnd& a, const BindingEnd& b) {
    return (l.first == a && l.second == b) || (l.first == b && l.second == a);
  }
  std::vector<Link> links_;
};

// A seeded walk over 5 modules x 3 interfaces: single adds (some of bound
// pairs, which must throw) and deletes, multi-edit rebind batches, and
// remove_module followed by a re-add. A third of the batches carry a bad
// edit (a duplicate add, a delete of an unbound pair, an unknown interface
// or module) after valid adds and deletes, so their undo must restore every
// list exactly. After every step each endpoint's bound_peers must equal the
// flat model's.
TEST_F(BusTest, AdjacencyMatchesTheBindTableModel) {
  const std::vector<std::string> modules{"m0", "m1", "m2", "m3", "m4"};
  const std::vector<std::string> ifaces{"p", "q", "r"};
  const auto info_of = [&](std::size_t i) {
    ModuleInfo info;
    info.name = modules[i];
    info.machine = i % 2 == 0 ? "vax" : "sparc";
    for (const std::string& f : ifaces) {
      info.interfaces.push_back(InterfaceSpec{f, IfaceRole::kClient, "i", "i"});
    }
    return info;
  };
  for (std::size_t i = 0; i < modules.size(); ++i) bus_.add_module(info_of(i));
  BindTableModel model;
  std::mt19937_64 rng(19);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const auto any_end = [&] {
    return BindingEnd{modules[pick(modules.size())],
                      ifaces[pick(ifaces.size())]};
  };
  // Ends of an unbound pair (sometimes one end twice: a self-binding).
  const auto unbound_pair = [&](const BindTableModel& m)
      -> std::optional<BindTableModel::Link> {
    for (int tries = 0; tries < 64; ++tries) {
      BindingEnd a = any_end();
      BindingEnd b = any_end();
      if (!m.bound(a, b)) return BindTableModel::Link{a, b};
    }
    return std::nullopt;
  };
  // A bound pair of `m`, ends in either order.
  const auto bound_pair = [&](const BindTableModel& m) {
    BindTableModel::Link l = m.links()[pick(m.links().size())];
    if (pick(2) == 0) std::swap(l.first, l.second);
    return l;
  };
  // Appends `count` valid link edits, applying them to `m`: a delete first
  // (when anything is bound), then an add, then either; now and then an
  // rmq. Returns whether it appended both an add and a delete.
  const auto append_valid = [&](BindTableModel& m, BindEditBatch& batch,
                                std::size_t count) {
    bool added = false;
    bool deleted = false;
    for (std::size_t k = 0; k < count; ++k) {
      if (!m.links().empty() && (k == 0 || (k > 1 && pick(2) == 0))) {
        const auto [a, b] = bound_pair(m);
        batch.add(BindEdit{BindEdit::Op::kDel, a, b});
        m.del(a, b);
        deleted = true;
      } else if (const auto pair = unbound_pair(m)) {
        batch.add(BindEdit{BindEdit::Op::kAdd, pair->first, pair->second});
        m.add(pair->first, pair->second);
        added = true;
      }
      if (pick(8) == 0) {
        batch.add(BindEdit{BindEdit::Op::kRemoveQueue, any_end(), {}});
      }
    }
    return added && deleted;
  };
  // An edit that fails validation against the in-batch table `m`.
  const auto bad_edit = [&](const BindTableModel& m) {
    const std::size_t kind = pick(4);
    if (kind == 0 && !m.links().empty()) {
      const auto [a, b] = bound_pair(m);
      return BindEdit{BindEdit::Op::kAdd, a, b};  // already bound
    }
    if (kind == 1) {
      if (const auto pair = unbound_pair(m)) {
        return BindEdit{BindEdit::Op::kDel, pair->first, pair->second};
      }
    }
    if (kind == 3) {
      return BindEdit{BindEdit::Op::kCaptureQueue, any_end(), {"ghost", "p"}};
    }
    return BindEdit{BindEdit::Op::kAdd, any_end(),
                    {modules[pick(modules.size())], "nosuch"}};
  };
  std::size_t longest_list = 0;
  const auto expect_model = [&](const std::string& where) {
    for (const std::string& m : modules) {
      for (const std::string& f : ifaces) {
        const BindingEnd end{m, f};
        const std::vector<BindingEnd> want = model.peers(end);
        EXPECT_EQ(bus_.bound_peers(end), want)
            << where << ": peers of " << m << "." << f;
        longest_list = std::max(longest_list, want.size());
      }
    }
  };

  int undone_mixed_batches = 0;
  int removals = 0;
  for (int step = 0; step < 600 && !HasFailure(); ++step) {
    const std::string where = "step " + std::to_string(step);
    const std::size_t roll = pick(100);
    if (roll < 30) {
      const BindingEnd a = any_end();
      const BindingEnd b = any_end();
      if (model.bound(a, b)) {
        EXPECT_THROW(bus_.add_binding(a, b), BusError) << where;
      } else {
        bus_.add_binding(a, b);
        model.add(a, b);
      }
    } else if (roll < 45) {
      if (model.links().empty()) continue;
      const auto [a, b] = bound_pair(model);
      bus_.del_binding(a, b);
      model.del(a, b);
      EXPECT_THROW(bus_.del_binding(a, b), BusError) << where;
    } else if (roll < 92) {
      BindTableModel after = model;
      BindEditBatch batch;
      const bool mixed = append_valid(after, batch, 2 + pick(7));
      if (pick(3) == 0) {
        batch.add(bad_edit(after));
        (void)append_valid(after, batch, pick(3));  // never applied
        EXPECT_THROW(bus_.rebind(batch), BusError) << where;
        if (mixed) ++undone_mixed_batches;
      } else {
        bus_.rebind(batch);
        model = std::move(after);
      }
    } else {
      const std::size_t i = pick(modules.size());
      bus_.remove_module(modules[i]);
      model.remove_module(modules[i]);
      expect_model(where + " after removing " + modules[i]);
      bus_.add_module(info_of(i));
      ++removals;
    }
    expect_model(where);
  }
  // The walk reached the cases it exists for: undone batches that mixed
  // adds and deletes, removals, and lists long enough for order to matter.
  EXPECT_GE(undone_mixed_batches, 40);
  EXPECT_GE(removals, 20);
  EXPECT_GE(longest_list, 4u);
}

TEST_F(BusTest, QueueCaptureMovesMessages) {
  add_pair();
  bus_.add_module(make_module("b2", "sparc"));
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  bus_.send("a", "out", {ser::Value(std::int64_t{2})});
  sim_.run();
  ASSERT_EQ(bus_.queue_depth("b", "in"), 2u);
  BindEditBatch batch;
  batch.add(BindEdit{BindEdit::Op::kCaptureQueue, {"b", "in"}, {"b2", "in"}});
  batch.add(BindEdit{BindEdit::Op::kRemoveQueue, {"b", "in"}, {}});
  bus_.rebind(batch);
  EXPECT_EQ(bus_.queue_depth("b", "in"), 0u);
  EXPECT_EQ(bus_.queue_depth("b2", "in"), 2u);
  EXPECT_EQ(bus_.receive("b2", "in")->values[0].as_int(), 1);
}

// queued_messages is a running count, not a sum taken on demand: it must
// equal the sum of queue_depth over the module's interfaces after every
// kind of queue change.
TEST_F(BusTest, QueuedMessagesStaysTheSumOfQueueDepths) {
  const auto expect_exact = [this](const std::string& module,
                                   std::size_t want, const char* after) {
    std::size_t sum = 0;
    for (const auto& iface : bus_.interface_names(module)) {
      sum += bus_.queue_depth(module, iface);
    }
    EXPECT_EQ(sum, want) << module << " after " << after;
    EXPECT_EQ(bus_.queued_messages(module), want) << module << " after "
                                                  << after;
  };
  ModuleInfo b = make_module("b", "sparc");
  b.interfaces.push_back(InterfaceSpec{"in2", IfaceRole::kUse, "i", ""});
  ModuleInfo heir = b;
  heir.name = "b2";
  bus_.add_module(make_module("a", "vax"));
  bus_.add_module(std::move(b));
  bus_.add_module(std::move(heir));
  bus_.add_binding({"a", "out"}, {"b", "in"});
  bus_.add_binding({"a", "out"}, {"b", "in2"});
  expect_exact("b", 0, "add_module");

  for (std::int64_t v = 0; v < 3; ++v) {
    bus_.send("a", "out", {ser::Value(v)});
  }
  sim_.run();
  expect_exact("b", 6, "deliver");  // each send reaches in and in2
  expect_exact("a", 0, "deliver");

  ASSERT_TRUE(bus_.receive("b", "in").has_value());
  expect_exact("b", 5, "receive");
  EXPECT_FALSE(bus_.receive("a", "in").has_value());
  expect_exact("a", 0, "an empty receive");

  BindEditBatch capture;
  capture.add(BindEdit{BindEdit::Op::kDel, {"a", "out"}, {"b", "in"}});
  capture.add(BindEdit{BindEdit::Op::kAdd, {"a", "out"}, {"b2", "in"}});
  capture.add(BindEdit{BindEdit::Op::kCaptureQueue, {"b", "in"}, {"b2", "in"}});
  bus_.rebind(capture);
  expect_exact("b", 3, "queue capture (source)");
  expect_exact("b2", 2, "queue capture (destination)");

  BindEditBatch rmq;
  rmq.add(BindEdit{BindEdit::Op::kRemoveQueue, {"b", "in2"}, {}});
  bus_.rebind(rmq);
  expect_exact("b", 0, "rmq");
  expect_exact("b2", 2, "rmq of another module");

  bus_.send("a", "out", {ser::Value(std::int64_t{9})});
  sim_.run();
  expect_exact("b", 1, "deliver after the rebind");
  expect_exact("b2", 3, "deliver after the rebind");

  bus_.remove_module("b");  // with a message still queued at in2
  EXPECT_THROW((void)bus_.queued_messages("b"), BusError);
  expect_exact("b2", 3, "remove_module of a peer");
  bus_.add_module(make_module("b", "sparc"));
  expect_exact("b", 0, "re-adding a removed name");
}

TEST_F(BusTest, RemoveModuleDropsBindingsAndInFlight) {
  add_pair();
  bus_.send("a", "out", {ser::Value(std::int64_t{7})});
  bus_.remove_module("b");  // while the message is in flight
  sim_.run();
  EXPECT_FALSE(bus_.has_module("b"));
  EXPECT_TRUE(bus_.bound_peers({"a", "out"}).empty());
  EXPECT_EQ(bus_.stats().messages_dropped_unbound, 1u);
  // A recreated module with the same name must not receive stale traffic.
  bus_.send("a", "out", {ser::Value(std::int64_t{8})});
  bus_.add_module(make_module("b", "vax"));
  sim_.run();
  EXPECT_FALSE(bus_.has_message("b", "in"));
}

TEST_F(BusTest, SignalDeliveredAsynchronously) {
  add_pair();
  bus_.signal_reconfig("a");
  EXPECT_FALSE(bus_.take_pending_signal("a"));  // not delivered yet
  sim_.run();
  EXPECT_TRUE(bus_.take_pending_signal("a"));
  EXPECT_FALSE(bus_.take_pending_signal("a"));  // one-shot
  EXPECT_EQ(bus_.stats().signals_delivered, 1u);
}

TEST_F(BusTest, StateMailboxes) {
  add_pair();
  std::vector<std::uint8_t> bytes = {1, 2, 3};
  EXPECT_FALSE(bus_.has_divulged_state("a"));
  bus_.post_divulged_state("a", bytes);
  EXPECT_TRUE(bus_.has_divulged_state("a"));
  EXPECT_THROW(bus_.post_divulged_state("a", bytes), BusError);
  EXPECT_EQ(bus_.take_divulged_state("a"), bytes);
  EXPECT_THROW((void)bus_.take_divulged_state("a"), BusError);

  bus_.deliver_state("vax", "b", bytes);
  EXPECT_FALSE(bus_.has_incoming_state("b"));  // in transit
  sim_.run();
  ASSERT_TRUE(bus_.has_incoming_state("b"));
  EXPECT_EQ(*bus_.take_incoming_state("b"), bytes);
  EXPECT_FALSE(bus_.take_incoming_state("b").has_value());
}

TEST_F(BusTest, WakeCallbackFires) {
  add_pair();
  std::vector<std::string> woken;
  bus_.set_wake_callback([&](const std::string& m) { woken.push_back(m); });
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  bus_.signal_reconfig("a");
  sim_.run();
  EXPECT_EQ(woken.size(), 2u);
}

TEST_F(BusTest, ClientFacade) {
  add_pair();
  Client client(bus_, "a");
  EXPECT_EQ(client.module_name(), "a");
  EXPECT_EQ(client.status(), "new");
  EXPECT_EQ(client.machine(), "vax");
  client.write("out", {ser::Value(std::int64_t{11})});
  sim_.run();
  Client receiver(bus_, "b");
  EXPECT_TRUE(receiver.query_ifmsgs("in"));
  auto msg = receiver.try_read("in");
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->values[0].as_int(), 11);

  ser::StateBuffer state;
  state.push_frame(ser::StateFrame{{ser::Value(std::int64_t{5})}});
  client.encode_state(state);
  auto bytes = bus_.take_divulged_state("a");
  bus_.deliver_state("vax", "b", std::move(bytes));
  sim_.run();
  auto decoded = receiver.decode_state();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->frame_count(), 1u);
}

TEST_F(BusTest, RecorderRecordsTheFullEventStory) {
  trace::Recorder rec;
  rec.set_clock(&sim_);
  rec.set_enabled(true);
  bus_.set_tracer(&rec);
  add_pair();
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  bus_.signal_reconfig("a");
  sim_.run();
  bus_.post_divulged_state("a", {1, 2, 3});
  bus_.deliver_state("vax", "b", bus_.take_divulged_state("a"));
  sim_.run();
  bus_.remove_module("b");

  const std::vector<trace::Event> events = trace::assemble(rec).events;
  std::vector<trace::EventKind> kinds;
  for (const auto& ev : events) kinds.push_back(ev.kind);
  using K = trace::EventKind;
  EXPECT_EQ(kinds, (std::vector<K>{
                       K::kModuleAdded,   // a
                       K::kModuleAdded,   // b
                       K::kRebind,        // the binding
                       K::kSend,          // a.out at t=0
                       K::kSignal,        // a requested at t=0
                       K::kSignal,        // a delivered at t=10 (local)
                       K::kDeliver,       // b.in at t=1000 (remote)
                       K::kDivulge,       // a, 3 bytes
                       K::kStateDeliver,  // b
                       K::kModuleRemoved, // b
                   }));
  // Timestamps are the virtual times of the events.
  EXPECT_EQ(events[3].at, 0u);     // send happens immediately
  EXPECT_EQ(events[4].at, 0u);
  EXPECT_EQ(events[4].detail, "reconfigure requested");
  EXPECT_EQ(events[5].at, 10u);    // local signal latency
  EXPECT_EQ(events[5].detail, "reconfigure delivered");
  EXPECT_EQ(events[6].at, 1000u);  // cross-machine delivery latency
  EXPECT_EQ(events[6].module, "b");
  EXPECT_EQ(events[6].detail, "in");
  EXPECT_EQ(events[7].detail, "3 bytes");
  EXPECT_NE(events[0].detail.find("machine=vax"), std::string::npos);
}

TEST_F(BusTest, RecorderDisabledByDefaultAndDetachable) {
  trace::Recorder rec;
  rec.set_clock(&sim_);
  bus_.set_tracer(&rec);
  add_pair();
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  sim_.run();
  EXPECT_EQ(rec.total_events(), 0u);  // attached but disabled
  rec.set_enabled(true);
  bus_.send("a", "out", {ser::Value(std::int64_t{2})});
  sim_.run();
  const std::uint64_t at_detach = rec.total_events();
  EXPECT_GT(at_detach, 0u);
  bus_.set_tracer(nullptr);
  bus_.send("a", "out", {ser::Value(std::int64_t{3})});
  sim_.run();
  EXPECT_EQ(rec.total_events(), at_detach);
}

TEST_F(BusTest, StatsTrackStateBytes) {
  add_pair();
  bus_.post_divulged_state("a", std::vector<std::uint8_t>(100, 0));
  EXPECT_EQ(bus_.stats().state_transfers, 1u);
  EXPECT_EQ(bus_.stats().state_bytes_moved, 100u);
}

TEST_F(BusTest, EndpointSlabRecyclesSlotsWithoutLeaks) {
  add_pair();
  const std::size_t slots = bus_.endpoint_slab_size();
  EXPECT_EQ(slots, 4u);  // two modules x two interfaces
  // Park a message in b's queue, then retire b with it still queued.
  bus_.send("a", "out", {ser::Value(std::int64_t{1})});
  sim_.run();
  ASSERT_EQ(bus_.queue_depth("b", "in"), 1u);
  bus_.remove_module("b");
  EXPECT_EQ(bus_.endpoint_slab_size(), slots);  // slots retired, not dropped
  // The re-added tenant recycles the freed slots and must start clean: no
  // inherited queue contents, and the slab must not have grown.
  bus_.add_module(make_module("b", "sparc"));
  EXPECT_EQ(bus_.endpoint_slab_size(), slots);
  EXPECT_EQ(bus_.queue_depth("b", "in"), 0u);
  EXPECT_FALSE(bus_.has_message("b", "in"));
  // A third module needs fresh slots again.
  bus_.add_module(make_module("c", "vax"));
  EXPECT_EQ(bus_.endpoint_slab_size(), slots + 2);
}

TEST_F(BusTest, EndpointRefsGoStaleOnRemoval) {
  add_pair();
  const EndpointRef out = bus_.resolve_endpoint("a", "out");
  const EndpointRef in = bus_.resolve_endpoint("b", "in");
  EXPECT_TRUE(bus_.endpoint_current(out));
  bus_.send(out, {ser::Value(std::int64_t{3})});
  sim_.run();
  EXPECT_TRUE(bus_.has_message(in));
  EXPECT_EQ(bus_.receive(in)->values[0].as_int(), 3);
  bus_.remove_module("b");
  bus_.add_module(make_module("b", "sparc"));
  // The recycled slot has a new generation: the old handle must not reach
  // the new tenant, and every ref-based entry point must reject it.
  EXPECT_FALSE(bus_.endpoint_current(in));
  EXPECT_THROW((void)bus_.has_message(in), BusError);
  EXPECT_THROW((void)bus_.receive(in), BusError);
  EXPECT_THROW((void)bus_.queue_depth(in), BusError);
  EXPECT_THROW(bus_.send(in, {}), BusError);
  EXPECT_NE(bus_.resolve_endpoint("b", "in"), in);
}

TEST_F(BusTest, ClientPortCacheReresolvesAfterReplacement) {
  add_pair();
  Client sender(bus_, "a");
  sender.write("out", {ser::Value(std::int64_t{1})});
  sim_.run();
  EXPECT_EQ(bus_.queue_depth("b", "in"), 1u);
  // Replace the sender under the same name (clone promotion does exactly
  // this): the client's cached handle goes stale and must re-resolve.
  bus_.remove_module("a");
  bus_.add_module(make_module("a", "vax"));
  bus_.add_binding({"a", "out"}, {"b", "in"});
  sender.write("out", {ser::Value(std::int64_t{2})});
  sim_.run();
  EXPECT_EQ(bus_.queue_depth("b", "in"), 2u);
}

TEST_F(BusTest, ReplacedModuleStartsAFreshReliableStream) {
  DeliveryOptions opts;
  opts.reliable = true;
  bus_.set_delivery(opts);
  add_pair();
  for (int i = 0; i < 3; ++i) {
    bus_.send("a", "out", {ser::Value(std::int64_t{i})});
  }
  sim_.run();
  // Replace the sender. Its stream died with it; the new instance's sends
  // restart at seq 0 under a NEW stream key (the generation-stamped ref of
  // its recycled endpoint), so the receiver must not mistake them for
  // duplicates of the predecessor's seq 0..2.
  bus_.remove_module("a");
  bus_.add_module(make_module("a", "vax"));
  bus_.add_binding({"a", "out"}, {"b", "in"});
  for (int i = 3; i < 6; ++i) {
    bus_.send("a", "out", {ser::Value(std::int64_t{i})});
  }
  sim_.run();
  EXPECT_EQ(bus_.reliable_stats().dup_discards, 0u);
  EXPECT_EQ(bus_.stats().messages_delivered, 6u);
  for (int i = 0; i < 6; ++i) {
    auto msg = bus_.receive("b", "in");
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->values[0].as_int(), i);
  }
  EXPECT_EQ(bus_.unacked_total(), 0u);
}

TEST_F(BusTest, AppliedControlHistoryStaysBounded) {
  DeliveryOptions opts;
  opts.reliable = true;
  bus_.set_delivery(opts);
  add_pair();
  const std::size_t rounds = Bus::kAppliedControlWindow + 50;
  for (std::size_t i = 0; i < rounds; ++i) {
    bus_.signal_reconfig("a");
    sim_.run();
    EXPECT_TRUE(bus_.take_pending_signal("a"));
    EXPECT_LE(bus_.applied_control_size("a"), Bus::kAppliedControlWindow);
  }
  // Every transfer was applied exactly once: the sliding window trimmed the
  // dedup history without ever re-applying or double-counting a delivery.
  EXPECT_EQ(bus_.stats().signals_delivered, rounds);
  EXPECT_EQ(bus_.applied_control_size("a"), Bus::kAppliedControlWindow);
  EXPECT_EQ(bus_.pending_control_total(), 0u);
}

// --- NativeModule: the lifecycle every native bus module shares --------------

/// A native module on "vax" that records when each fold ran, reports the
/// busy verdicts `busy` scripts (idle once they run out), divulges one
/// integer, answers the "top" query, and rejects every buffer while
/// `reject` is set.
class Ticker final : public NativeModule {
 public:
  Ticker(Bus& bus, const std::string& name, net::SimTime tick_us,
         net::SimTime max_tick_us, std::string status = "new")
      : NativeModule(bus,
                     {.name = name,
                      .machine = "vax",
                      .status = std::move(status),
                      .source = {},
                      .interfaces = {}},
                     tick_us, max_tick_us, "top") {}

  [[nodiscard]] ser::StateBuffer encode_state() const override {
    ++encodes;
    ser::StateBuffer state;
    state.push_frame(ser::StateFrame{{ser::Value{std::int64_t{42}}}});
    return state;
  }
  [[nodiscard]] std::string answer(const std::string& format) const override {
    return module_name() + ":" + format;
  }

  std::vector<net::SimTime> folds;
  std::vector<bool> busy;
  mutable int encodes = 0;
  std::optional<std::int64_t> restored;
  bool reject = false;

 private:
  bool fold() override {
    folds.push_back(bus().simulator().now());
    return folds.size() <= busy.size() && busy[folds.size() - 1];
  }
  void restore(const ser::StateBuffer& state) override {
    if (reject) throw BusError("unusable buffer");
    restored = state.frames().at(0).values.at(0).as_int();
  }
};

/// A two-machine bus whose clock can be run to a point between ticks.
struct Host {
  Host() : bus(sim) {
    sim.add_machine("vax", net::arch_vax());
    sim.add_machine("sparc", net::arch_sparc());
  }
  /// Runs every event scheduled up to `t` (exclusive of later ones).
  void run_until(net::SimTime t) {
    bool reached = false;
    sim.schedule_at(t, [&reached] { reached = true; });
    while (!reached && sim.step()) {
    }
  }
  net::Simulator sim;
  Bus bus;
};

TEST(NativeModule, NoTickFiresAfterStopRetireCrashOrDestruction) {
  const std::vector<std::pair<const char*, std::function<void(
                                               std::unique_ptr<Ticker>&)>>>
      endings = {
          {"stop", [](auto& t) { t->stop(); }},
          {"retire", [](auto& t) { t->retire(); }},
          {"crash", [](auto& t) { EXPECT_TRUE(t->crash("test")); }},
          // A tick is pending at destruction: it must fire into nothing
          // (AddressSanitizer reports a callback into the freed module).
          {"destruction", [](auto& t) { t.reset(); }},
      };
  for (const auto& [how, end] : endings) {
    Host h;
    auto t = std::make_unique<Ticker>(h.bus, "t", 10, 10);
    h.run_until(25);
    ASSERT_EQ(t->folds, (std::vector<net::SimTime>{10, 20})) << how;
    end(t);
    h.run_until(200);
    if (t != nullptr) {
      EXPECT_EQ(t->folds.size(), 2u) << how;
    }
    const bool kept = std::string_view(how) == "stop" ||
                      std::string_view(how) == "crash";
    EXPECT_EQ(h.bus.has_module("t"), kept) << how;
  }
}

TEST(NativeModule, CrashKeepsTheRegistrationAndWithdrawsTheQuery) {
  Host h;
  Ticker t(h.bus, "t", 10, 10);
  Client query(h.bus, "t");
  EXPECT_EQ(query.mh_top("json"), "t:json");
  EXPECT_EQ(h.bus.native("t"), &t);
  EXPECT_TRUE(t.crash("host lost"));
  EXPECT_FALSE(t.crash("again"));
  EXPECT_TRUE(t.crashed());
  EXPECT_TRUE(h.bus.has_module("t"));
  EXPECT_EQ(query.mh_top("json"), "{}");
}

TEST(NativeModule, IdleTicksBackOffToTheCapAndWorkSnapsBack) {
  Host h;
  Ticker t(h.bus, "t", 10, 80);
  t.busy = {false, false, false, false, false, true};
  h.run_until(345);
  // Idle delays 20, 40, 80, 80; the busy fold at 310 snaps back to 10.
  EXPECT_EQ(t.folds,
            (std::vector<net::SimTime>{10, 30, 70, 150, 230, 310, 320, 340}));

  Host fixed;
  Ticker f(fixed.bus, "f", 10, 10);  // the cap equals the tick
  fixed.run_until(45);
  EXPECT_EQ(f.folds, (std::vector<net::SimTime>{10, 20, 30, 40}));
}

TEST(NativeModule, CloneFoldsOnlyFromTheTickAfterItsInstall) {
  Host h;
  Ticker original(h.bus, "original", 10, 10);
  Ticker clone(h.bus, "clone", 10, 80, "clone");
  Client query(h.bus, "original");
  h.run_until(55);
  EXPECT_TRUE(clone.folds.empty());
  EXPECT_FALSE(clone.active());
  EXPECT_EQ(query.mh_top("json"), "original:json");

  // Lands at 65 (local latency 10). A waiting clone keeps the base cadence,
  // so the tick at 70 installs it; the first fold comes at 80.
  h.bus.deliver_state("vax", "clone", original.encode_state().encode());
  h.run_until(75);
  EXPECT_EQ(clone.restored, 42);
  EXPECT_TRUE(clone.active());
  EXPECT_TRUE(clone.folds.empty());
  EXPECT_EQ(query.mh_top("json"), "clone:json");
  h.run_until(85);
  EXPECT_EQ(clone.folds, (std::vector<net::SimTime>{80}));

  // Retiring the predecessor never tears down its successor's answer.
  original.retire();
  EXPECT_EQ(query.mh_top("json"), "clone:json");
}

TEST(NativeModule, CloneThatRejectsItsBufferFaultsAndStopsTicking) {
  Host h;
  Ticker original(h.bus, "original", 10, 10);
  Ticker clone(h.bus, "clone", 10, 80, "clone");
  clone.reject = true;
  h.bus.deliver_state("vax", "clone", original.encode_state().encode());
  original.stop();
  h.run_until(500);
  EXPECT_TRUE(clone.faulted());
  EXPECT_EQ(clone.fault_message(), "unusable buffer");
  EXPECT_FALSE(clone.active());
  EXPECT_FALSE(clone.restored.has_value());
  EXPECT_TRUE(clone.folds.empty());
  EXPECT_TRUE(h.sim.idle());  // no tick left pending
  EXPECT_TRUE(h.bus.has_module("clone"));
  EXPECT_FALSE(original.faulted());
}

// A zero tick would reschedule every tick at the same virtual microsecond.
TEST(NativeModule, ZeroTickIsRejectedBeforeRegistration) {
  Host h;
  EXPECT_THROW((void)Ticker(h.bus, "t", 0, 80), BusError);
  EXPECT_FALSE(h.bus.has_module("t"));
  EXPECT_TRUE(h.sim.idle());
}

TEST(NativeModule, SignalledModuleDivulgesOnceAndNeverTicksAgain) {
  Host h;
  Ticker t(h.bus, "t", 10, 10);
  h.run_until(25);
  h.bus.signal_reconfig("t");  // lands at 35
  h.run_until(500);
  EXPECT_EQ(t.folds, (std::vector<net::SimTime>{10, 20, 30}));
  EXPECT_EQ(t.encodes, 1);
  EXPECT_TRUE(t.passivated());
  ASSERT_TRUE(h.bus.has_divulged_state("t"));
  EXPECT_EQ(ser::StateBuffer::decode(h.bus.take_divulged_state("t")),
            t.encode_state());
}

}  // namespace
}  // namespace surgeon::bus
