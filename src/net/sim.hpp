// Deterministic discrete-event simulator: machines, virtual clock, events.
//
// The bus schedules message deliveries and timers here; modules' sleep()
// calls become timer events. Time is virtual (microseconds), so integration
// tests of multi-machine reconfigurations run in milliseconds of wall time
// and are bit-for-bit reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/arch.hpp"
#include "net/durable.hpp"
#include "support/rng.hpp"

namespace surgeon::net {

using SimTime = std::uint64_t;  // microseconds of virtual time

struct Machine {
  std::string name;
  Arch arch;
};

/// Identity of a directed network link, the unit of event independence for
/// systematic fault-schedule exploration (surgeon::chaos). Two wire events
/// are *independent* -- injecting faults into them in either order yields
/// the same execution -- when they ride different directed links, or the
/// same link at different per-link copy indices: the simulator delivers
/// each link's copies in a deterministic order, and a fault decision for
/// copy k neither observes nor perturbs the decision for copy j != k.
/// Dependent (non-commuting) choices are only ever *alternatives at the
/// same point* (drop copy k vs. deliver copy k), which an explorer
/// branches on rather than reorders. The canonical ordering below lets an
/// explorer enumerate unordered fault *sets* instead of ordered sequences,
/// pruning every schedule that differs only by a reordering of
/// independent events.
struct LinkKey {
  std::string src;
  std::string dst;

  [[nodiscard]] bool loopback() const noexcept { return src == dst; }
  [[nodiscard]] std::string describe() const { return src + "->" + dst; }
  auto operator<=>(const LinkKey&) const = default;
};

/// A point in the space of wire events: the `index`-th copy put on `link`
/// during a deterministic run (0-based, counted per link). The total order
/// (link, index) is the canonical order used to enumerate commutative
/// fault sets exactly once.
struct WirePoint {
  LinkKey link;
  std::uint32_t index = 0;

  [[nodiscard]] std::string describe() const {
    return link.describe() + "#" + std::to_string(index);
  }
  auto operator<=>(const WirePoint&) const = default;
};

/// True when faulting `a` and `b` commutes (see LinkKey): distinct wire
/// points are always independent; only the same point conflicts with
/// itself.
[[nodiscard]] inline bool independent(const WirePoint& a,
                                      const WirePoint& b) noexcept {
  return a != b;
}

/// Network cost model. Delivery latency between two machines; same-machine
/// messages pay only the local cost.
struct LatencyModel {
  SimTime local_us = 10;
  SimTime remote_us = 2000;
  /// Max uniform jitter added to remote deliveries (0 = none).
  SimTime remote_jitter_us = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}

  /// Registers a machine. Throws BusError if the name is taken.
  void add_machine(const std::string& name, Arch arch);
  [[nodiscard]] bool has_machine(const std::string& name) const {
    return machines_.contains(name);
  }
  /// Throws BusError for an unknown machine.
  [[nodiscard]] const Machine& machine(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> machine_names() const;

  /// The machine's durable storage (disk): survives module and coordinator
  /// process crashes, which lose only in-memory state. Throws BusError for
  /// an unknown machine.
  [[nodiscard]] DurableStore& durable_store(const std::string& machine);
  [[nodiscard]] const DurableStore& durable_store(
      const std::string& machine) const;

  void set_latency_model(LatencyModel model) noexcept { latency_ = model; }
  [[nodiscard]] const LatencyModel& latency_model() const noexcept {
    return latency_;
  }
  /// Latency charged for a message from machine `a` to machine `b`.
  [[nodiscard]] SimTime message_latency(const std::string& a,
                                        const std::string& b);
  /// Same cost model for a link whose same-machine test is pre-resolved
  /// (the bus's compiled adjacency stores it), skipping the string compare.
  /// Consumes the jitter RNG exactly as message_latency does.
  [[nodiscard]] SimTime link_latency(bool same_machine) {
    if (same_machine) return latency_.local_us;
    SimTime jitter = latency_.remote_jitter_us == 0
                         ? 0
                         : rng_.next_below(latency_.remote_jitter_us + 1);
    return latency_.remote_us + jitter;
  }

  [[nodiscard]] SimTime now() const noexcept { return now_us_; }

  /// Advances the clock directly. Used by the scheduler to charge virtual
  /// time for computation (per-instruction cost model); pending events whose
  /// time has passed will run at the advanced clock.
  void advance_time(SimTime dt) noexcept { now_us_ += dt; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now).
  void schedule_at(SimTime t, std::function<void()> fn);
  void schedule_after(SimTime dt, std::function<void()> fn) {
    schedule_at(now_us_ + dt, std::move(fn));
  }

  /// Runs the earliest pending event. Returns false when none remain.
  bool step();
  /// Runs events until the queue is empty or `max_events` is hit.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);
  [[nodiscard]] bool idle() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return events_.size();
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;  // tie-break so equal-time events run FIFO
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  SimTime now_us_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Binary heap under Later (std::push_heap/pop_heap): the earliest event
  /// sits at the front, and step() moves it out instead of copying it.
  std::vector<Event> events_;
  std::map<std::string, Machine> machines_;
  std::map<std::string, DurableStore> stores_;
  LatencyModel latency_;
  support::SplitMix64 rng_;
};

}  // namespace surgeon::net
