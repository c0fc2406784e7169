// Deterministic discrete-event simulator: machines, virtual clock, events.
//
// The bus schedules message deliveries and timers here; modules' sleep()
// calls become timer events. Time is virtual (microseconds), so integration
// tests of multi-machine reconfigurations run in milliseconds of wall time
// and are bit-for-bit reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
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
  /// A pending event's callback: any void() callable, move-only ones
  /// included. A callable that fits kInlineBytes and moves without throwing
  /// is stored inline, with no allocation; a larger one (a state transfer
  /// carrying its bytes, say) is stored on the heap.
  class Callback {
   public:
    /// Holds every per-message and per-tick callback the platform
    /// schedules; the largest is the runtime's sleep wake-up,
    /// [this, std::string].
    static constexpr std::size_t kInlineBytes = 40;

    Callback() noexcept = default;
    template <class F>
      requires(!std::is_same_v<std::remove_cvref_t<F>, Callback> &&
               std::is_invocable_v<std::decay_t<F>&>)
    Callback(F&& fn) : buf_{} {  // implicit: call sites pass lambdas as is
      using Fn = std::decay_t<F>;
      if constexpr (kInline<Fn>) {
        ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      } else {
        ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      }
      ops_ = &kOps<Fn>;
    }
    Callback(Callback&& other) noexcept { take(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        reset();
        take(other);
      }
      return *this;
    }
    ~Callback() { reset(); }

    void operator()() { ops_->invoke(buf_); }

   private:
    struct Ops {
      void (*invoke)(void* buf);
      /// Moves the callable from one buffer into another and destroys the
      /// source; null when copying the buffer's bytes does that.
      void (*relocate)(void* from, void* to) noexcept;
      /// Null when the buffer holds nothing to destroy.
      void (*destroy)(void* buf) noexcept;
    };

    template <class Fn>
    static constexpr bool kInline =
        sizeof(Fn) <= kInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    template <class Fn>
    static Fn& inline_fn(void* buf) noexcept {
      return *std::launder(static_cast<Fn*>(buf));
    }
    template <class Fn>
    static Fn& heap_fn(void* buf) noexcept {
      return *inline_fn<Fn*>(buf);
    }
    template <class Fn>
    static void invoke_inline(void* buf) { inline_fn<Fn>(buf)(); }
    template <class Fn>
    static void invoke_heap(void* buf) { heap_fn<Fn>(buf)(); }
    template <class Fn>
    static void relocate_inline(void* from, void* to) noexcept {
      ::new (to) Fn(std::move(inline_fn<Fn>(from)));
      inline_fn<Fn>(from).~Fn();
    }
    template <class Fn>
    static void destroy_inline(void* buf) noexcept { inline_fn<Fn>(buf).~Fn(); }
    template <class Fn>
    static void destroy_heap(void* buf) noexcept { delete &heap_fn<Fn>(buf); }

    template <class Fn>
    static constexpr Ops make_ops() {
      if constexpr (!kInline<Fn>) {
        return {&invoke_heap<Fn>, nullptr, &destroy_heap<Fn>};
      } else if constexpr (std::is_trivially_copyable_v<Fn>) {
        return {&invoke_inline<Fn>, nullptr, nullptr};
      } else {
        return {&invoke_inline<Fn>, &relocate_inline<Fn>,
                &destroy_inline<Fn>};
      }
    }
    template <class Fn>
    static constexpr Ops kOps = make_ops<Fn>();

    void take(Callback& other) noexcept {
      ops_ = std::exchange(other.ops_, nullptr);
      if (ops_ == nullptr) return;
      if (ops_->relocate != nullptr) {
        ops_->relocate(other.buf_, buf_);
      } else {
        std::memcpy(buf_, other.buf_, kInlineBytes);
      }
    }
    void reset() noexcept {
      if (ops_ != nullptr && ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

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

  /// Schedules `fn` at absolute virtual time `t` (clamped to now). Events
  /// run in (time, scheduling order): equal times run FIFO.
  void schedule_at(SimTime t, Callback fn);
  void schedule_after(SimTime dt, Callback fn) {
    schedule_at(now_us_ + dt, std::move(fn));
  }

  /// Runs the earliest pending event. Returns false when none remain.
  bool step();
  /// Runs events until the queue is empty or `max_events` is hit.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

 private:
  /// A pending event's place in the queue; its callback waits in
  /// slots_[slot].
  struct Key {
    SimTime time;
    std::uint64_t seq;  // tie-break so equal-time events run FIFO
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  SimTime now_us_ = 0;
  std::uint64_t next_seq_ = 0;
  /// Binary heap under Later (std::push_heap/pop_heap): the earliest event
  /// sits at the front. Sifts move trivially copyable keys; a callback stays
  /// in its slot until step() moves it out to run it.
  std::vector<Key> queue_;
  /// The slot table: one callback per pending event, empty when free.
  std::vector<Callback> slots_;
  /// Free slots of slots_, reused last-freed first. Its capacity never
  /// falls below slots_.size(), so freeing a slot cannot allocate.
  std::vector<std::uint32_t> free_;
  std::map<std::string, Machine> machines_;
  std::map<std::string, DurableStore> stores_;
  LatencyModel latency_;
  support::SplitMix64 rng_;
};

}  // namespace surgeon::net
