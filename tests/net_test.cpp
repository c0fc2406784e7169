#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "net/sim.hpp"
#include "net/ticker.hpp"
#include "support/diag.hpp"

namespace surgeon::net {
namespace {

using support::BusError;

TEST(Sim, MachinesRegister) {
  Simulator sim;
  sim.add_machine("a", arch_vax());
  sim.add_machine("b", arch_sparc());
  EXPECT_TRUE(sim.has_machine("a"));
  EXPECT_FALSE(sim.has_machine("c"));
  EXPECT_EQ(sim.machine("b").arch.name, "sparc");
  EXPECT_EQ(sim.machine_names().size(), 2u);
  EXPECT_THROW(sim.add_machine("a", arch_vax()), BusError);
  EXPECT_THROW((void)sim.machine("zz"), BusError);
}

TEST(Sim, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(30, [&] { order.push_back(3); });
  sim.schedule_after(10, [&] { order.push_back(1); });
  sim.schedule_after(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_TRUE(sim.idle());
}

TEST(Sim, EqualTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Sim, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(1, [&] {
    ++fired;
    sim.schedule_after(1, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 2u);
}

TEST(Sim, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_after(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Sim, RunRespectsMaxEvents) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) sim.schedule_after(i, [&] { ++fired; });
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(Sim, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule_after(100, [] {});
  sim.run();
  bool ran = false;
  sim.schedule_at(5, [&] { ran = true; });  // in the past
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 100u);
}

/// A move-only capture that counts, per event id, how often the callback
/// holding it was destroyed; a moved-from token counts nothing.
class Token {
 public:
  Token(std::vector<int>* destroyed, std::size_t id)
      : destroyed_(destroyed), id_(id) {}
  Token(Token&& other) noexcept
      : destroyed_(std::exchange(other.destroyed_, nullptr)), id_(other.id_) {}
  Token& operator=(Token&&) = delete;
  ~Token() {
    if (destroyed_ != nullptr) ++(*destroyed_)[id_];
  }
  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  std::vector<int>* destroyed_;
  std::size_t id_;
};

/// Schedules events at random, often equal, times -- some in the past --
/// from outside and from inside running events, recording for each its
/// effective time and insertion index, the reference order.
struct QueueModel {
  QueueModel(std::uint64_t seed, std::vector<int>& destroyed)
      : rng(seed), destroyed(destroyed) {}

  void schedule(SimTime at) {
    const std::size_t id = destroyed.size();
    destroyed.push_back(0);
    expected.emplace_back(std::max(at, sim.now()), id);
    Token token(&destroyed, id);
    if (rng() % 3 == 0) {
      // Above the inline size: this callback is stored on the heap.
      std::array<std::uint64_t, 8> pad{};
      pad[7] = id;
      static_assert(sizeof(pad) > Simulator::Callback::kInlineBytes);
      sim.schedule_at(at, [this, token = std::move(token), pad] {
        fire(token.id(), pad[7]);
      });
    } else {
      sim.schedule_at(at, [this, token = std::move(token)] {
        fire(token.id(), token.id());
      });
    }
  }
  [[nodiscard]] SimTime pick_time() {
    const SimTime now = sim.now();
    switch (rng() % 4) {
      case 0: return now;
      case 1: return now + rng() % 3;
      case 2: return now >= 2 ? now - 2 : 0;  // in the past: clamped
      default: return now + rng() % 40;
    }
  }
  void fire(std::size_t id, std::uint64_t carried) {
    EXPECT_EQ(carried, id);
    ran.push_back(id);
    ran_at.push_back(sim.now());
    // Now and then a burst, so the slot table grows under a running
    // callback.
    const int children = rng() % 50 == 0 ? 60 : static_cast<int>(rng() % 3);
    for (int i = 0; i < children && budget > 0; ++i, --budget) {
      schedule(pick_time());
    }
  }

  std::mt19937_64 rng;
  std::vector<int>& destroyed;  // per event id; outlives the simulator
  std::vector<std::pair<SimTime, std::size_t>> expected;  // (time, id)
  std::vector<std::size_t> ran;
  std::vector<SimTime> ran_at;
  int budget = 1'500;
  Simulator sim;
};

// The event queue against its reference: events run in (time, insertion
// order), each at its own time, and every callback -- inline or on the
// heap, move-only here -- is destroyed exactly once, after it runs or with
// the simulator.
TEST(Sim, RandomSchedulesRunInTimeThenInsertionOrder) {
  for (std::uint64_t seed = 1; seed <= 20 && !HasFailure(); ++seed) {
    std::vector<int> destroyed;
    {
      QueueModel m(seed, destroyed);
      for (int i = 0; i < 300; ++i) m.schedule(m.rng() % 25);
      (void)m.sim.run(1'000);  // leaves events pending
      std::vector<std::pair<SimTime, std::size_t>> order = m.expected;
      std::sort(order.begin(), order.end());
      ASSERT_LT(m.ran.size(), order.size()) << "seed " << seed;
      EXPECT_EQ(m.sim.pending_events(), order.size() - m.ran.size());
      for (std::size_t i = 0; i < m.ran.size(); ++i) {
        ASSERT_EQ(m.ran[i], order[i].second) << "seed " << seed << " #" << i;
        EXPECT_EQ(m.ran_at[i], order[i].first) << "seed " << seed;
        EXPECT_EQ(destroyed[m.ran[i]], 1) << "seed " << seed;
      }
      EXPECT_EQ(std::count(destroyed.begin(), destroyed.end(), 0),
                static_cast<std::ptrdiff_t>(m.sim.pending_events()));
    }  // the simulator takes its pending callbacks with it
    for (std::size_t id = 0; id < destroyed.size(); ++id) {
      EXPECT_EQ(destroyed[id], 1) << "seed " << seed << " event " << id;
    }
  }
}

/// Periodic chains and one-shot events driven by one seeded script, the
/// chains either net::Tickers or, as the reference, hand-rolled chains that
/// reschedule at the end of their callback behind an epoch guard. A chain's
/// run may end it, stop, destroy or restart itself or another chain, or
/// schedule a one-shot event that does the same later; delays are often
/// zero, and one-shots scheduled up front restart chains that died. Every
/// run and one-shot is logged in order.
class ChainWorld {
 public:
  static constexpr std::size_t kChains = 6;
  /// (time, chain or kOneShot, start id or one-shot id, run number)
  using Entry = std::tuple<SimTime, std::size_t, std::uint64_t, std::uint64_t>;
  static constexpr std::size_t kOneShot = kChains;

  ChainWorld(std::uint64_t seed, bool reference)
      : rng_(seed), reference_(reference) {
    for (std::size_t i = 0; i < kChains; ++i) start(i, rng_() % 5);
    for (std::uint64_t k = 0; k < 100; ++k) {
      sim.schedule_at(k * 5, [this, k] {
        const std::size_t i = k % kChains;
        log.emplace_back(sim.now(), kOneShot, 0, k);
        if (live_[i] == 0 && budget_ > 0) start(i, rng_() % 5);
      });
    }
  }

  std::vector<Entry> log;
  int stopped_inside = 0;     // a chain stopped or destroyed its own ticker
  int destroyed_pending = 0;  // a ticker destroyed with its run pending
  Simulator sim;

 private:
  void start(std::size_t i, SimTime first) {
    const std::uint64_t id = ++starts_;
    live_[i] = id;
    runs_[i] = 0;
    if (reference_) {
      schedule_reference(i, ++epochs_[i], id, first);
      return;
    }
    if (tickers_[i] == nullptr) tickers_[i] = std::make_unique<Ticker>();
    tickers_[i]->start(sim, first, [this, i, id] { return run(i, id); });
  }
  void schedule_reference(std::size_t i, std::uint64_t epoch, std::uint64_t id,
                          SimTime delay) {
    sim.schedule_after(delay, [this, i, epoch, id] {
      if (epochs_[i] != epoch) return;
      const std::optional<SimTime> next = run(i, id);
      if (next.has_value() && epochs_[i] == epoch) {
        schedule_reference(i, epoch, id, *next);
      }
    });
  }
  void stop(std::size_t i) {
    live_[i] = 0;
    if (reference_) {
      ++epochs_[i];
    } else if (tickers_[i] != nullptr) {
      tickers_[i]->stop();
    }
  }
  void destroy(std::size_t i) {
    live_[i] = 0;
    if (reference_) {
      ++epochs_[i];
    } else {
      tickers_[i].reset();
    }
  }
  /// Stops, destroys or restarts chain `i`.
  void act(std::size_t i) {
    switch (rng_() % 4) {
      case 0: stop(i); break;
      case 1:
        if (live_[i] != 0 && i != running_) ++destroyed_pending;
        destroy(i);
        break;
      default:
        if (budget_ > 0) start(i, rng_() % 5);
    }
  }
  std::optional<SimTime> run(std::size_t i, std::uint64_t id) {
    EXPECT_EQ(live_[i], id) << "chain " << i << " ran after its stop";
    log.emplace_back(sim.now(), i, id, ++runs_[i]);
    if (budget_ == 0) {
      live_[i] = 0;
      return std::nullopt;
    }
    --budget_;
    running_ = i;
    const auto roll = rng_() % 100;
    if (roll < 4) {
      live_[i] = 0;
      running_ = kChains;
      return std::nullopt;
    }
    if (roll < 10) {
      ++stopped_inside;
      (roll < 7 ? stop(i) : destroy(i));
    } else if (roll < 40) {
      act(rng_() % kChains);
    } else if (roll < 55) {
      const std::size_t target = rng_() % kChains;
      const std::uint64_t shot = ++shots_;
      sim.schedule_after(rng_() % 6, [this, target, shot] {
        log.emplace_back(sim.now(), kOneShot, shot, 0);
        if (budget_ > 0) act(target);
      });
    }
    running_ = kChains;
    return rng_() % 4;
  }

  std::mt19937_64 rng_;
  bool reference_;
  int budget_ = 400;
  std::uint64_t starts_ = 0;
  std::uint64_t shots_ = 0;
  std::size_t running_ = kChains;
  std::array<std::uint64_t, kChains> live_{};  // the running start's id
  std::array<std::uint64_t, kChains> runs_{};
  std::array<std::uint64_t, kChains> epochs_{};  // the reference's guard
  std::array<std::unique_ptr<Ticker>, kChains> tickers_;
};

// Tickers against hand-rolled chains: the same runs and one-shots at the
// same times in the same order, as many events in all (a stale run still
// fires, as a no-op), and no callable after its chain's stop.
TEST(Ticker, RandomChainsRunAsHandRolledChains) {
  int stopped_inside = 0;
  int destroyed_pending = 0;
  for (std::uint64_t seed = 1; seed <= 30 && !HasFailure(); ++seed) {
    ChainWorld tickers(seed, /*reference=*/false);
    ChainWorld reference(seed, /*reference=*/true);
    const std::size_t events = tickers.sim.run();
    EXPECT_EQ(events, reference.sim.run()) << "seed " << seed;
    EXPECT_EQ(tickers.log, reference.log) << "seed " << seed;
    EXPECT_GT(tickers.log.size(), 400u) << "seed " << seed;
    stopped_inside += tickers.stopped_inside;
    destroyed_pending += tickers.destroyed_pending;
  }
  EXPECT_GT(stopped_inside, 300);
  EXPECT_GT(destroyed_pending, 300);
}

TEST(Ticker, RunsUntilItsCallableStops) {
  Simulator sim;
  Ticker ticker;
  std::vector<SimTime> at;
  ticker.start(sim, 5, [&]() -> std::optional<SimTime> {
    at.push_back(sim.now());
    if (at.size() == 3) return std::nullopt;
    return at.size() * 10;
  });
  EXPECT_TRUE(ticker.running());
  (void)sim.run();
  EXPECT_EQ(at, (std::vector<SimTime>{5, 15, 35}));
  EXPECT_FALSE(ticker.running());
}

TEST(Sim, LatencyModelDistinguishesLocalAndRemote) {
  Simulator sim;
  sim.add_machine("a", arch_vax());
  sim.add_machine("b", arch_sparc());
  LatencyModel model;
  model.local_us = 3;
  model.remote_us = 500;
  sim.set_latency_model(model);
  EXPECT_EQ(sim.message_latency("a", "a"), 3u);
  EXPECT_EQ(sim.message_latency("a", "b"), 500u);
}

TEST(Sim, RemoteJitterBoundedAndDeterministic) {
  LatencyModel model;
  model.remote_us = 100;
  model.remote_jitter_us = 50;
  Simulator sim1(99), sim2(99);
  sim1.set_latency_model(model);
  sim2.set_latency_model(model);
  for (int i = 0; i < 100; ++i) {
    auto l1 = sim1.message_latency("a", "b");
    EXPECT_GE(l1, 100u);
    EXPECT_LE(l1, 150u);
    EXPECT_EQ(l1, sim2.message_latency("a", "b"));
  }
}

TEST(Sim, AdvanceTimeMovesClock) {
  Simulator sim;
  sim.advance_time(42);
  EXPECT_EQ(sim.now(), 42u);
  // An event scheduled before the advance still runs, at the later clock.
  bool ran = false;
  sim.schedule_at(10, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 42u);
}

TEST(Arch, ReferenceArchitecturesDiffer) {
  EXPECT_NE(arch_vax().byte_order, arch_sparc().byte_order);
  EXPECT_NE(arch_vax().slot_padding, arch_sparc().slot_padding);
}

TEST(DurableStore, LogsAppendInOrderAndTruncate) {
  DurableStore store;
  EXPECT_TRUE(store.log("wal").empty());
  store.append("wal", {1, 2});
  store.append("wal", {3});
  ASSERT_EQ(store.log("wal").size(), 2u);
  EXPECT_EQ(store.log("wal")[0], (DurableStore::Record{1, 2}));
  EXPECT_EQ(store.log("wal")[1], (DurableStore::Record{3}));
  EXPECT_EQ(store.appends(), 2u);
  EXPECT_EQ(store.bytes_written(), 3u);
  store.truncate("wal");
  EXPECT_TRUE(store.log("wal").empty());
}

TEST(DurableStore, KeyValueAreaWithPrefixScan) {
  DurableStore store;
  EXPECT_EQ(store.get("ckpt/server"), nullptr);
  store.put("ckpt/server", {9});
  store.put("ckpt/filter", {8});
  store.put("other", {7});
  ASSERT_NE(store.get("ckpt/server"), nullptr);
  EXPECT_EQ(*store.get("ckpt/server"), (DurableStore::Record{9}));
  std::vector<std::string> keys = store.keys_with_prefix("ckpt/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "ckpt/filter");
  EXPECT_EQ(keys[1], "ckpt/server");
  EXPECT_TRUE(store.erase("ckpt/server"));
  EXPECT_FALSE(store.erase("ckpt/server"));
  EXPECT_EQ(store.get("ckpt/server"), nullptr);
  EXPECT_EQ(store.puts(), 3u);
}

TEST(DurableStore, BelongsToTheMachineNotTheProcess) {
  // Each machine has one store; it survives anything short of losing the
  // host, and unknown machines have no disk to write to.
  Simulator sim;
  sim.add_machine("vax", arch_vax());
  sim.add_machine("sparc", arch_sparc());
  sim.durable_store("vax").put("k", {1});
  EXPECT_EQ(sim.durable_store("sparc").get("k"), nullptr);
  ASSERT_NE(sim.durable_store("vax").get("k"), nullptr);
  EXPECT_THROW((void)sim.durable_store("atlantis"), BusError);
}

}  // namespace
}  // namespace surgeon::net
