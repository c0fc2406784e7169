// Periodic work on the virtual clock, held by its owner.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "net/sim.hpp"

namespace surgeon::net {

/// A self-rescheduling chain of simulator events. Each run calls the
/// callable, which returns the delay to the next run, or std::nullopt to
/// end the chain. The next run is scheduled only after the callable
/// returns, so the chain takes the (time, seq) places of a hand-rolled one
/// that reschedules at the end of its callback.
///
/// After stop(), a restart or the ticker's destruction, a run already
/// scheduled still fires, as a no-op that touches nothing the owner owned;
/// the callable may stop, restart or destroy its own ticker. Once the
/// simulator's queue has grown, a run allocates nothing.
class Ticker {
 public:
  /// One run's work: the delay to the next run, or std::nullopt to stop.
  using Run = std::function<std::optional<SimTime>()>;

  Ticker() = default;
  ~Ticker() { stop(); }
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Starts the chain, its first run `first_delay_us` from now; a running
  /// chain is stopped first.
  void start(Simulator& sim, SimTime first_delay_us, Run run) {
    stop();
    chain_ = std::make_shared<Chain>(Chain{&sim, std::move(run)});
    schedule(chain_, first_delay_us);
  }
  /// Ends the chain; its pending run becomes a no-op.
  void stop() noexcept {
    if (chain_ != nullptr) chain_->running = false;
    chain_.reset();
  }
  /// Started, and neither stopped nor ended by its callable.
  [[nodiscard]] bool running() const noexcept {
    return chain_ != nullptr && chain_->running;
  }

 private:
  /// Held by the ticker and by its pending run, so either may go first.
  struct Chain {
    Simulator* sim;
    Run run;
    bool running = true;
  };

  static void schedule(std::shared_ptr<Chain> chain, SimTime delay_us) {
    Simulator& sim = *chain->sim;
    sim.schedule_after(delay_us, [chain = std::move(chain)]() mutable {
      // The event holds the chain while the callable runs, so the callable
      // may drop the ticker's hold (stop, restart, destruction) under it.
      if (!chain->running) return;
      const std::optional<SimTime> next = chain->run();
      if (!next.has_value()) {
        chain->running = false;
      } else if (chain->running) {
        schedule(std::move(chain), *next);
      }
    });
  }

  std::shared_ptr<Chain> chain_;
};

}  // namespace surgeon::net
