// One lifecycle for the native (C++) bus modules: profile::Reporter and
// Collector, slo::Probe and Monitor, replicate::KvRouter and KvClient.
//
// The paper's preparation step inserts the same participation into every
// module (Figure 4); the transformer does it for MiniC modules and this base
// does it for native ones. A subclass supplies its fold, the work of one
// tick, and, when it has state to move, encode_state/restore. The base owns
// the rest:
//   - registration, which points back at the module, so the runtime's crash
//     injector, the reconfiguration engine and the query slot reach it;
//   - the virtual-clock tick chain: fold first, then the next tick, with the
//     delay doubling after each idle fold up to max_tick_us and snapping
//     back to tick_us after a productive one;
//   - the clone discipline: a "clone" keeps the base cadence and folds
//     nothing until Client::decode_state() yields its buffer, and folds
//     first on the tick after installing it; a clone that rejects the
//     buffer faults: it records the reason and never ticks again;
//   - the handshake: once signalled, the module divulges encode_state()
//     exactly once, before folding (what is still queued belongs to the
//     successor), and never ticks again;
//   - stop, retire, crash and destruction: the chain runs on a net::Ticker,
//     so after each a tick already scheduled fires as a no-op.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "bus/client.hpp"
#include "net/ticker.hpp"
#include "serialize/state.hpp"

namespace surgeon::bus {

class NativeModule {
 public:
  NativeModule(const NativeModule&) = delete;
  NativeModule& operator=(const NativeModule&) = delete;
  /// Retires the module.
  virtual ~NativeModule();

  [[nodiscard]] const std::string& module_name() const noexcept {
    return client_.module_name();
  }
  [[nodiscard]] const std::string& machine() const noexcept {
    return machine_;
  }
  /// True from the start for a "new" module; for a "clone", once its state
  /// buffer is installed.
  [[nodiscard]] bool active() const noexcept { return active_; }
  /// Signalled and divulged; no longer ticking (awaiting retirement).
  [[nodiscard]] bool passivated() const noexcept { return passivated_; }
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  /// A clone that rejected its state buffer; it no longer ticks.
  [[nodiscard]] bool faulted() const noexcept { return faulted_; }
  /// Why it rejected the buffer; empty unless faulted().
  [[nodiscard]] const std::string& fault_message() const noexcept {
    return fault_message_;
  }

  /// Stops the tick chain; the module stays registered (its in-flight
  /// traffic still needs its endpoints).
  virtual void stop() noexcept;
  /// Stops the module, withdraws its query answer and removes it from the
  /// bus (mh_chg_obj "del").
  void retire();
  /// The module dies with its host: it stops ticking and answering its
  /// query but stays registered, a corpse for the reconfiguration engine to
  /// retire, as a crashed VM process does. Recorded through
  /// Bus::note_module_crashed. False when it had already crashed.
  bool crash(const std::string& detail);

  /// What a reconfiguration signal makes the module divulge (mh_encode);
  /// empty for a module with no state to move.
  [[nodiscard]] virtual ser::StateBuffer encode_state() const { return {}; }
  /// Installs a divulged state (mh_decode) and activates the module. Throws
  /// BusError or VmError for a buffer the module cannot use.
  void install_state(const ser::StateBuffer& state);
  /// Answers the query this module serves.
  [[nodiscard]] virtual std::string answer(const std::string&) const {
    return {};
  }

 protected:
  /// Registers `info` and schedules the first tick `tick_us` from now. A
  /// non-empty `query` is the bus query the module answers while active.
  /// Throws BusError, before registering, for a zero `tick_us` (every tick
  /// would reschedule at the same virtual microsecond).
  NativeModule(Bus& bus, ModuleInfo info, net::SimTime tick_us,
               net::SimTime max_tick_us, std::string query = {});

  /// One tick's work; false when it found none (the module is idle).
  virtual bool fold() = 0;
  /// Reads a divulged state into the module (install_state's first half).
  virtual void restore(const ser::StateBuffer&) {}

  [[nodiscard]] Bus& bus() const noexcept { return *bus_; }
  [[nodiscard]] Client& client() noexcept { return client_; }

 private:
  void activate();
  /// One run of the tick chain: the delay to the next, or none once the
  /// module passivated or faulted.
  std::optional<net::SimTime> tick();

  Bus* bus_;
  Client client_;
  std::string machine_;
  std::string query_;
  net::SimTime tick_us_;
  net::SimTime max_tick_us_;
  net::SimTime delay_us_;
  bool active_ = false;
  bool passivated_ = false;
  bool crashed_ = false;
  bool faulted_ = false;
  std::string fault_message_;
  net::Ticker ticker_;
};

// Checked reads for restore(). A divulged buffer crosses the network, so a
// malformed one is rejected with a BusError naming `what`.

/// The values of `frame`, which must number at least `arity`.
[[nodiscard]] const std::vector<ser::Value>& state_fields(
    const ser::StateFrame& frame, std::size_t arity, const char* what);
/// `value` as a time or a count: an integer that is not negative.
[[nodiscard]] std::uint64_t state_count(const ser::Value& value,
                                        const char* what);

}  // namespace surgeon::bus
