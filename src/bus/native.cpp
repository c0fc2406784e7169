#include "bus/native.hpp"

#include <algorithm>

#include "support/diag.hpp"

namespace surgeon::bus {

NativeModule::NativeModule(Bus& bus, ModuleInfo info, net::SimTime tick_us,
                           net::SimTime max_tick_us, std::string query)
    : bus_(&bus),
      client_(bus, info.name),
      machine_(info.machine),
      query_(std::move(query)),
      tick_us_(tick_us),
      max_tick_us_(std::max(tick_us, max_tick_us)),
      delay_us_(tick_us) {
  if (tick_us == 0) {
    throw support::BusError(info.name + ": native module tick must be nonzero");
  }
  const bool fresh = info.status == "new";
  bus.add_module(std::move(info), this);
  if (fresh) activate();
  ticker_.start(bus.simulator(), tick_us, [this] { return tick(); });
}

NativeModule::~NativeModule() { retire(); }

void NativeModule::stop() noexcept { ticker_.stop(); }

void NativeModule::retire() {
  stop();
  bus_->clear_query_server(query_, this);
  if (bus_->native(module_name()) == this) bus_->remove_module(module_name());
}

bool NativeModule::crash(const std::string& detail) {
  if (crashed_) return false;
  crashed_ = true;
  stop();
  bus_->clear_query_server(query_, this);
  bus_->note_module_crashed(module_name(), detail);
  return true;
}

void NativeModule::install_state(const ser::StateBuffer& state) {
  restore(state);
  activate();
}

void NativeModule::activate() {
  active_ = true;
  if (!query_.empty()) bus_->set_query_server(query_, this);
}

std::optional<net::SimTime> NativeModule::tick() {
  if (!active_) {
    // A clone folds nothing before its buffer arrives, and its first fold
    // comes on the tick after the install: a query right after the install
    // reads exactly the divulged state. A buffer it rejects faults it, as a
    // VM clone faults in its decode; the engine reads the reason.
    if (auto state = client_.decode_state()) {
      try {
        install_state(*state);
      } catch (const support::Error& e) {
        faulted_ = true;
        fault_message_ = e.what();
        stop();
        return std::nullopt;
      }
    }
    delay_us_ = tick_us_;
  } else if (client_.take_pending_signal()) {
    (void)client_.encode_state(encode_state());
    passivated_ = true;
    return std::nullopt;
  } else {
    // A fold that stops the module ends the chain; the delay is unused.
    const bool busy = fold();
    delay_us_ = busy ? tick_us_ : std::min(delay_us_ * 2, max_tick_us_);
  }
  return delay_us_;
}

const std::vector<ser::Value>& state_fields(const ser::StateFrame& frame,
                                            std::size_t arity,
                                            const char* what) {
  if (frame.values.size() < arity) {
    throw support::BusError(std::string(what) + ": short frame");
  }
  return frame.values;
}

std::uint64_t state_count(const ser::Value& value, const char* what) {
  const std::int64_t n = value.as_int();
  if (n < 0) throw support::BusError(std::string(what) + ": negative count");
  return static_cast<std::uint64_t>(n);
}

}  // namespace surgeon::bus
