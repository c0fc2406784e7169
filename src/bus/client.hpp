// Per-module facade over the bus: the mh_* communication primitives.
//
// A module (whether a MiniC program running on the VM or a native C++
// process in the tests) never touches the Bus directly; it holds a Client
// bound to its module name, mirroring how a POLYLITH module links against
// the bus library. The method names follow the paper's primitives:
//
//   mh_write / mh_read / mh_query_ifmsgs   -- messaging (Figure 3)
//   mh_encode / mh_decode                  -- state divulge/install (Fig. 4)
//   mh_getstatus                           -- "clone" vs "new" (Figure 4)
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bus/bus.hpp"
#include "serialize/state.hpp"

namespace surgeon::bus {

class Client {
 public:
  Client(Bus& bus, std::string module)
      : bus_(&bus), module_(std::move(module)) {}

  [[nodiscard]] const std::string& module_name() const noexcept {
    return module_;
  }
  /// STATUS attribute of this instance: "new" or "clone" (mh_getstatus).
  [[nodiscard]] const std::string& status() const {
    return bus_->module_info(module_).status;
  }
  [[nodiscard]] const std::string& machine() const {
    return bus_->module_info(module_).machine;
  }

  /// mh_write: asynchronous send on a named interface. Goes through the
  /// cached endpoint handle, so steady-state writes resolve no strings.
  void write(const std::string& iface, std::vector<ser::Value> values) {
    bus_->send(port(iface), std::move(values));
  }
  /// mh_query_ifmsgs: true if a message is queued on the interface.
  [[nodiscard]] bool query_ifmsgs(const std::string& iface) {
    return bus_->has_message(port(iface));
  }
  /// Non-blocking mh_read; the VM turns nullopt into a blocked process.
  [[nodiscard]] std::optional<Message> try_read(const std::string& iface) {
    return bus_->receive(port(iface));
  }

  /// Pending reconfiguration signal, consumed at a statement boundary.
  /// The VM polls this on every kStmt it retires, so the flag's address is
  /// cached like the endpoint handles: steady-state polls are one
  /// generation compare plus a pointer read, no string lookup.
  [[nodiscard]] bool take_pending_signal() {
    if (signal_slot_.flag == nullptr ||
        signal_slot_.generation != bus_->module_topology_generation()) {
      signal_slot_ = bus_->resolve_signal_slot(module_);
    }
    const bool was = *signal_slot_.flag;
    *signal_slot_.flag = false;
    return was;
  }

  /// mh_encode: serialize the captured state and hand it to the bus.
  /// Returns the encoded size in bytes (what the bus will move).
  std::size_t encode_state(const ser::StateBuffer& state) {
    std::vector<std::uint8_t> bytes = state.encode();
    std::size_t size = bytes.size();
    bus_->post_divulged_state(module_, std::move(bytes));
    return size;
  }
  /// mh_decode: nullopt until the state buffer has arrived.
  [[nodiscard]] std::optional<ser::StateBuffer> decode_state();

  /// mh_stats: export the platform metrics attached to the bus. `format`
  /// is "prometheus" (text exposition) or "json" (includes the
  /// reconfiguration span timeline). Returns an empty export when no
  /// registry is attached; throws BusError on an unknown format.
  [[nodiscard]] std::string mh_stats(
      const std::string& format = "prometheus") const;

  /// mh_top: query the cluster telemetry aggregator (whichever collector
  /// currently owns the windows — the handler survives the collector's own
  /// replacement). `format` is "table" (fixed-width, rate-sorted) or
  /// "json". Returns an empty export ("" / "{}") when no collector is
  /// attached; throws BusError on an unknown format.
  [[nodiscard]] std::string mh_top(const std::string& format = "table") const;

  /// mh_slo: query the streaming SLO engine (whichever slo::Monitor
  /// currently owns the objective windows — like mh_top, the handler
  /// survives the monitor's own replacement). `format` is "text" or
  /// "json". Returns an empty export ("" / "{}") when no monitor is
  /// attached; throws BusError on an unknown format.
  [[nodiscard]] std::string mh_slo(const std::string& format = "text") const;

  /// mh_trace: export this machine's causal flight-recorder journal.
  /// `format` is "json" (array of events with ids, causal parents, Lamport
  /// clocks) or "text" (one timeline line per event). With `drain` the
  /// journal is emptied as it is read, so periodic collectors see each
  /// event once. Returns an empty export when no recorder is attached;
  /// throws BusError on an unknown format.
  [[nodiscard]] std::string mh_trace(const std::string& format = "json",
                                     bool drain = false);

  [[nodiscard]] Bus& bus() noexcept { return *bus_; }

 private:
  struct Port {
    std::string iface;
    EndpointRef ref = kNullEndpointRef;
  };

  /// Cached (iface -> endpoint handle) resolution, mirroring how the bus
  /// pre-resolves trc::Recorder::Site slots. The scan is linear in the
  /// interfaces used so far: a short string compare or two for a MiniC
  /// module, but quadratic for a native module polling dozens of them per
  /// tick, which should hold its own EndpointRefs (replicate::KvRouter
  /// does, for its one interface per group). A stale handle (the name was
  /// re-registered, e.g. clone promotion reusing the module name)
  /// re-resolves through the string shim.
  [[nodiscard]] EndpointRef port(const std::string& iface) {
    for (Port& p : ports_) {
      if (p.iface == iface) {
        if (!bus_->endpoint_current(p.ref)) {
          p.ref = bus_->resolve_endpoint(module_, iface);
        }
        return p.ref;
      }
    }
    EndpointRef ref = bus_->resolve_endpoint(module_, iface);
    ports_.push_back(Port{iface, ref});
    return ref;
  }

  Bus* bus_;
  std::string module_;
  std::vector<Port> ports_;
  Bus::SignalSlotRef signal_slot_;
};

}  // namespace surgeon::bus
