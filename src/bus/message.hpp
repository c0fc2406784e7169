// Messages, interned endpoint handles, and interface descriptions for the
// software bus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serialize/value.hpp"
#include "trace/event.hpp"

namespace surgeon::bus {

/// Dense interned endpoint handle. The bus registers every (module,
/// interface) pair into a slab; the low 32 bits of a ref are the slab slot
/// (the `EndpointId`), the high 32 bits the slot's generation, bumped each
/// time the slot is retired so a handle to a removed endpoint goes stale
/// the moment the module leaves the bus. Generations start at 1, so 0 is
/// never a valid ref.
using EndpointId = std::uint32_t;
using EndpointRef = std::uint64_t;

inline constexpr EndpointRef kNullEndpointRef = 0;

[[nodiscard]] constexpr EndpointId endpoint_slot(EndpointRef ref) noexcept {
  return static_cast<EndpointId>(ref);
}
[[nodiscard]] constexpr std::uint32_t endpoint_generation(
    EndpointRef ref) noexcept {
  return static_cast<std::uint32_t>(ref >> 32);
}
[[nodiscard]] constexpr EndpointRef make_endpoint_ref(
    EndpointId slot, std::uint32_t generation) noexcept {
  return (static_cast<EndpointRef>(generation) << 32) | slot;
}

/// Identity of a reliable flow, packed into one integer: the EndpointRef of
/// the ORIGINAL endpoint the stream began on. The ref stays unique forever
/// (slot reuse bumps the generation), so a stream key never collides with a
/// later tenant of the same slab slot — and because it survives the
/// original endpoint's removal, clones that inherit an endpoint through
/// queue capture continue their predecessor's stream under the same key.
using StreamKey = std::uint64_t;

/// Interface roles, following the configuration language of Figure 2:
///   client  -- sends requests, accepts replies        (bidirectional)
///   server  -- receives requests, returns replies     (bidirectional)
///   use     -- consumes messages produced elsewhere   (incoming)
///   define  -- produces messages                      (outgoing)
enum class IfaceRole : std::uint8_t { kClient, kServer, kUse, kDefine };

[[nodiscard]] const char* iface_role_name(IfaceRole role) noexcept;

/// Can a module legally send on / receive from an interface of this role?
[[nodiscard]] bool role_can_send(IfaceRole role) noexcept;
[[nodiscard]] bool role_can_receive(IfaceRole role) noexcept;

struct InterfaceSpec {
  std::string name;
  IfaceRole role = IfaceRole::kUse;
  /// Format of messages carried on this interface (outbound for client,
  /// inbound for server/use), e.g. "i".
  std::string pattern;
  /// Reply format for client (accepts{...}) / server (returns{...}).
  std::string reply_pattern;

  friend bool operator==(const InterfaceSpec&,
                         const InterfaceSpec&) = default;
};

/// One asynchronous message in flight or queued at an endpoint. Carries
/// interned identifiers only — no strings — so every hop, retransmission,
/// and clone queue capture moves three integers instead of four heap
/// strings. `Bus::source_of` resolves `src` back to names for diagnostics.
struct Message {
  std::vector<ser::Value> values;
  /// Sending endpoint at the moment of the send.
  EndpointRef src = kNullEndpointRef;
  /// Reliable-delivery metadata (Bus::set_delivery). The stream names the
  /// ORIGINAL endpoint the flow began on; a clone that inherits an endpoint
  /// through queue capture continues its predecessor's stream, so receivers
  /// keep one in-order dedup window across replacements. Unused (all
  /// defaults) in fire-and-forget mode.
  StreamKey stream = 0;
  std::uint64_t seq = 0;
  /// Virtual timestamp of the original send. Survives retransmission and
  /// queue capture, so (now - sent_at) at capture time is the age a message
  /// spent queued behind a replacement — the per-message component of the
  /// disruption a reconfiguration imposes (surgeon_reconfig_queued_delay_us).
  std::uint64_t sent_at = 0;
  /// Causal trace header (trace/event.hpp): names the send (or retransmit)
  /// event this copy belongs to so the receiving machine can merge Lamport
  /// clocks and parent its deliver event on the true transmission. Carried
  /// through retransmissions, duplicates, and clone queue capture; invalid
  /// (event 0) when tracing is off.
  trace::TraceContext trace_ctx;
};

/// One end of a binding: a (module, interface) pair. A binding is an
/// unordered connection between two ends: messages written on either end
/// are delivered to the queue of the other, as in POLYLITH.
struct BindingEnd {
  std::string module;
  std::string iface;

  friend bool operator==(const BindingEnd&, const BindingEnd&) = default;
  friend auto operator<=>(const BindingEnd&, const BindingEnd&) = default;
};

}  // namespace surgeon::bus
