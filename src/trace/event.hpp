// Causal event model for the flight recorder.
//
// Every interesting bus action (send, deliver, drop, retransmit, queue
// capture, divulge, state delivery, restore, rebind, lifecycle) becomes
// one Event in the per-machine journal.  Events carry two causal edges:
//
//   parent — program-order predecessor: the previous event recorded for
//            the same module (0 for the module's first event).
//   cause  — cross-module edge: the event that triggered this one (the
//            send behind a deliver, the divulge behind a state apply,
//            the rebind behind a queue capture).  0 when local.
//
// Together the edges span the happens-before DAG of a replacement.  A
// TraceContext is the compact wire header: enough of an Event to ride
// inside a Message across machines and reconstruct the edge on arrival.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/sim.hpp"

namespace surgeon::trace {

using EventId = std::uint64_t;

enum class EventKind : std::uint8_t {
  kSend,          // message handed to the wire (first transmission)
  kDeliver,       // message placed on a module's input queue
  kReceive,       // module dequeued a request-tagged message (queue exit)
  kDrop,          // message lost (chaos, unbound iface, retired endpoint)
  kRetransmit,    // reliable layer re-sent an unacked entry
  kDupDiscard,    // reliable layer discarded an already-seen seq
  kSignal,        // reconfigure signal requested / delivered
  kCapture,       // queued messages moved old instance -> clone
  kDivulge,       // module posted its divulged object state
  kStateDeliver,  // divulged state arrived at the clone's buffer
  kRestore,       // clone consumed the delivered state
  kRebind,        // a rebind batch committed
  kModuleAdded,
  kModuleRemoved,
  kCrash,
  kHeartbeat,   // module runtime heartbeat observed by the detector
  kSuspect,     // failure detector declared a module suspect
  kCheckpoint,  // background checkpoint persisted a module's state
  kRecover,     // recovery restored a module / finished a WAL transaction
};

const char* kind_name(EventKind kind);

// A kReceive at a request-terminal iface records the iface name with this
// suffix ("in (terminal)"); the request folds close the request on it.
inline constexpr std::string_view kTerminalSuffix = " (terminal)";

inline bool is_terminal_detail(std::string_view detail) {
  return detail.ends_with(kTerminalSuffix);
}

struct Event {
  EventId id = 0;          // global, ascending in recording order
  EventId parent = 0;      // program-order predecessor (same module)
  EventId cause = 0;       // cross-module trigger
  std::uint64_t trace_id = 0;  // replacement/operation grouping
  std::uint64_t request = 0;   // request-scoped grouping (0 = untagged)
  std::uint64_t lamport = 0;   // merged on deliver: max(local,cause)+1
  net::SimTime at = 0;         // virtual clock
  EventKind kind = EventKind::kSend;
  std::string machine;
  std::string module;
  std::string detail;
};

// Compact causal header carried by every bus message, control transfer
// and state buffer.  event==0 means "no context" (tracing off, or the
// message predates the recorder).
struct TraceContext {
  std::uint64_t trace_id = 0;
  EventId event = 0;
  std::uint64_t lamport = 0;
  // Request id assigned at a tagged workload-entry iface; inherited over
  // the cause edge by every downstream event, so a request's hops can be
  // reassembled without parsing details.  0 = not part of a tagged request.
  std::uint64_t request = 0;

  bool valid() const { return event != 0; }
};

}  // namespace surgeon::trace
