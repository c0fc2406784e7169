// The software bus: module registry, bindings, asynchronous message routing,
// reconfiguration signals, and state mailboxes.
//
// This is our reimplementation of the POLYLITH software toolbus (ref [8] of
// the paper) plus the reconfiguration primitives of ref [9]:
//   - add/delete modules and bindings while the application executes,
//   - bind-edit batches applied atomically (mh_rebind),
//   - queue capture/move so no queued message is lost during a rebind,
//   - a signal that asks a module to divulge its state, and mailboxes that
//     carry the abstract state buffer from the old module to the new one
//     (mh_objstate_move).
//
// Routing is fully pre-resolved: every (module, interface) pair is interned
// into a slab slot at registration, the bind table is kept as per-endpoint
// adjacency lists of peer refs (each bind edit touches only the lists of
// its two ends), and the steady-state send→deliver path works on integers —
// no string hashing, no map walks, no per-hop heap allocation. The
// string-based API stays as a thin resolution shim; interface resolution is
// a binding-time cost, as in POLYLITH, not a per-message one.
//
// The bus knows nothing about MiniC, the VM, or the transformation: modules
// interact with it only through bus::Client (the mh_* primitives).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bus/message.hpp"
#include "net/sim.hpp"
#include "obs/metrics.hpp"
#include "trace/recorder.hpp"

namespace surgeon::bus {

// Short name for the causal flight recorder's namespace, surgeon::trace.
namespace trc = ::surgeon::trace;

/// Everything the bus needs to instantiate a module. (The configuration
/// front end surgeon::cfg produces a richer spec and lowers it to this.)
struct ModuleInfo {
  std::string name;
  std::string machine;
  /// STATUS attribute from the paper: "new" for an original instance,
  /// "clone" for a restoration target (mh_getstatus reports this).
  std::string status = "new";
  std::string source;  // executable / program path, informational
  std::vector<InterfaceSpec> interfaces;
};

/// One bind-table edit, as built by mh_edit_bind in Figure 5.
struct BindEdit {
  enum class Op : std::uint8_t {
    kAdd,          // "add": create binding a--b
    kDel,          // "del": remove binding a--b
    kCaptureQueue, // "cap": move messages queued at a to b
    kRemoveQueue,  // "rmq": discard messages queued at a
  };
  Op op = Op::kAdd;
  BindingEnd a;
  BindingEnd b;  // unused for kRemoveQueue
};

/// A batch of bind-table edits applied atomically by Bus::rebind
/// (mh_bind_cap / mh_edit_bind / mh_rebind in Figure 5).
class BindEditBatch {
 public:
  void add(BindEdit edit) { edits_.push_back(std::move(edit)); }
  [[nodiscard]] const std::vector<BindEdit>& edits() const noexcept {
    return edits_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return edits_.size(); }

 private:
  std::vector<BindEdit> edits_;
};

/// Counters exposed for tests and benchmarks.
struct BusStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped_unbound = 0;
  std::uint64_t signals_delivered = 0;
  std::uint64_t state_transfers = 0;
  std::uint64_t state_bytes_moved = 0;
};

/// Delivery-layer configuration. The defaults reproduce the original bus:
/// fire-and-forget copies, no acknowledgements, no retransmission. With
/// `reliable` set, every message, reconfiguration signal, and state buffer
/// is sequence-numbered, acknowledged by the receiver, and retransmitted on
/// a timeout with exponential backoff until acked or `max_attempts` is
/// exhausted; receivers deduplicate and re-order per stream.
struct DeliveryOptions {
  bool reliable = false;
  /// First retransmit timeout (virtual us); doubles up to `max_timeout_us`.
  net::SimTime retransmit_timeout_us = 8'000;
  net::SimTime max_timeout_us = 256'000;
  /// Transmissions per copy (first send included) before giving up.
  int max_attempts = 16;
  /// Per-endpoint cap on out-of-order messages held for re-sequencing;
  /// copies beyond it are discarded unacked (the retransmit refills them).
  std::size_t max_ooo_buffered = 1024;
};

/// What the fault layer decided for one transmission attempt on a link.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  net::SimTime extra_delay_us = 0;      // latency jitter for the copy
  net::SimTime duplicate_delay_us = 0;  // extra latency for the duplicate
};

/// Consulted once per copy put on the wire (messages and, in reliable mode,
/// acks, signals, and state buffers), with the source and destination
/// machine names. Null means a perfect network. On the message path the
/// references the bus passes are stable for the lifetime of the modules
/// involved; control-plane calls may pass transient strings, so an injector
/// memoising its resolution must validate by value, not pointer identity.
using FaultHook =
    std::function<FaultDecision(const std::string& src_machine,
                                const std::string& dst_machine)>;

/// Counters for the reliable delivery layer (all zero in fire-and-forget
/// mode, and exact mirrors of the surgeon_bus_* chaos metrics).
struct ReliableStats {
  std::uint64_t transmissions = 0;   // copies put on the wire, retries incl.
  std::uint64_t retransmits = 0;
  std::uint64_t acks_delivered = 0;
  std::uint64_t dup_discards = 0;    // receiver dedup hits
  std::uint64_t ooo_buffered = 0;    // copies held for re-sequencing
  std::uint64_t ooo_overflow = 0;    // copies discarded: ooo buffer full
  std::uint64_t chaos_drops = 0;     // copies eaten by the fault hook
  std::uint64_t dup_injected = 0;    // duplicates created by the fault hook
  std::uint64_t gave_up = 0;         // copies abandoned after max_attempts
};

/// Observes state buffers crossing the bus: `phase` is "divulged" when a
/// module posts its encoded state and "delivered" when a buffer lands in a
/// clone's decode mailbox. Reliable redeliveries are deduplicated before
/// the observer runs, and a delivery is observed right after its recorder
/// event, before the module's mailbox is filled. The chaos harness uses
/// this for its captured-equals-restored byte comparison and its
/// clone-crash trigger.
using StateObserver = std::function<void(
    const std::string& module, const char* phase,
    const std::vector<std::uint8_t>& bytes)>;

class NativeModule;  // bus/native.hpp

class Bus {
 public:
  explicit Bus(net::Simulator& sim) : sim_(&sim) {}

  Bus(const Bus&) = delete;
  Bus& operator=(const Bus&) = delete;

  /// Control transfers remembered per module for redelivery dedup. A
  /// sliding window, not a forever-growing log: redeliveries are bounded by
  /// `max_attempts` retransmissions within a few backoff timeouts, so any
  /// duplicate still in flight names one of this many recent transfers.
  static constexpr std::size_t kAppliedControlWindow = 128;

  // --- configuration (reconfiguration primitives of ref [9]) -------------

  /// Registers a module. Throws BusError on duplicate name, unknown
  /// machine, or duplicate interface names. A NativeModule passes itself as
  /// `native`, so it can be reached through its registration.
  void add_module(ModuleInfo info, NativeModule* native = nullptr);
  /// Removes a module and every binding that involves it.
  void remove_module(const std::string& name);
  [[nodiscard]] bool has_module(const std::string& name) const {
    return modules_.contains(name);
  }
  /// mh_obj_cap: the current specification of a module (reflects dynamic
  /// changes, not the original configuration file).
  [[nodiscard]] const ModuleInfo& module_info(const std::string& name) const;
  /// The native module registered as `name`; null for a VM module's
  /// registration or an unknown name.
  [[nodiscard]] NativeModule* native(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> module_names() const;

  void add_binding(const BindingEnd& a, const BindingEnd& b);
  void del_binding(const BindingEnd& a, const BindingEnd& b);

  /// mh_struct_objnames: interface names of a module.
  [[nodiscard]] std::vector<std::string> interface_names(
      const std::string& module) const;
  /// mh_struct_ifdest / mh_struct_ifsources: peers bound to an interface,
  /// in the order their bindings were made. (Bindings are undirected, so
  /// destinations and sources coincide; both names are kept for fidelity to
  /// the Figure 5 API.)
  [[nodiscard]] std::vector<BindingEnd> bound_peers(
      const BindingEnd& end) const;
  /// Pre-resolved form: resolves no names. Throws BusError on a stale ref.
  [[nodiscard]] std::vector<BindingEnd> bound_peers(EndpointRef ref) const;

  /// Applies a batch of bind edits atomically (mh_rebind). Each add or
  /// delete is validated against the table the edits before it left, then
  /// applied to its two ends' peer lists and logged; if any edit (or the
  /// queue moves after them) throws, the log is undone in reverse, so
  /// either the whole batch applies or the table is exactly as before, peer
  /// order included. Costs O(edits), not O(table).
  void rebind(const BindEditBatch& batch);

  // --- endpoint interning --------------------------------------------------

  /// Resolves a (module, interface) pair to its interned endpoint handle.
  /// Throws BusError if either is unknown. The handle stays valid until the
  /// module is removed; `endpoint_current` tells a caching caller when to
  /// re-resolve (bus::Client does this automatically).
  [[nodiscard]] EndpointRef resolve_endpoint(const std::string& module,
                                             const std::string& iface) const;
  /// True while `ref` names a live endpoint (its slab slot has not been
  /// retired or recycled to a new tenant).
  [[nodiscard]] bool endpoint_current(EndpointRef ref) const noexcept {
    const EndpointId slot = endpoint_slot(ref);
    return slot < slab_.size() && slab_[slot].in_use &&
           slab_[slot].generation == endpoint_generation(ref);
  }
  /// Names of an endpoint, for diagnostics and the string shim. For a
  /// retired-but-unrecycled slot this reports the last tenant's names;
  /// throws BusError for a never-used slot.
  [[nodiscard]] BindingEnd endpoint_name(EndpointRef ref) const;
  /// Source (module, interface) of a received message.
  [[nodiscard]] BindingEnd source_of(const Message& msg) const {
    return endpoint_name(msg.src);
  }
  /// Slab occupancy, for tests of free-list recycling: total slots ever
  /// allocated. Stays flat across remove→re-add cycles.
  [[nodiscard]] std::size_t endpoint_slab_size() const noexcept {
    return slab_.size();
  }

  // --- messaging ----------------------------------------------------------

  /// Sends a message from (module, iface) to every bound peer. Delivery is
  /// asynchronous: each copy arrives after the network latency between the
  /// two machines. Messages sent on an unbound interface are counted and
  /// dropped. Throws BusError if the interface cannot send.
  void send(const std::string& module, const std::string& iface,
            std::vector<ser::Value> values);
  /// Pre-resolved send: the hot path. Throws BusError on a stale ref.
  void send(EndpointRef ref, std::vector<ser::Value> values);

  /// mh_query_ifmsgs: is a message queued at (module, iface)?
  [[nodiscard]] bool has_message(const std::string& module,
                                 const std::string& iface) const;
  [[nodiscard]] bool has_message(EndpointRef ref) const;
  /// Non-blocking receive; nullopt when the queue is empty.
  [[nodiscard]] std::optional<Message> receive(const std::string& module,
                                               const std::string& iface);
  [[nodiscard]] std::optional<Message> receive(EndpointRef ref);
  [[nodiscard]] std::size_t queue_depth(const std::string& module,
                                        const std::string& iface) const;
  [[nodiscard]] std::size_t queue_depth(EndpointRef ref) const;
  /// Messages queued across all of a module's interfaces: the sum of
  /// queue_depth over them, kept as a running count, so a module polling
  /// many interfaces learns in O(1) whether any of them holds mail.
  [[nodiscard]] std::size_t queued_messages(const std::string& module) const;

  // --- reconfiguration signal + state movement ----------------------------

  /// Sends the reconfiguration signal (SIGHUP in Figure 4) to a module.
  /// Delivered asynchronously after local latency.
  void signal_reconfig(const std::string& module);
  /// Consumed by the module's runtime at a statement boundary.
  [[nodiscard]] bool take_pending_signal(const std::string& module);

  /// Pre-resolved pending-signal slot: the per-statement poll is the single
  /// hottest bus query (every kStmt the VM retires asks it), so a caching
  /// caller resolves the module's flag once and then polls through the
  /// pointer. The pointer stays valid while module_topology_generation()
  /// matches the handle's: module records live in node-stable map storage,
  /// so only an add/remove can retire one, and both bump the generation.
  struct SignalSlotRef {
    bool* flag = nullptr;
    std::uint64_t generation = 0;
  };
  [[nodiscard]] SignalSlotRef resolve_signal_slot(const std::string& module);
  [[nodiscard]] std::uint64_t module_topology_generation() const noexcept {
    return module_topology_gen_;
  }

  /// mh_encode side: the module posts its encoded abstract state.
  void post_divulged_state(const std::string& module,
                           std::vector<std::uint8_t> bytes);
  [[nodiscard]] bool has_divulged_state(const std::string& module) const;
  /// Takes (and clears) the divulged state. Throws BusError if none posted.
  [[nodiscard]] std::vector<std::uint8_t> take_divulged_state(
      const std::string& module);

  /// Script side of mh_objstate_move: delivers a state buffer to the new
  /// module's decode mailbox, charging cross-machine latency from
  /// `from_machine`.
  void deliver_state(const std::string& from_machine,
                     const std::string& to_module,
                     std::vector<std::uint8_t> bytes);
  /// mh_decode side: nullopt until the state has arrived.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> take_incoming_state(
      const std::string& module);
  [[nodiscard]] bool has_incoming_state(const std::string& module) const;

  // --- delivery layer (surgeon::chaos) ------------------------------------

  /// Switches between fire-and-forget (default) and reliable delivery.
  /// Must be set before traffic starts; switching mid-run would orphan
  /// sequence state.
  void set_delivery(DeliveryOptions options) noexcept {
    delivery_ = options;
  }
  [[nodiscard]] const DeliveryOptions& delivery() const noexcept {
    return delivery_;
  }
  [[nodiscard]] bool reliable() const noexcept { return delivery_.reliable; }

  /// Installs the per-link fault hook (null = perfect network). In
  /// fire-and-forget mode only message copies are faulted; in reliable mode
  /// acks, signals, and state transfers pass through it too.
  void set_fault_hook(FaultHook hook) { fault_ = std::move(hook); }

  /// Machine the reconfiguration scripts run on; signals and their acks are
  /// charged (and faulted) on links from/to it. Empty (default) treats
  /// control traffic as local to the destination, as the original bus did.
  void set_control_machine(std::string machine) {
    control_machine_ = std::move(machine);
  }

  void set_state_observer(StateObserver observer) {
    state_observer_ = std::move(observer);
  }

  [[nodiscard]] const ReliableStats& reliable_stats() const noexcept {
    return rstats_;
  }
  /// Live bookkeeping of the reliable layer; all three return to zero once
  /// traffic quiesces, which the chaos harness asserts after every scenario.
  [[nodiscard]] std::size_t unacked_total() const noexcept;
  [[nodiscard]] std::size_t ooo_total() const noexcept;
  [[nodiscard]] std::size_t pending_control_total() const noexcept;
  /// Size of a module's control-dedup window (≤ kAppliedControlWindow);
  /// exposed so tests can assert the history stays bounded.
  [[nodiscard]] std::size_t applied_control_size(
      const std::string& module) const;

  /// Abandons pending reliable signal/state transmissions toward a module
  /// (used when a script aborts a reconfiguration mid-flight).
  void cancel_pending_control(const std::string& module);

  /// Records a module-crash trace event (the runtime's crash injector calls
  /// this; the bus registration itself is untouched by a process crash).
  void note_module_crashed(const std::string& module, std::string detail);

  // --- plumbing ------------------------------------------------------------

  /// Invoked whenever a message, signal, or state buffer arrives for a
  /// module: lets the scheduler wake a blocked process.
  void set_wake_callback(std::function<void(const std::string&)> cb) {
    wake_ = std::move(cb);
  }

  /// Attaches a metrics registry (null detaches, the default). Hot-path
  /// series handles (per-interface send/deliver/drop counters and
  /// queue-depth gauges) are resolved once per endpoint here and at
  /// add_module, so per-message cost while recording is two pointer
  /// dereferences; a null or disabled registry costs one branch.
  void set_metrics(obs::MetricsRegistry* metrics);
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return metrics_;
  }

  /// The module answering a query (mh_top asks "top", mh_slo "slo"): the
  /// native module owning the data registers when it activates, so the
  /// query follows a replacement to the clone. The latest registration
  /// wins; clearing detaches only the module named, never a successor.
  void set_query_server(const std::string& query,
                        const NativeModule* module) {
    query_servers_[query] = module;
  }
  void clear_query_server(const std::string& query,
                          const NativeModule* module);
  /// Null when no module serves `query`.
  [[nodiscard]] const NativeModule* query_server(
      const std::string& query) const;

  /// Marks (module, iface) as a request entry point: every message the
  /// module sends on that interface opens a fresh request id, carried in
  /// the trace headers and inherited by every downstream send/deliver/
  /// receive event — the raw material for request-scoped latency assembly.
  /// Requires the flight recorder (set_tracer) to take effect. Untagged
  /// traffic records exactly the events it did before this feature.
  void set_request_entry(const std::string& module, const std::string& iface,
                         bool on = true);
  /// Marks (module, iface) as a request terminal: dequeuing a tagged
  /// message here completes the request (the assembler treats the receive
  /// at a terminal as end-of-request).
  void set_request_terminal(const std::string& module,
                            const std::string& iface, bool on = true);

  /// Attaches the causal flight recorder (null detaches, the default).
  /// While attached and enabled, every send/deliver/drop/retransmit/
  /// signal/state/rebind/lifecycle action records an event with its causal
  /// parents, and outgoing messages carry a TraceContext header. Per-module
  /// journal sites and per-endpoint detail symbols are resolved here and at
  /// add_module.
  void set_tracer(trc::Recorder* tracer);
  [[nodiscard]] trc::Recorder* tracer() const noexcept { return tracer_; }

  [[nodiscard]] net::Simulator& simulator() noexcept { return *sim_; }
  [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// Receiver-side resequencing window for one incoming stream.
  struct RxStream {
    std::uint64_t next_expected = 0;
    std::map<std::uint64_t, Message> ooo;  // seq -> held message
  };

  struct ModuleRec;  // forward: Endpoint points back at its owner

  /// One adjacency entry: everything a send needs to put a copy on the wire
  /// toward one peer, resolved when the binding is made. The machine-name
  /// pointers alias ModuleInfo strings, which live in map nodes and are
  /// stable until the module is removed — and a removal unlinks every
  /// entry that names one of the module's endpoints.
  struct PeerLink {
    EndpointRef ref = kNullEndpointRef;
    bool same_machine = false;
    const std::string* src_machine = nullptr;
    const std::string* dst_machine = nullptr;
  };

  /// One slab slot. `generation` matches the high word of live refs; it is
  /// bumped when the slot is retired, so outstanding refs (cached clients,
  /// in-flight copies) go stale immediately. The name fields survive
  /// retirement until the slot is recycled, keeping drop diagnostics for
  /// in-flight traffic toward a removed module accurate.
  struct Endpoint {
    std::uint32_t generation = 0;
    bool in_use = false;
    bool can_send = false;
    bool can_receive = false;
    InterfaceSpec spec;
    std::string module;         // owner module name (retained after retire)
    ModuleRec* owner = nullptr; // valid while in_use; map nodes are stable
    std::deque<Message> queue;
    /// Stream this endpoint's sends belong to (own ref at creation;
    /// repointed to the predecessor's stream by queue capture).
    StreamKey stream_id = 0;
    /// Per-incoming-stream dedup/reorder state (reliable mode only).
    std::map<StreamKey, RxStream> rx;
    /// Set when this endpoint's rx state migrated to an heir: reliable
    /// arrivals here are dropped UNACKED so the sender retransmits toward
    /// the heir instead of parking messages at the retired instance.
    bool rx_retired = false;
    /// Request tagging (surgeon::slo): sends here open a fresh request id;
    /// dequeues here complete one. Both off by default — the untagged data
    /// path records exactly the same events as before the feature.
    bool request_entry = false;
    bool request_terminal = false;
    /// Recorder symbols of this endpoint's per-hop details: the iface name,
    /// and the name plus trc::kTerminalSuffix for a receive at a terminal.
    trc::Recorder::Symbol trace_detail = 0;
    trc::Recorder::Symbol trace_terminal_detail = 0;
    /// The bind table, this endpoint's share of it: one entry per binding
    /// that involves the endpoint, in the order the bindings were made (a
    /// self-binding appears once). Adds append, deletes erase in place.
    std::vector<PeerLink> peers;
    // Metric handles, resolved by resolve_endpoint_metrics; null until a
    // registry is attached. Owned by the registry, not the endpoint.
    obs::Counter* sent_ctr = nullptr;
    obs::Counter* delivered_ctr = nullptr;
    obs::Counter* dropped_ctr = nullptr;
    obs::Gauge* depth_gauge = nullptr;
    std::uint32_t next_free = kNoSlot;  // free-list link while retired
  };

  /// One unacked reliable message copy awaiting acknowledgement.
  struct TxEntry {
    Message msg;
    std::vector<std::uint64_t> acked_by;  // module uids that acked this seq
    int attempts = 0;
    net::SimTime timeout_us = 0;
  };
  /// Sender side of one stream. Keyed by the original endpoint's packed
  /// ref; `owner` tracks which live endpoint currently continues the
  /// stream (updated by queue capture when a clone takes over).
  struct TxStream {
    EndpointRef owner = kNullEndpointRef;
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, TxEntry> unacked;
  };

  /// One pending reliable control transmission (signal or state buffer).
  struct ControlTx {
    enum class Kind : std::uint8_t { kSignal, kState } kind = Kind::kSignal;
    std::string target;
    std::string from_machine;  // link source for latency + faulting
    std::vector<std::uint8_t> bytes;  // state payload (empty for signals)
    std::uint64_t uid = 0;  // target module instance
    int attempts = 0;
    net::SimTime timeout_us = 0;
    /// Causal context of the request event (the divulge for state moves),
    /// carried across control retries so redeliveries keep their cause.
    trc::TraceContext trace_ctx;
  };
  struct ModuleRec {
    ModuleInfo info;
    std::vector<EndpointId> slots;              // this module's endpoints
    std::map<std::string, EndpointId> by_iface; // string-shim resolution
    /// Messages queued across `slots` (Bus::queued_messages). Every queue
    /// change adjusts it: deliver_into, receive, queue capture and rmq.
    std::size_t queued = 0;
    bool reconfig_signaled = false;
    std::optional<std::vector<std::uint8_t>> divulged_state;
    std::optional<std::vector<std::uint8_t>> incoming_state;
    NativeModule* native = nullptr;  // null for a VM module
    /// Unique instance id; in-flight control toward a deleted-and-recreated
    /// name is discarded by comparing it.
    std::uint64_t uid = 0;
    /// Pre-resolved recorder site (machine journal, program order, module
    /// symbol) for this module's per-hop events (send, deliver, receive):
    /// with the endpoint's detail symbols, a journaled hop looks up and
    /// copies no string.
    trc::Recorder::Site trace_site;
    /// Receive context of the last request-tagged message this module
    /// dequeued: subsequent sends inherit its request id (heuristic: a
    /// module's output is attributed to the request it most recently took
    /// off a queue — exact for run-to-completion handlers).
    trc::TraceContext request_ctx;
    /// Sliding window of recently applied control ids (redelivery dedup).
    std::deque<std::uint64_t> applied_control;
  };

  /// In-flight message copies. Pooled so the scheduled delivery closure
  /// captures only {this, slot} — small enough for std::function's inline
  /// buffer — making a hop free of heap allocation.
  struct InFlight {
    Message msg;
    EndpointRef dst = kNullEndpointRef;
    std::uint32_t next_free = kNoSlot;
  };

  [[nodiscard]] ModuleRec& rec(const std::string& name);
  [[nodiscard]] const ModuleRec& rec(const std::string& name) const;
  // Slab plumbing.
  [[nodiscard]] Endpoint* deref(EndpointRef ref) noexcept {
    const EndpointId slot = endpoint_slot(ref);
    if (slot >= slab_.size()) return nullptr;
    Endpoint& ep = slab_[slot];
    return ep.in_use && ep.generation == endpoint_generation(ref) ? &ep
                                                                  : nullptr;
  }
  [[nodiscard]] const Endpoint* deref(EndpointRef ref) const noexcept {
    return const_cast<Bus*>(this)->deref(ref);
  }
  [[nodiscard]] EndpointRef ref_of(EndpointId slot) const noexcept {
    return make_endpoint_ref(slot, slab_[slot].generation);
  }
  [[nodiscard]] EndpointId acquire_slot();
  void release_slot(EndpointId slot);
  [[nodiscard]] EndpointId resolve_slot(const std::string& module,
                                        const std::string& iface) const;
  [[nodiscard]] Endpoint& endpoint(const std::string& module,
                                   const std::string& iface) {
    return slab_[resolve_slot(module, iface)];
  }
  [[nodiscard]] const Endpoint& endpoint(const std::string& module,
                                         const std::string& iface) const {
    return slab_[resolve_slot(module, iface)];
  }
  /// One applied link edit in Bus::rebind's undo log. An add logs only its
  /// ends: undone in reverse order, its link is the last entry of both
  /// lists. A delete logs one record per list it erased from, with the
  /// removed entry and the index it held, so its undo restores peer order.
  struct LinkUndo {
    EndpointId slot = 0;
    EndpointId other = 0;  // the far end
    bool added = false;
    std::uint32_t index = 0;  // deletes: position in `slot`'s list
    PeerLink link;            // deletes: the removed entry
  };
  // The bind table: per-endpoint peer lists.
  void link_endpoints(EndpointId a, EndpointId b);
  /// Erases `b`'s entry from `a`'s peer list in place; returns the record
  /// that puts it back.
  LinkUndo erase_peer(EndpointId a, EndpointId b);
  [[nodiscard]] bool linked(EndpointId a, EndpointId b) const;
  void apply_link_edit(const BindEdit& edit, std::vector<LinkUndo>& undo);
  void undo_link_edit(const LinkUndo& entry);
  // In-flight pool.
  [[nodiscard]] std::uint32_t inflight_acquire(EndpointRef dst, Message msg);
  void inflight_release(std::uint32_t slot);
  void arrive_inflight(std::uint32_t slot);           // fire-and-forget
  void reliable_arrive_inflight(std::uint32_t slot);  // reliable mode
  void drop_stale_arrival(EndpointRef dst, const Message& msg);
  // Hot-path core shared by both send overloads.
  void send_from(EndpointRef ref, Endpoint& ep, std::vector<ser::Value> values);
  void deliver_into(Endpoint& ep, Message msg);
  // Reliable-delivery internals (bus.cpp).
  [[nodiscard]] FaultDecision consult_fault(const std::string& src_machine,
                                            const std::string& dst_machine);
  void chaos_metric(const char* name, const char* kind);
  void reliable_send(EndpointRef ref, Endpoint& ep, Message msg);
  void transmit_entry(StreamKey stream, std::uint64_t seq, bool retransmit);
  void arm_retransmit(StreamKey stream, std::uint64_t seq,
                      net::SimTime timeout_us);
  void reliable_arrive(EndpointRef dst, Message msg);
  void send_ack(Endpoint& acker_ep, StreamKey stream, std::uint64_t seq);
  void on_ack(std::uint64_t acker_uid, StreamKey stream, std::uint64_t seq);
  [[nodiscard]] bool entry_fully_acked(const TxStream& ts,
                                       const TxEntry& entry);
  void migrate_streams(const BindingEnd& from_end, const BindingEnd& to_end);
  void transmit_control(std::uint64_t id);
  void arm_control_retry(std::uint64_t id, net::SimTime timeout_us);
  /// Window-bounded dedup of redelivered control transfers.
  [[nodiscard]] static bool control_applied(const ModuleRec& r,
                                            std::uint64_t id);
  static void note_control_applied(ModuleRec& r, std::uint64_t id);
  /// A reliable transfer's arrival: a duplicate is discarded, else it
  /// arrives as a signal (`state` null) or a state buffer; both are acked.
  void apply_control(const std::string& module, std::uint64_t id,
                     const std::vector<std::uint8_t>* state);
  /// A first arrival by either delivery mode: the flag or mailbox is set,
  /// counted, recorded as caused by `cause`, observed, and the module woken.
  void arrive_signal(ModuleRec& r, const std::string& module,
                     const trc::TraceContext& cause);
  void arrive_state(ModuleRec& r, const std::string& module,
                    const std::vector<std::uint8_t>& bytes,
                    const trc::TraceContext& cause);
  void ack_control(const std::string& module, std::uint64_t id);
  void update_reliable_gauges();
  void apply_queue_edit(const BindEdit& edit);
  void resolve_endpoint_metrics(ModuleRec& r);
  void resolve_trace_symbols(ModuleRec& r);
  [[nodiscard]] bool metrics_on() const noexcept {
    return metrics_ != nullptr && metrics_->enabled();
  }
  [[nodiscard]] bool tracer_on() const noexcept {
    return tracer_ != nullptr && tracer_->enabled();
  }
  /// Records a causal event when the flight recorder is on; returns the
  /// context to stamp on outgoing copies (invalid when recording is off).
  trc::TraceContext rec_event(trc::EventKind kind, const std::string& machine,
                              const std::string& module, std::string detail,
                              const trc::TraceContext& cause = {});
  [[nodiscard]] std::string machine_of_or(const std::string& module,
                                          const std::string& fallback) const;
  void note_depth(const Endpoint& ep) {
    if (metrics_on() && ep.depth_gauge != nullptr) {
      ep.depth_gauge->set(static_cast<std::int64_t>(ep.queue.size()));
    }
  }
  void wake(const std::string& module) {
    if (wake_) wake_(module);
  }

  net::Simulator* sim_;
  std::map<std::string, ModuleRec> modules_;
  /// Bumped whenever modules_ gains or loses a record; SignalSlotRef
  /// handles from older generations must re-resolve.
  std::uint64_t module_topology_gen_ = 0;
  std::uint64_t next_uid_ = 1;
  std::vector<Endpoint> slab_;
  std::uint32_t free_head_ = kNoSlot;
  std::vector<InFlight> inflight_;
  std::uint32_t inflight_free_ = kNoSlot;
  std::function<void(const std::string&)> wake_;
  BusStats stats_;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::map<std::string, const NativeModule*> query_servers_;
  trc::Recorder* tracer_ = nullptr;
  /// Last divulge / rebind events: the causal anchors for state deliveries
  /// (divulge happens-before every objstate apply) and queue captures.
  trc::TraceContext last_divulge_ctx_;
  trc::TraceContext last_rebind_ctx_;
  /// Per-module context of the last state delivery, the cause of the
  /// module's restore event when it decodes the buffer.
  std::map<std::string, trc::TraceContext> last_state_ctx_;
  // Reliable delivery layer (inactive until set_delivery turns it on).
  DeliveryOptions delivery_;
  FaultHook fault_;
  StateObserver state_observer_;
  std::string control_machine_;
  ReliableStats rstats_;
  std::map<StreamKey, TxStream> tx_streams_;
  std::map<std::uint64_t, ControlTx> control_;  // id -> pending signal/state
  std::uint64_t next_control_id_ = 1;
};

}  // namespace surgeon::bus
