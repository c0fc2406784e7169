#include "bus/bus.hpp"

#include <algorithm>

#include "support/diag.hpp"

namespace surgeon::bus {

using support::BusError;

const char* iface_role_name(IfaceRole role) noexcept {
  switch (role) {
    case IfaceRole::kClient:
      return "client";
    case IfaceRole::kServer:
      return "server";
    case IfaceRole::kUse:
      return "use";
    case IfaceRole::kDefine:
      return "define";
  }
  return "?";
}

bool role_can_send(IfaceRole role) noexcept {
  return role != IfaceRole::kUse;
}

bool role_can_receive(IfaceRole role) noexcept {
  return role != IfaceRole::kDefine;
}

Bus::ModuleRec& Bus::rec(const std::string& name) {
  auto it = modules_.find(name);
  if (it == modules_.end()) throw BusError("unknown module: " + name);
  return it->second;
}

const Bus::ModuleRec& Bus::rec(const std::string& name) const {
  auto it = modules_.find(name);
  if (it == modules_.end()) throw BusError("unknown module: " + name);
  return it->second;
}

// --- slab ---------------------------------------------------------------------

EndpointId Bus::acquire_slot() {
  EndpointId slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slab_[slot].next_free;
  } else {
    slot = static_cast<EndpointId>(slab_.size());
    slab_.emplace_back();
    slab_[slot].generation = 1;  // generation 0 never names a live slot
  }
  Endpoint& ep = slab_[slot];
  ep.in_use = true;
  ep.next_free = kNoSlot;
  return slot;
}

void Bus::release_slot(EndpointId slot) {
  Endpoint& ep = slab_[slot];
  ep.in_use = false;
  ++ep.generation;  // every outstanding ref to this slot is now stale
  ep.owner = nullptr;
  ep.can_send = false;
  ep.can_receive = false;
  ep.queue.clear();  // owner's `queued` dies with its record (remove_module)
  ep.rx.clear();
  ep.rx_retired = false;
  ep.peers.clear();
  ep.stream_id = 0;
  ep.sent_ctr = nullptr;
  ep.delivered_ctr = nullptr;
  ep.dropped_ctr = nullptr;
  ep.depth_gauge = nullptr;
  // ep.module / ep.spec are retained so traffic still in flight toward the
  // retired endpoint can name it in drop diagnostics.
  ep.next_free = free_head_;
  free_head_ = slot;
}

EndpointId Bus::resolve_slot(const std::string& module,
                             const std::string& iface) const {
  auto mit = modules_.find(module);
  if (mit == modules_.end()) throw BusError("unknown module: " + module);
  auto iit = mit->second.by_iface.find(iface);
  if (iit == mit->second.by_iface.end()) {
    throw BusError("module " + module + " has no interface " + iface);
  }
  return iit->second;
}

EndpointRef Bus::resolve_endpoint(const std::string& module,
                                  const std::string& iface) const {
  return ref_of(resolve_slot(module, iface));
}

BindingEnd Bus::endpoint_name(EndpointRef ref) const {
  const EndpointId slot = endpoint_slot(ref);
  if (slot >= slab_.size() || endpoint_generation(ref) == 0) {
    throw BusError("invalid endpoint handle");
  }
  const Endpoint& ep = slab_[slot];
  return BindingEnd{ep.module, ep.spec.name};
}

// --- the bind table: per-endpoint peer lists ----------------------------------

void Bus::link_endpoints(EndpointId a, EndpointId b) {
  auto one_way = [this](EndpointId src_slot, EndpointId dst_slot) {
    Endpoint& src = slab_[src_slot];
    Endpoint& dst = slab_[dst_slot];
    PeerLink pl;
    pl.ref = ref_of(dst_slot);
    pl.src_machine = &src.owner->info.machine;
    pl.dst_machine = &dst.owner->info.machine;
    pl.same_machine = *pl.src_machine == *pl.dst_machine;
    src.peers.push_back(pl);
  };
  one_way(a, b);
  if (a != b) one_way(b, a);
}

Bus::LinkUndo Bus::erase_peer(EndpointId a, EndpointId b) {
  std::vector<PeerLink>& peers = slab_[a].peers;
  const auto it = std::ranges::find(
      peers, b, [](const PeerLink& pl) { return endpoint_slot(pl.ref); });
  LinkUndo entry{.slot = a,
                 .other = b,
                 .added = false,
                 .index = static_cast<std::uint32_t>(it - peers.begin()),
                 .link = *it};
  peers.erase(it);
  return entry;
}

bool Bus::linked(EndpointId a, EndpointId b) const {
  // Links are symmetric, so the shorter list answers: a hub's thousand
  // peers are never scanned to check one of its leaves.
  if (slab_[a].peers.size() > slab_[b].peers.size()) std::swap(a, b);
  return std::ranges::any_of(slab_[a].peers, [b](const PeerLink& pl) {
    return endpoint_slot(pl.ref) == b;
  });
}

// --- metrics / tracer attachment ---------------------------------------------

void Bus::resolve_endpoint_metrics(ModuleRec& r) {
  for (EndpointId slot : r.slots) {
    Endpoint& ep = slab_[slot];
    if (metrics_ == nullptr) {
      ep.sent_ctr = nullptr;
      ep.delivered_ctr = nullptr;
      ep.dropped_ctr = nullptr;
      ep.depth_gauge = nullptr;
      continue;
    }
    obs::Labels labels{{"module", r.info.name}, {"iface", ep.spec.name}};
    ep.sent_ctr = &metrics_->counter("surgeon_bus_messages_sent_total", labels);
    ep.delivered_ctr =
        &metrics_->counter("surgeon_bus_messages_delivered_total", labels);
    ep.dropped_ctr =
        &metrics_->counter("surgeon_bus_messages_dropped_total", labels);
    ep.depth_gauge = &metrics_->gauge("surgeon_bus_queue_depth", labels);
  }
}

void Bus::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  for (auto& [name, r] : modules_) resolve_endpoint_metrics(r);
}

void Bus::resolve_trace_symbols(ModuleRec& r) {
  r.trace_site = tracer_->resolve_site(r.info.machine, r.info.name);
  for (EndpointId slot : r.slots) {
    Endpoint& ep = slab_[slot];
    ep.trace_detail = tracer_->intern(ep.spec.name);
    ep.trace_terminal_detail = tracer_->intern(
        ep.spec.name + std::string(trc::kTerminalSuffix));
  }
}

void Bus::set_tracer(trc::Recorder* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) return;
  for (auto& [name, r] : modules_) resolve_trace_symbols(r);
}

void Bus::set_request_entry(const std::string& module,
                            const std::string& iface, bool on) {
  slab_[resolve_slot(module, iface)].request_entry = on;
}

void Bus::set_request_terminal(const std::string& module,
                               const std::string& iface, bool on) {
  slab_[resolve_slot(module, iface)].request_terminal = on;
}

// --- module / binding configuration ------------------------------------------

void Bus::add_module(ModuleInfo info, NativeModule* native) {
  if (modules_.contains(info.name)) {
    throw BusError("module already registered: " + info.name);
  }
  if (!sim_->has_machine(info.machine)) {
    throw BusError("module " + info.name + " placed on unknown machine " +
                   info.machine);
  }
  for (std::size_t i = 0; i < info.interfaces.size(); ++i) {
    for (std::size_t j = i + 1; j < info.interfaces.size(); ++j) {
      if (info.interfaces[i].name == info.interfaces[j].name) {
        throw BusError("module " + info.name + " declares interface " +
                       info.interfaces[i].name + " twice");
      }
    }
  }
  const std::string name = info.name;
  ++module_topology_gen_;
  auto [it, inserted] = modules_.emplace(name, ModuleRec{});
  ModuleRec& r = it->second;
  r.info = std::move(info);
  r.native = native;
  r.uid = next_uid_++;
  for (const InterfaceSpec& spec : r.info.interfaces) {
    const EndpointId slot = acquire_slot();
    Endpoint& ep = slab_[slot];
    ep.spec = spec;
    ep.module = name;
    ep.owner = &r;  // map nodes are stable; valid until remove_module
    ep.can_send = role_can_send(spec.role);
    ep.can_receive = role_can_receive(spec.role);
    ep.stream_id = ref_of(slot);  // fresh stream identity for this tenant
    r.slots.push_back(slot);
    r.by_iface.emplace(spec.name, slot);
  }
  resolve_endpoint_metrics(r);
  if (tracer_ != nullptr) resolve_trace_symbols(r);
  if (metrics_on()) {
    metrics_->counter("surgeon_bus_modules_added_total").inc();
  }
  rec_event(trc::EventKind::kModuleAdded, r.info.machine, name,
            "machine=" + r.info.machine + " status=" + r.info.status);
}

void Bus::remove_module(const std::string& name) {
  ModuleRec& r = rec(name);  // throws if unknown
  // Zero the departing queue-depth gauges so a removed module cannot leak a
  // stale non-zero depth into the registry.
  if (metrics_on()) {
    for (EndpointId slot : r.slots) {
      if (slab_[slot].depth_gauge != nullptr) slab_[slot].depth_gauge->set(0);
    }
  }
  // Retire reliable bookkeeping the module's endpoints still own. Streams
  // whose ownership migrated to an heir via queue capture are left alone.
  std::erase_if(tx_streams_, [&](const auto& kv) {
    const Endpoint* owner_ep = deref(kv.second.owner);
    return owner_ep != nullptr && owner_ep->owner == &r;
  });
  std::erase_if(control_, [&](const auto& kv) {
    return kv.second.target == name;
  });
  // Unlink the departing endpoints from their peers' lists in place, so
  // every other endpoint keeps its bind order. Links among the module's own
  // endpoints leave with its slots.
  for (EndpointId slot : r.slots) {
    for (const PeerLink& pl : slab_[slot].peers) {
      const EndpointId peer = endpoint_slot(pl.ref);
      if (slab_[peer].owner != &r) (void)erase_peer(peer, slot);
    }
  }
  const std::string machine = r.info.machine;
  for (EndpointId slot : r.slots) release_slot(slot);
  ++module_topology_gen_;
  modules_.erase(name);
  last_state_ctx_.erase(name);
  if (metrics_on()) {
    metrics_->counter("surgeon_bus_modules_removed_total").inc();
  }
  rec_event(trc::EventKind::kModuleRemoved, machine, name, "");
}

const ModuleInfo& Bus::module_info(const std::string& name) const {
  return rec(name).info;
}

NativeModule* Bus::native(const std::string& name) const {
  const auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second.native;
}

void Bus::clear_query_server(const std::string& query,
                             const NativeModule* module) {
  if (query_server(query) == module) query_servers_.erase(query);
}

const NativeModule* Bus::query_server(const std::string& query) const {
  const auto it = query_servers_.find(query);
  return it == query_servers_.end() ? nullptr : it->second;
}

std::vector<std::string> Bus::module_names() const {
  std::vector<std::string> names;
  names.reserve(modules_.size());
  for (const auto& [name, r] : modules_) names.push_back(name);
  return names;
}

void Bus::add_binding(const BindingEnd& a, const BindingEnd& b) {
  rebind([&] {
    BindEditBatch batch;
    batch.add(BindEdit{BindEdit::Op::kAdd, a, b});
    return batch;
  }());
}

void Bus::del_binding(const BindingEnd& a, const BindingEnd& b) {
  rebind([&] {
    BindEditBatch batch;
    batch.add(BindEdit{BindEdit::Op::kDel, a, b});
    return batch;
  }());
}

std::vector<std::string> Bus::interface_names(const std::string& module) const {
  const auto& r = rec(module);
  std::vector<std::string> names;
  names.reserve(r.by_iface.size());
  for (const auto& [name, slot] : r.by_iface) names.push_back(name);
  return names;
}

std::vector<BindingEnd> Bus::bound_peers(const BindingEnd& end) const {
  auto mit = modules_.find(end.module);
  if (mit == modules_.end()) return {};
  auto iit = mit->second.by_iface.find(end.iface);
  if (iit == mit->second.by_iface.end()) return {};
  return bound_peers(ref_of(iit->second));
}

std::vector<BindingEnd> Bus::bound_peers(EndpointRef ref) const {
  const Endpoint* ep = deref(ref);
  if (ep == nullptr) throw BusError("peer query on stale endpoint handle");
  std::vector<BindingEnd> peers;
  peers.reserve(ep->peers.size());
  for (const PeerLink& pl : ep->peers) {
    const Endpoint& peer = slab_[endpoint_slot(pl.ref)];
    peers.push_back(BindingEnd{peer.module, peer.spec.name});
  }
  return peers;
}

void Bus::apply_link_edit(const BindEdit& edit, std::vector<LinkUndo>& undo) {
  const auto fail = [&edit](const char* what) {
    throw BusError(what + edit.a.module + "." + edit.a.iface + " -- " +
                   edit.b.module + "." + edit.b.iface);
  };
  if (edit.op == BindEdit::Op::kAdd) {
    const EndpointId a = resolve_slot(edit.a.module, edit.a.iface);
    const EndpointId b = resolve_slot(edit.b.module, edit.b.iface);
    if (linked(a, b)) fail("binding already exists: ");
    link_endpoints(a, b);
    undo.push_back(
        LinkUndo{.slot = a, .other = b, .added = true, .index = 0, .link = {}});
    return;
  }
  // A delete naming an unknown end deletes no binding.
  const auto slot_of =
      [this](const BindingEnd& e) -> std::optional<EndpointId> {
    auto mit = modules_.find(e.module);
    if (mit == modules_.end()) return std::nullopt;
    auto iit = mit->second.by_iface.find(e.iface);
    if (iit == mit->second.by_iface.end()) return std::nullopt;
    return iit->second;
  };
  const auto a = slot_of(edit.a);
  const auto b = slot_of(edit.b);
  if (!a.has_value() || !b.has_value() || !linked(*a, *b)) {
    fail("no such binding to delete: ");
  }
  undo.push_back(erase_peer(*a, *b));
  if (*a != *b) undo.push_back(erase_peer(*b, *a));
}

void Bus::undo_link_edit(const LinkUndo& entry) {
  if (entry.added) {
    slab_[entry.slot].peers.pop_back();
    if (entry.other != entry.slot) slab_[entry.other].peers.pop_back();
    return;
  }
  std::vector<PeerLink>& peers = slab_[entry.slot].peers;
  peers.insert(peers.begin() + entry.index, entry.link);
}

void Bus::apply_queue_edit(const BindEdit& edit) {
  switch (edit.op) {
    case BindEdit::Op::kAdd:
    case BindEdit::Op::kDel:
      break;  // applied by apply_link_edit
    case BindEdit::Op::kCaptureQueue: {
      Endpoint& from = endpoint(edit.a.module, edit.a.iface);
      Endpoint& to = endpoint(edit.b.module, edit.b.iface);
      const std::size_t captured = from.queue.size();
      bool moved = !from.queue.empty();
      // Every captured message aged (now - sent_at) behind the replacement:
      // the per-message disruption distribution. Capture is a cold path, so
      // the per-batch registry lookup is fine.
      obs::Histogram* delay_hist = nullptr;
      if (moved && metrics_on()) {
        delay_hist = &metrics_->histogram("surgeon_reconfig_queued_delay_us",
                                          {{"module", edit.a.module}});
      }
      const std::uint64_t capture_now = sim_->now();
      while (!from.queue.empty()) {
        // Queued messages keep their trace headers: the clone inherits
        // the predecessor's causal history along with its traffic.
        if (delay_hist != nullptr) {
          const std::uint64_t sent = from.queue.front().sent_at;
          delay_hist->observe(capture_now >= sent ? capture_now - sent : 0);
        }
        to.queue.push_back(std::move(from.queue.front()));
        from.queue.pop_front();
      }
      from.owner->queued -= captured;
      to.owner->queued += captured;
      rec_event(trc::EventKind::kCapture,
                machine_of_or(edit.b.module, "bus"), edit.b.module,
                "from=" + edit.a.module + "." + edit.a.iface +
                    " moved=" + std::to_string(captured),
                last_rebind_ctx_);
      // Channel state rides with the queue: the heir continues the
      // predecessor's outgoing stream and inherits its resequencing
      // windows, so dedup/ordering survive the replacement.
      migrate_streams(edit.a, edit.b);
      // So does the request conversation: the clone inherits the captured
      // endpoint's entry/terminal tagging and -- when it has none of its
      // own -- the module's in-flight request context, so a request caught
      // mid-hop by a replacement keeps its end-to-end identity.
      to.request_entry = to.request_entry || from.request_entry;
      to.request_terminal = to.request_terminal || from.request_terminal;
      if (to.owner->request_ctx.request == 0) {
        to.owner->request_ctx = from.owner->request_ctx;
      }
      note_depth(from);
      note_depth(to);
      if (moved) wake(edit.b.module);
      break;
    }
    case BindEdit::Op::kRemoveQueue: {
      Endpoint& ep = endpoint(edit.a.module, edit.a.iface);
      ep.owner->queued -= ep.queue.size();
      ep.queue.clear();
      ep.rx.clear();
      note_depth(ep);
      break;
    }
  }
}

void Bus::rebind(const BindEditBatch& batch) {
  // Adds and deletes validate and apply in order, each against the table
  // the edits before it left (Figure 5 only deletes existing bindings and
  // adds new ones), and log what undoes them; queue commands are checked in
  // the same pass. A throw anywhere below undoes the log in reverse, so the
  // batch is all-or-nothing and costs its edits, not the table.
  std::vector<LinkUndo> undo;
  undo.reserve(2 * batch.size());  // a log append never throws mid-edit
  try {
    for (const auto& edit : batch.edits()) {
      switch (edit.op) {
        case BindEdit::Op::kAdd:
        case BindEdit::Op::kDel:
          apply_link_edit(edit, undo);
          break;
        case BindEdit::Op::kCaptureQueue:
          (void)resolve_slot(edit.a.module, edit.a.iface);
          (void)resolve_slot(edit.b.module, edit.b.iface);
          break;
        case BindEdit::Op::kRemoveQueue:
          (void)resolve_slot(edit.a.module, edit.a.iface);
          break;
      }
    }
    // The rebind event is recorded once the bind table has settled and
    // before any queue capture, so captures (and the deliveries they flush
    // into the clone) sit causally after the rebind. Its cause is the last
    // divulge: Figure 5 only edits bindings after quiescence was proven.
    if (batch.size() != 0 && tracer_on()) {
      std::vector<std::string> involved;
      for (const auto& edit : batch.edits()) {
        for (const std::string* m : {&edit.a.module, &edit.b.module}) {
          if (m->empty() ||
              (edit.op == BindEdit::Op::kRemoveQueue && m == &edit.b.module)) {
            continue;
          }
          if (std::find(involved.begin(), involved.end(), *m) ==
              involved.end()) {
            involved.push_back(*m);
          }
        }
      }
      std::string list;
      for (const auto& m : involved) {
        if (!list.empty()) list += ',';
        list += m;
      }
      last_rebind_ctx_ = rec_event(
          trc::EventKind::kRebind,
          control_machine_.empty() ? "bus" : control_machine_,
          batch.edits().front().a.module,
          "edits=" + std::to_string(batch.size()) + " modules=" + list,
          last_divulge_ctx_);
    }
    // Queue moves happen after the bind table settles, as in Figure 5 where
    // "cap"/"rmq" commands ride in the same atomic batch.
    for (const auto& edit : batch.edits()) apply_queue_edit(edit);
    if (batch.size() != 0 && metrics_on()) {
      metrics_->counter("surgeon_bus_rebinds_total").inc();
      metrics_
          ->histogram("surgeon_bus_rebind_edits", {},
                      {1, 4, 16, 64, 256, 1024})
          .observe(batch.size());
    }
  } catch (...) {
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) undo_link_edit(*it);
    throw;
  }
}

// --- in-flight pool -----------------------------------------------------------

std::uint32_t Bus::inflight_acquire(EndpointRef dst, Message msg) {
  std::uint32_t slot;
  if (inflight_free_ != kNoSlot) {
    slot = inflight_free_;
    inflight_free_ = inflight_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(inflight_.size());
    inflight_.emplace_back();
  }
  InFlight& f = inflight_[slot];
  f.msg = std::move(msg);
  f.dst = dst;
  f.next_free = kNoSlot;
  return slot;
}

void Bus::inflight_release(std::uint32_t slot) {
  InFlight& f = inflight_[slot];
  f.dst = kNullEndpointRef;
  f.next_free = inflight_free_;
  inflight_free_ = slot;
}

void Bus::arrive_inflight(std::uint32_t slot) {
  Message msg = std::move(inflight_[slot].msg);
  const EndpointRef dst = inflight_[slot].dst;
  inflight_release(slot);
  Endpoint* ep = deref(dst);
  if (ep == nullptr) {
    drop_stale_arrival(dst, msg);
    return;
  }
  deliver_into(*ep, std::move(msg));
}

void Bus::reliable_arrive_inflight(std::uint32_t slot) {
  Message msg = std::move(inflight_[slot].msg);
  const EndpointRef dst = inflight_[slot].dst;
  inflight_release(slot);
  reliable_arrive(dst, std::move(msg));
}

void Bus::drop_stale_arrival(EndpointRef dst, const Message& msg) {
  // Destination was removed (or replaced) while the message was in flight;
  // the reconfiguration script is responsible for moving any *queued*
  // messages, but in-flight ones to a dead module drop. The retired slab
  // slot keeps its last tenant's names for exactly this diagnostic.
  ++stats_.messages_dropped_unbound;
  const Endpoint& gone = slab_[endpoint_slot(dst)];
  if (metrics_on()) {
    // The endpoint's cached counter handle is gone; rare path, so a
    // registry lookup per drop is fine.
    metrics_
        ->counter("surgeon_bus_messages_dropped_total",
                  {{"module", gone.module}, {"iface", gone.spec.name}})
        .inc();
  }
  rec_event(trc::EventKind::kDrop, machine_of_or(gone.module, "bus"),
            gone.module, gone.spec.name + " (in flight to removed module)",
            msg.trace_ctx);
}

// --- messaging ----------------------------------------------------------------

void Bus::send(const std::string& module, const std::string& iface,
               std::vector<ser::Value> values) {
  const EndpointId slot = resolve_slot(module, iface);
  send_from(ref_of(slot), slab_[slot], std::move(values));
}

void Bus::send(EndpointRef ref, std::vector<ser::Value> values) {
  Endpoint* ep = deref(ref);
  if (ep == nullptr) throw BusError("send on stale endpoint handle");
  send_from(ref, *ep, std::move(values));
}

void Bus::send_from(EndpointRef ref, Endpoint& ep,
                    std::vector<ser::Value> values) {
  if (!ep.can_send) {
    throw BusError("interface " + ep.module + "." + ep.spec.name + " (role " +
                   iface_role_name(ep.spec.role) + ") cannot send");
  }
  ++stats_.messages_sent;
  if (metrics_on()) ep.sent_ctr->inc();
  trc::TraceContext send_ctx;
  if (tracer_on()) {  // guard: skips the record lookup when tracing is off
    // Request tagging: an entry iface opens a fresh request id via a
    // synthetic cause (event == 0 — no false edge, just inheritance);
    // otherwise the send inherits the module's last dequeued request
    // context (invalid for untagged traffic, leaving the event unchanged).
    trc::TraceContext cause;
    if (ep.request_entry) {
      cause.request = tracer_->new_request();
    } else {
      cause = ep.owner->request_ctx;
    }
    send_ctx = tracer_->record_at(ep.owner->trace_site, trc::EventKind::kSend,
                                  ep.trace_detail, cause);
  }
  if (ep.peers.empty()) {
    ++stats_.messages_dropped_unbound;
    if (metrics_on()) ep.dropped_ctr->inc();
    rec_event(trc::EventKind::kDrop, ep.owner->info.machine, ep.module,
              ep.spec.name + " (unbound)", send_ctx);
    return;
  }
  if (delivery_.reliable) {
    Message msg;
    msg.values = std::move(values);
    msg.src = ref;
    msg.sent_at = sim_->now();
    msg.trace_ctx = send_ctx;
    reliable_send(ref, ep, std::move(msg));
    return;
  }
  const std::size_t n = ep.peers.size();
  for (std::size_t i = 0; i < n; ++i) {
    const PeerLink pl = ep.peers[i];  // by value: the fault hook may rebind
    net::SimTime latency = sim_->link_latency(pl.same_machine);
    FaultDecision fd;
    if (fault_) fd = fault_(*pl.src_machine, *pl.dst_machine);
    if (fd.drop) {
      ++rstats_.chaos_drops;
      chaos_metric("surgeon_bus_chaos_drops_total", "message");
      if (tracer_on()) {
        const Endpoint& dst = slab_[endpoint_slot(pl.ref)];
        rec_event(trc::EventKind::kDrop, *pl.src_machine, dst.module,
                  dst.spec.name + " (chaos)", send_ctx);
      }
      continue;
    }
    if (fd.duplicate) {
      // Fire-and-forget has no dedup: the duplicate is simply delivered
      // twice (the tests demonstrating why reliability matters rely on it).
      ++rstats_.dup_injected;
      chaos_metric("surgeon_bus_dup_injected_total", "message");
      Message dup;
      dup.values = values;
      dup.src = ref;
      dup.sent_at = sim_->now();
      dup.trace_ctx = send_ctx;
      const std::uint32_t fslot = inflight_acquire(pl.ref, std::move(dup));
      sim_->schedule_after(latency + fd.duplicate_delay_us,
                           [this, fslot] { arrive_inflight(fslot); });
    }
    latency += fd.extra_delay_us;
    Message msg;
    if (i + 1 == n) {
      msg.values = std::move(values);
    } else {
      msg.values = values;
    }
    msg.src = ref;
    msg.sent_at = sim_->now();
    msg.trace_ctx = send_ctx;
    const std::uint32_t fslot = inflight_acquire(pl.ref, std::move(msg));
    sim_->schedule_after(latency, [this, fslot] { arrive_inflight(fslot); });
  }
}

bool Bus::has_message(const std::string& module,
                      const std::string& iface) const {
  return !endpoint(module, iface).queue.empty();
}

bool Bus::has_message(EndpointRef ref) const {
  const Endpoint* ep = deref(ref);
  if (ep == nullptr) throw BusError("query on stale endpoint handle");
  return !ep->queue.empty();
}

std::optional<Message> Bus::receive(EndpointRef ref) {
  Endpoint* ep = deref(ref);
  if (ep == nullptr) throw BusError("receive on stale endpoint handle");
  if (!ep->can_receive) {
    throw BusError("interface " + ep->module + "." + ep->spec.name +
                   " (role " + iface_role_name(ep->spec.role) +
                   ") cannot receive");
  }
  if (ep->queue.empty()) return std::nullopt;
  Message msg = std::move(ep->queue.front());
  ep->queue.pop_front();
  --ep->owner->queued;
  note_depth(*ep);
  if (msg.trace_ctx.request != 0 && tracer_on()) {
    // Queue exit of a tagged request: cause is the deliver event stamped in
    // deliver_into, so the receive closes the queue-wait interval. The
    // module's next sends inherit this context (request attribution).
    ep->owner->request_ctx = tracer_->record_at(
        ep->owner->trace_site, trc::EventKind::kReceive,
        ep->request_terminal ? ep->trace_terminal_detail : ep->trace_detail,
        msg.trace_ctx);
  }
  return msg;
}

std::optional<Message> Bus::receive(const std::string& module,
                                    const std::string& iface) {
  return receive(ref_of(resolve_slot(module, iface)));
}

std::size_t Bus::queue_depth(const std::string& module,
                             const std::string& iface) const {
  return endpoint(module, iface).queue.size();
}

std::size_t Bus::queue_depth(EndpointRef ref) const {
  const Endpoint* ep = deref(ref);
  if (ep == nullptr) throw BusError("query on stale endpoint handle");
  return ep->queue.size();
}

std::size_t Bus::queued_messages(const std::string& module) const {
  return rec(module).queued;
}

// --- reconfiguration signal + state movement ---------------------------------

void Bus::signal_reconfig(const std::string& module) {
  if (delivery_.reliable) {
    const ModuleRec& r = rec(module);
    ControlTx tx;
    tx.kind = ControlTx::Kind::kSignal;
    tx.target = module;
    tx.from_machine =
        control_machine_.empty() ? r.info.machine : control_machine_;
    tx.uid = r.uid;
    tx.timeout_us = delivery_.retransmit_timeout_us;
    tx.trace_ctx = rec_event(trc::EventKind::kSignal, tx.from_machine, module,
                             "reconfigure requested");
    std::uint64_t id = next_control_id_++;
    control_.emplace(id, std::move(tx));
    transmit_control(id);
    arm_control_retry(id, delivery_.retransmit_timeout_us);
    return;
  }
  std::uint64_t uid = rec(module).uid;
  trc::TraceContext req_ctx = rec_event(
      trc::EventKind::kSignal,
      control_machine_.empty() ? rec(module).info.machine : control_machine_,
      module, "reconfigure requested");
  sim_->schedule_after(sim_->latency_model().local_us,
                       [this, module, uid, req_ctx] {
    auto it = modules_.find(module);
    if (it == modules_.end() || it->second.uid != uid) return;
    arrive_signal(it->second, module, req_ctx);
  });
}

bool Bus::take_pending_signal(const std::string& module) {
  auto& r = rec(module);
  bool was = r.reconfig_signaled;
  r.reconfig_signaled = false;
  return was;
}

Bus::SignalSlotRef Bus::resolve_signal_slot(const std::string& module) {
  return {&rec(module).reconfig_signaled, module_topology_gen_};
}

void Bus::post_divulged_state(const std::string& module,
                              std::vector<std::uint8_t> bytes) {
  auto& r = rec(module);
  if (r.divulged_state.has_value()) {
    throw BusError("module " + module +
                   " divulged state twice without a collection");
  }
  stats_.state_bytes_moved += bytes.size();
  ++stats_.state_transfers;
  if (metrics_on()) {
    metrics_->counter("surgeon_bus_state_transfers_total").inc();
    metrics_->counter("surgeon_bus_state_bytes_total").inc(bytes.size());
  }
  last_divulge_ctx_ =
      rec_event(trc::EventKind::kDivulge, r.info.machine, module,
                std::to_string(bytes.size()) + " bytes");
  if (state_observer_) state_observer_(module, "divulged", bytes);
  r.divulged_state = std::move(bytes);
}

bool Bus::has_divulged_state(const std::string& module) const {
  return rec(module).divulged_state.has_value();
}

std::vector<std::uint8_t> Bus::take_divulged_state(const std::string& module) {
  auto& r = rec(module);
  if (!r.divulged_state.has_value()) {
    throw BusError("module " + module + " has not divulged state");
  }
  auto bytes = std::move(*r.divulged_state);
  r.divulged_state.reset();
  return bytes;
}

void Bus::deliver_state(const std::string& from_machine,
                        const std::string& to_module,
                        std::vector<std::uint8_t> bytes) {
  const auto& dst = rec(to_module);
  if (delivery_.reliable) {
    ControlTx tx;
    tx.kind = ControlTx::Kind::kState;
    tx.target = to_module;
    tx.from_machine = from_machine;
    tx.bytes = std::move(bytes);
    tx.uid = dst.uid;
    tx.timeout_us = delivery_.retransmit_timeout_us;
    // The divulge that produced this buffer: redeliveries (including ones
    // retried onto a fresh clone after a crash) keep the same cause.
    tx.trace_ctx = last_divulge_ctx_;
    std::uint64_t id = next_control_id_++;
    control_.emplace(id, std::move(tx));
    transmit_control(id);
    arm_control_retry(id, delivery_.retransmit_timeout_us);
    return;
  }
  auto latency = sim_->message_latency(from_machine, dst.info.machine);
  std::uint64_t uid = dst.uid;
  trc::TraceContext divulge_ctx = last_divulge_ctx_;
  sim_->schedule_after(
      latency, [this, to_module, uid, divulge_ctx, bytes = std::move(bytes)] {
        auto it = modules_.find(to_module);
        if (it == modules_.end() || it->second.uid != uid) return;
        arrive_state(it->second, to_module, bytes, divulge_ctx);
      });
}

std::optional<std::vector<std::uint8_t>> Bus::take_incoming_state(
    const std::string& module) {
  auto& r = rec(module);
  if (!r.incoming_state.has_value()) return std::nullopt;
  auto bytes = std::move(*r.incoming_state);
  r.incoming_state.reset();
  rec_event(trc::EventKind::kRestore, r.info.machine, module,
            std::to_string(bytes.size()) + " bytes", last_state_ctx_[module]);
  return bytes;
}

bool Bus::has_incoming_state(const std::string& module) const {
  return rec(module).incoming_state.has_value();
}

// --- reliable delivery layer -------------------------------------------------

namespace {
bool contains_id(const std::vector<std::uint64_t>& ids, std::uint64_t id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}
}  // namespace

FaultDecision Bus::consult_fault(const std::string& src_machine,
                                 const std::string& dst_machine) {
  if (!fault_) return {};
  return fault_(src_machine, dst_machine);
}

void Bus::chaos_metric(const char* name, const char* kind) {
  if (metrics_on()) {
    metrics_->counter(name, {{"kind", kind}}).inc();
  }
}

trc::TraceContext Bus::rec_event(trc::EventKind kind,
                                 const std::string& machine,
                                 const std::string& module, std::string detail,
                                 const trc::TraceContext& cause) {
  if (!tracer_on()) return {};
  return tracer_->record(kind, machine, module, std::move(detail), cause);
}

std::string Bus::machine_of_or(const std::string& module,
                               const std::string& fallback) const {
  auto it = modules_.find(module);
  return it == modules_.end() ? fallback : it->second.info.machine;
}

void Bus::update_reliable_gauges() {
  if (!metrics_on()) return;
  metrics_->gauge("surgeon_bus_unacked_messages")
      .set(static_cast<std::int64_t>(unacked_total()));
  metrics_->gauge("surgeon_bus_ooo_buffered")
      .set(static_cast<std::int64_t>(ooo_total()));
}

std::size_t Bus::unacked_total() const noexcept {
  std::size_t n = 0;
  for (const auto& [key, ts] : tx_streams_) n += ts.unacked.size();
  return n;
}

std::size_t Bus::ooo_total() const noexcept {
  std::size_t n = 0;
  for (const Endpoint& ep : slab_) {
    if (!ep.in_use) continue;
    for (const auto& [stream, rx] : ep.rx) n += rx.ooo.size();
  }
  return n;
}

std::size_t Bus::pending_control_total() const noexcept {
  return control_.size();
}

std::size_t Bus::applied_control_size(const std::string& module) const {
  return rec(module).applied_control.size();
}

void Bus::cancel_pending_control(const std::string& module) {
  std::erase_if(control_,
                [&](const auto& kv) { return kv.second.target == module; });
}

void Bus::note_module_crashed(const std::string& module, std::string detail) {
  if (metrics_on()) {
    metrics_->counter("surgeon_chaos_crashes_total", {{"module", module}})
        .inc();
  }
  rec_event(trc::EventKind::kCrash, machine_of_or(module, "bus"), module,
            std::move(detail));
}

void Bus::deliver_into(Endpoint& ep, Message msg) {
  if (tracer_on()) {
    trc::TraceContext deliver_ctx =
        tracer_->record_at(ep.owner->trace_site, trc::EventKind::kDeliver,
                           ep.trace_detail, msg.trace_ctx);
    // Request-tagged messages carry the deliver context while queued, so
    // the eventual dequeue can record kReceive with the deliver as cause
    // (queue wait = receive.at - deliver.at). Untagged messages keep their
    // original header: byte-identical behavior to pre-slo traces.
    if (msg.trace_ctx.request != 0) msg.trace_ctx = deliver_ctx;
  }
  ep.queue.push_back(std::move(msg));
  ++ep.owner->queued;
  ++stats_.messages_delivered;
  if (metrics_on()) {
    ep.delivered_ctr->inc();
    note_depth(ep);
  }
  wake(ep.module);
}

void Bus::reliable_send(EndpointRef ref, Endpoint& ep, Message msg) {
  TxStream& ts = tx_streams_[ep.stream_id];
  if (ts.owner == kNullEndpointRef) ts.owner = ref;
  msg.stream = ep.stream_id;
  msg.seq = ts.next_seq++;
  const std::uint64_t seq = msg.seq;
  TxEntry entry;
  entry.msg = std::move(msg);
  entry.timeout_us = delivery_.retransmit_timeout_us;
  ts.unacked.emplace(seq, std::move(entry));
  transmit_entry(ep.stream_id, seq, /*retransmit=*/false);
  arm_retransmit(ep.stream_id, seq, delivery_.retransmit_timeout_us);
  update_reliable_gauges();
}

bool Bus::entry_fully_acked(const TxStream& ts, const TxEntry& entry) {
  const Endpoint* owner_ep = deref(ts.owner);
  // Owner gone -- nobody is left to retransmit from; the stream entry is
  // garbage unless a capture repointed ownership first.
  if (owner_ep == nullptr) return true;
  for (const PeerLink& pl : owner_ep->peers) {
    const Endpoint& peer = slab_[endpoint_slot(pl.ref)];
    if (!contains_id(entry.acked_by, peer.owner->uid)) return false;
  }
  // No unacked peer left -- either everyone acked or the endpoint became
  // unbound, in which case there is nobody left to deliver to.
  return true;
}

void Bus::transmit_entry(StreamKey stream, std::uint64_t seq, bool retransmit) {
  auto sit = tx_streams_.find(stream);
  if (sit == tx_streams_.end()) return;
  TxStream& ts = sit->second;
  auto eit = ts.unacked.find(seq);
  if (eit == ts.unacked.end()) return;
  TxEntry& entry = eit->second;
  Endpoint* owner_ep = deref(ts.owner);
  if (owner_ep == nullptr) {
    ts.unacked.erase(eit);
    update_reliable_gauges();
    return;
  }
  const std::string& src_machine = owner_ep->owner->info.machine;
  ++entry.attempts;
  // The context copies carry: the original send for the first transmission,
  // the retransmit event (itself caused by the send) for retries — so a
  // receiver's deliver parents on the transmission that actually reached it
  // while entry.msg keeps the original send context for the next retry.
  trc::TraceContext tx_ctx = entry.msg.trace_ctx;
  if (retransmit) {
    ++rstats_.retransmits;
    chaos_metric("surgeon_bus_retransmits_total", "message");
    tx_ctx = rec_event(trc::EventKind::kRetransmit, src_machine,
                       owner_ep->module,
                       owner_ep->spec.name + " seq " + std::to_string(seq) +
                           " attempt " + std::to_string(entry.attempts),
                       entry.msg.trace_ctx);
  }
  // Iterate by index: scheduling may not mutate peers, but the fault hook
  // is user code, so take no lasting references into the adjacency.
  for (std::size_t i = 0; i < owner_ep->peers.size(); ++i) {
    const PeerLink pl = owner_ep->peers[i];
    const Endpoint& peer = slab_[endpoint_slot(pl.ref)];
    if (contains_id(entry.acked_by, peer.owner->uid)) continue;
    auto latency = sim_->link_latency(pl.same_machine);
    FaultDecision fd = consult_fault(*pl.src_machine, *pl.dst_machine);
    ++rstats_.transmissions;
    chaos_metric("surgeon_bus_transmissions_total", "message");
    if (fd.drop) {
      ++rstats_.chaos_drops;
      chaos_metric("surgeon_bus_chaos_drops_total", "message");
      rec_event(trc::EventKind::kDrop, *pl.src_machine, peer.module,
                peer.spec.name + " (chaos)", tx_ctx);
    } else {
      Message copy = entry.msg;
      copy.trace_ctx = tx_ctx;
      const std::uint32_t fslot = inflight_acquire(pl.ref, std::move(copy));
      sim_->schedule_after(latency + fd.extra_delay_us, [this, fslot] {
        reliable_arrive_inflight(fslot);
      });
    }
    if (fd.duplicate) {
      ++rstats_.dup_injected;
      ++rstats_.transmissions;
      chaos_metric("surgeon_bus_dup_injected_total", "message");
      chaos_metric("surgeon_bus_transmissions_total", "message");
      Message copy = entry.msg;
      copy.trace_ctx = tx_ctx;
      const std::uint32_t fslot = inflight_acquire(pl.ref, std::move(copy));
      sim_->schedule_after(latency + fd.duplicate_delay_us, [this, fslot] {
        reliable_arrive_inflight(fslot);
      });
    }
  }
}

void Bus::arm_retransmit(StreamKey stream, std::uint64_t seq,
                         net::SimTime timeout_us) {
  sim_->schedule_after(timeout_us, [this, stream, seq] {
    auto sit = tx_streams_.find(stream);
    if (sit == tx_streams_.end()) return;  // stream retired; lazy cancel
    TxStream& ts = sit->second;
    auto eit = ts.unacked.find(seq);
    if (eit == ts.unacked.end()) return;  // acked meanwhile; lazy cancel
    TxEntry& entry = eit->second;
    if (entry_fully_acked(ts, entry)) {
      ts.unacked.erase(eit);
      update_reliable_gauges();
      return;
    }
    if (entry.attempts >= delivery_.max_attempts) {
      ++rstats_.gave_up;
      chaos_metric("surgeon_bus_delivery_gave_up_total", "message");
      const Endpoint* owner_ep = deref(ts.owner);
      const std::string owner_module =
          owner_ep != nullptr ? owner_ep->module : "?";
      const std::string owner_iface =
          owner_ep != nullptr ? owner_ep->spec.name : "?";
      rec_event(trc::EventKind::kDrop, machine_of_or(owner_module, "bus"),
                owner_module,
                owner_iface + " seq " + std::to_string(seq) + " (gave up)",
                entry.msg.trace_ctx);
      ts.unacked.erase(eit);
      update_reliable_gauges();
      return;
    }
    entry.timeout_us =
        std::min<net::SimTime>(entry.timeout_us * 2, delivery_.max_timeout_us);
    net::SimTime next = entry.timeout_us;
    transmit_entry(stream, seq, /*retransmit=*/true);
    arm_retransmit(stream, seq, next);
  });
}

void Bus::reliable_arrive(EndpointRef dst, Message msg) {
  Endpoint* epp = deref(dst);
  if (epp == nullptr) {
    // The destination is gone; unlike fire-and-forget, this is not a loss:
    // the sender keeps retransmitting toward whoever inherits the binding.
    const Endpoint& gone = slab_[endpoint_slot(dst)];
    rec_event(trc::EventKind::kDrop, machine_of_or(gone.module, "bus"),
              gone.module, gone.spec.name + " (in flight to removed module)",
              msg.trace_ctx);
    return;
  }
  Endpoint& ep = *epp;
  if (ep.rx_retired) {
    rec_event(trc::EventKind::kDrop, ep.owner->info.machine, ep.module,
              ep.spec.name + " (retired)", msg.trace_ctx);
    return;  // no ack: the retransmit follows the rebound binding
  }
  const StreamKey stream = msg.stream;
  const std::uint64_t seq = msg.seq;
  RxStream& rx = ep.rx[stream];
  bool have_it = false;
  if (seq < rx.next_expected || rx.ooo.contains(seq)) {
    ++rstats_.dup_discards;
    chaos_metric("surgeon_bus_dups_discarded_total", "message");
    rec_event(trc::EventKind::kDupDiscard, ep.owner->info.machine, ep.module,
              ep.spec.name + " seq " + std::to_string(seq), msg.trace_ctx);
    have_it = true;  // re-ack: the first ack may have been lost
  } else if (seq == rx.next_expected) {
    deliver_into(ep, std::move(msg));
    ++rx.next_expected;
    while (!rx.ooo.empty() && rx.ooo.begin()->first == rx.next_expected) {
      deliver_into(ep, std::move(rx.ooo.begin()->second));
      rx.ooo.erase(rx.ooo.begin());
      ++rx.next_expected;
    }
    have_it = true;
    update_reliable_gauges();
  } else if (rx.ooo.size() < delivery_.max_ooo_buffered) {
    rx.ooo.emplace(seq, std::move(msg));
    ++rstats_.ooo_buffered;
    chaos_metric("surgeon_bus_ooo_buffered_total", "message");
    have_it = true;
    update_reliable_gauges();
  } else {
    // Window full: discard unacked; the retransmit will refill it once the
    // gap closes. Bounds receiver memory under adversarial reordering.
    ++rstats_.ooo_overflow;
    chaos_metric("surgeon_bus_ooo_overflow_total", "message");
    rec_event(trc::EventKind::kDrop, ep.owner->info.machine, ep.module,
              ep.spec.name + " seq " + std::to_string(seq) + " (ooo overflow)",
              msg.trace_ctx);
  }
  if (have_it) send_ack(ep, stream, seq);
}

void Bus::send_ack(Endpoint& acker_ep, StreamKey stream, std::uint64_t seq) {
  auto sit = tx_streams_.find(stream);
  if (sit == tx_streams_.end()) return;  // sender retired the stream
  const Endpoint* owner_ep = deref(sit->second.owner);
  if (owner_ep == nullptr) return;
  const std::string& src_machine = acker_ep.owner->info.machine;
  const std::string& dst_machine = owner_ep->owner->info.machine;
  FaultDecision fd = consult_fault(src_machine, dst_machine);
  if (fd.drop) {
    ++rstats_.chaos_drops;
    chaos_metric("surgeon_bus_chaos_drops_total", "ack");
    return;
  }
  auto latency = sim_->message_latency(src_machine, dst_machine);
  const std::uint64_t acker_uid = acker_ep.owner->uid;
  sim_->schedule_after(latency + fd.extra_delay_us,
                       [this, acker_uid, stream, seq] {
                         on_ack(acker_uid, stream, seq);
                       });
}

void Bus::on_ack(std::uint64_t acker_uid, StreamKey stream,
                 std::uint64_t seq) {
  auto sit = tx_streams_.find(stream);
  if (sit == tx_streams_.end()) return;
  TxStream& ts = sit->second;
  auto eit = ts.unacked.find(seq);
  if (eit == ts.unacked.end()) return;
  ++rstats_.acks_delivered;
  chaos_metric("surgeon_bus_acks_total", "message");
  TxEntry& entry = eit->second;
  if (!contains_id(entry.acked_by, acker_uid)) {
    entry.acked_by.push_back(acker_uid);
  }
  if (entry_fully_acked(ts, entry)) {
    ts.unacked.erase(eit);
    update_reliable_gauges();
  }
}

void Bus::migrate_streams(const BindingEnd& from_end,
                          const BindingEnd& to_end) {
  if (from_end == to_end) return;
  const EndpointId from_slot = resolve_slot(from_end.module, from_end.iface);
  const EndpointId to_slot = resolve_slot(to_end.module, to_end.iface);
  Endpoint& from = slab_[from_slot];
  Endpoint& to = slab_[to_slot];
  // Outgoing side: the heir continues the predecessor's stream, so its
  // sequence numbers keep counting and unacked messages are retransmitted
  // by (and re-resolved from) the heir's bindings.
  auto ts_it = tx_streams_.find(from.stream_id);
  if (ts_it != tx_streams_.end() &&
      ts_it->second.owner == ref_of(from_slot)) {
    ts_it->second.owner = ref_of(to_slot);
  }
  to.stream_id = from.stream_id;
  // Incoming side: merge the resequencing windows so messages the
  // predecessor already accepted stay deduplicated at the heir.
  for (auto& [stream, rxs] : from.rx) {
    RxStream& dst = to.rx[stream];
    dst.next_expected = std::max(dst.next_expected, rxs.next_expected);
    for (auto& [seq, m] : rxs.ooo) {
      if (seq >= dst.next_expected && !dst.ooo.contains(seq)) {
        dst.ooo.emplace(seq, std::move(m));
      }
    }
    while (!dst.ooo.empty() && dst.ooo.begin()->first == dst.next_expected) {
      deliver_into(to, std::move(dst.ooo.begin()->second));
      dst.ooo.erase(dst.ooo.begin());
      ++dst.next_expected;
    }
  }
  from.rx.clear();
  from.rx_retired = true;
  update_reliable_gauges();
}

void Bus::transmit_control(std::uint64_t id) {
  auto it = control_.find(id);
  if (it == control_.end()) return;
  ControlTx& tx = it->second;
  auto mod_it = modules_.find(tx.target);
  if (mod_it == modules_.end() || mod_it->second.uid != tx.uid) {
    control_.erase(it);  // target gone; nothing to deliver to
    return;
  }
  ++tx.attempts;
  const bool is_signal = tx.kind == ControlTx::Kind::kSignal;
  const char* kind_str = is_signal ? "signal" : "state";
  if (tx.attempts > 1) {
    ++rstats_.retransmits;
    chaos_metric("surgeon_bus_retransmits_total", kind_str);
    rec_event(trc::EventKind::kRetransmit, tx.from_machine, tx.target,
              std::string(kind_str) + " attempt " +
                  std::to_string(tx.attempts),
              tx.trace_ctx);
  }
  const std::string& dst_machine = mod_it->second.info.machine;
  FaultDecision fd = consult_fault(tx.from_machine, dst_machine);
  ++rstats_.transmissions;
  chaos_metric("surgeon_bus_transmissions_total", kind_str);
  if (fd.drop) {
    ++rstats_.chaos_drops;
    chaos_metric("surgeon_bus_chaos_drops_total", kind_str);
    rec_event(trc::EventKind::kDrop, tx.from_machine, tx.target,
              std::string(kind_str) + " (chaos)", tx.trace_ctx);
    return;
  }
  auto latency = sim_->message_latency(tx.from_machine, dst_machine);
  const std::string target = tx.target;
  const std::uint64_t uid = tx.uid;
  if (is_signal) {
    sim_->schedule_after(latency + fd.extra_delay_us,
                         [this, target, id, uid] {
                           auto m = modules_.find(target);
                           if (m == modules_.end() || m->second.uid != uid)
                             return;
                           apply_control(target, id, nullptr);
                         });
  } else {
    auto bytes = tx.bytes;
    sim_->schedule_after(
        latency + fd.extra_delay_us,
        [this, target, id, uid, bytes = std::move(bytes)] {
          auto m = modules_.find(target);
          if (m == modules_.end() || m->second.uid != uid) return;
          apply_control(target, id, &bytes);
        });
  }
}

void Bus::arm_control_retry(std::uint64_t id, net::SimTime timeout_us) {
  sim_->schedule_after(timeout_us, [this, id] {
    auto it = control_.find(id);
    if (it == control_.end()) return;  // acked or cancelled; lazy cancel
    ControlTx& tx = it->second;
    const char* kind_str =
        tx.kind == ControlTx::Kind::kSignal ? "signal" : "state";
    if (tx.attempts >= delivery_.max_attempts) {
      ++rstats_.gave_up;
      chaos_metric("surgeon_bus_delivery_gave_up_total", kind_str);
      rec_event(trc::EventKind::kDrop, tx.from_machine, tx.target,
                std::string(kind_str) + " (gave up)", tx.trace_ctx);
      control_.erase(it);
      return;
    }
    tx.timeout_us =
        std::min<net::SimTime>(tx.timeout_us * 2, delivery_.max_timeout_us);
    net::SimTime next = tx.timeout_us;
    transmit_control(id);
    arm_control_retry(id, next);
  });
}

bool Bus::control_applied(const ModuleRec& r, std::uint64_t id) {
  return std::find(r.applied_control.begin(), r.applied_control.end(), id) !=
         r.applied_control.end();
}

void Bus::note_control_applied(ModuleRec& r, std::uint64_t id) {
  r.applied_control.push_back(id);
  if (r.applied_control.size() > kAppliedControlWindow) {
    r.applied_control.pop_front();
  }
}

void Bus::apply_control(const std::string& module, std::uint64_t id,
                        const std::vector<std::uint8_t>* state) {
  auto it = modules_.find(module);
  if (it == modules_.end()) return;
  ModuleRec& r = it->second;
  auto ctl_it = control_.find(id);
  const trc::TraceContext cause =
      ctl_it == control_.end() ? trc::TraceContext{}
                               : ctl_it->second.trace_ctx;
  const char* kind_str = state == nullptr ? "signal" : "state";
  if (control_applied(r, id)) {
    ++rstats_.dup_discards;
    chaos_metric("surgeon_bus_dups_discarded_total", kind_str);
    rec_event(trc::EventKind::kDupDiscard, r.info.machine, module,
              std::string(kind_str) + " id " + std::to_string(id), cause);
  } else {
    note_control_applied(r, id);
    if (state == nullptr) {
      arrive_signal(r, module, cause);
    } else {
      arrive_state(r, module, *state, cause);
    }
  }
  ack_control(module, id);
}

void Bus::arrive_signal(ModuleRec& r, const std::string& module,
                        const trc::TraceContext& cause) {
  r.reconfig_signaled = true;
  ++stats_.signals_delivered;
  if (metrics_on()) {
    metrics_->counter("surgeon_bus_signals_total", {{"module", module}}).inc();
  }
  rec_event(trc::EventKind::kSignal, r.info.machine, module,
            "reconfigure delivered", cause);
  wake(module);
}

void Bus::arrive_state(ModuleRec& r, const std::string& module,
                       const std::vector<std::uint8_t>& bytes,
                       const trc::TraceContext& cause) {
  last_state_ctx_[module] =
      rec_event(trc::EventKind::kStateDeliver, r.info.machine, module,
                std::to_string(bytes.size()) + " bytes", cause);
  if (state_observer_) state_observer_(module, "delivered", bytes);
  r.incoming_state = bytes;
  wake(module);
}

void Bus::ack_control(const std::string& module, std::uint64_t id) {
  auto it = control_.find(id);
  if (it == control_.end()) return;  // already acked
  auto mod_it = modules_.find(module);
  if (mod_it == modules_.end()) return;
  const ControlTx& tx = it->second;
  const char* kind_str =
      tx.kind == ControlTx::Kind::kSignal ? "signal" : "state";
  FaultDecision fd =
      consult_fault(mod_it->second.info.machine, tx.from_machine);
  if (fd.drop) {
    ++rstats_.chaos_drops;
    chaos_metric("surgeon_bus_chaos_drops_total", "ack");
    return;
  }
  auto latency =
      sim_->message_latency(mod_it->second.info.machine, tx.from_machine);
  std::string kind_copy = kind_str;
  sim_->schedule_after(latency + fd.extra_delay_us,
                       [this, id, kind_copy] {
                         auto cit = control_.find(id);
                         if (cit == control_.end()) return;
                         ++rstats_.acks_delivered;
                         chaos_metric("surgeon_bus_acks_total",
                                      kind_copy.c_str());
                         control_.erase(cit);
                       });
}

}  // namespace surgeon::bus
