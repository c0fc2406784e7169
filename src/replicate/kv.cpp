#include "replicate/kv.hpp"

#include <algorithm>
#include <random>

#include "cfg/parser.hpp"
#include "support/diag.hpp"

namespace surgeon::replicate {

using bus::BindingEnd;

std::string kv_shard_source(std::size_t shards) {
  // Four scalar slots per member; key -> (group = key % shards, slot =
  // key / shards). PUT (op 1) is an idempotent set, so a rebuild's
  // at-least-once redelivery re-applies the same value harmlessly. The
  // reconfiguration point sits right after the blocking read -- the
  // counter-server shape -- so a nudged member divulges promptly.
  return R"mc(
int s0 = 0;
int s1 = 0;
int s2 = 0;
int s3 = 0;

void apply(int op, int slot, int value, int *out)
{
  if (op == 1) {
    if (slot == 0) { s0 = value; }
    if (slot == 1) { s1 = value; }
    if (slot == 2) { s2 = value; }
    if (slot == 3) { s3 = value; }
    *out = value;
    return;
  }
  *out = 0;
  if (slot == 0) { *out = s0; }
  if (slot == 1) { *out = s1; }
  if (slot == 2) { *out = s2; }
  if (slot == 3) { *out = s3; }
}

void main()
{
  int op;
  int seq;
  int key;
  int value;
  int slot;
  int result;
  while (1) {
    mh_read("req", "iiii", &op, &seq, &key, &value);
RP:
    slot = (key / )mc" +
         std::to_string(shards) + R"mc() % 4;
    apply(op, slot, value, &result);
    mh_write("req", "iiii", op, seq, key, result);
  }
}
)mc";
}

std::string kv_member_name(std::size_t group, std::size_t r) {
  return "s" + std::to_string(group) + "x" + std::to_string(r);
}

std::string kv_group_key(std::size_t group) {
  return "group-" + std::to_string(group);
}

std::string kv_config_text(
    const std::vector<std::vector<std::string>>& placements) {
  std::string text = R"cfg(
module shard {
  source = "./shard.mc" ::
  server interface req pattern = {integer, integer, integer, integer} returns = {integer, integer, integer, integer} ::
  reconfiguration point = {RP} ::
}

application kv {
)cfg";
  for (std::size_t g = 0; g < placements.size(); ++g) {
    for (std::size_t r = 0; r < placements[g].size(); ++r) {
      text += "  instance shard as " + kv_member_name(g, r) + " on \"" +
              placements[g][r] + "\" ::\n";
    }
  }
  text += "}\n";
  return text;
}

// --- KvRouter ----------------------------------------------------------------

namespace {

bus::ModuleInfo router_info(std::string machine, std::size_t shards) {
  bus::ModuleInfo info;
  info.name = "kv-router";
  info.machine = std::move(machine);
  info.interfaces.push_back(
      bus::InterfaceSpec{"cli", bus::IfaceRole::kServer, "iiii", "iiii"});
  for (std::size_t g = 0; g < shards; ++g) {
    info.interfaces.push_back(bus::InterfaceSpec{
        KvRouter::group_iface(g), bus::IfaceRole::kServer, "iiii", "iiii"});
  }
  return info;
}

}  // namespace

KvRouter::KvRouter(bus::Bus& bus, std::string machine, std::size_t shards,
                   net::SimTime tick_us, net::SimTime retry_us)
    : NativeModule(bus, router_info(std::move(machine), shards), tick_us,
                   tick_us),
      shards_(shards),
      retry_us_(retry_us),
      groups_(shards),
      group_ports_(shards, bus::kNullEndpointRef) {}

std::vector<std::string> KvRouter::members(std::size_t group) const {
  std::vector<std::string> out;
  for (const auto& peer : bus().bound_peers(group_port(group))) {
    out.push_back(peer.module);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void KvRouter::nudge(std::size_t group) {
  // seq 0 never matches a pending operation, so every reply is discarded.
  bus().send(group_port(group),
             {ser::Value{std::int64_t{2}}, ser::Value{std::int64_t{0}},
              ser::Value{static_cast<std::int64_t>(group)},
              ser::Value{std::int64_t{0}}});
}

std::size_t KvRouter::pending_ops() const noexcept {
  std::size_t n = 0;
  for (std::size_t g : active_) {
    n += groups_[g].waiting.size() + (groups_[g].inflight.has_value() ? 1 : 0);
  }
  return n;
}

bus::EndpointRef KvRouter::group_port(std::size_t g) const {
  bus::EndpointRef& ref = group_ports_[g];
  if (!bus().endpoint_current(ref)) {
    ref = bus().resolve_endpoint(module_name(), group_iface(g));
  }
  return ref;
}

void KvRouter::fan_out(std::size_t g, PendingOp& op) {
  op.last_fanout_at = bus().simulator().now();
  bus().send(group_port(g), {ser::Value{op.op}, ser::Value{op.seq},
                             ser::Value{op.key}, ser::Value{op.value}});
}

void KvRouter::absorb_replies(std::size_t g) {
  while (auto msg = bus().receive(group_port(g))) {
    const auto& v = msg->values;
    if (v.size() != 4 || !v[1].is_int()) continue;
    const std::int64_t seq = v[1].as_int();
    if (seq == 0) continue;  // nudge echo
    Group& group = groups_[g];
    if (!group.inflight || group.inflight->seq != seq) {
      ++stats_.late_replies;
      continue;
    }
    group.inflight->replies[bus().source_of(*msg).module] = v[3].as_int();
  }
}

void KvRouter::progress(std::size_t g) {
  Group& group = groups_[g];
  if (!group.inflight && !group.waiting.empty()) {
    group.inflight = std::move(group.waiting.front());
    group.waiting.pop_front();
    fan_out(g, *group.inflight);
    return;
  }
  if (!group.inflight) return;
  PendingOp& op = *group.inflight;
  // Completion is judged against the CURRENT membership: a rebuild that
  // swapped members mid-operation means the heir must reply too (the retry
  // below re-fans the operation so it can). Peers come in bind-table
  // order; nothing below depends on it.
  const std::vector<BindingEnd> peers = bus().bound_peers(group_port(g));
  bool complete = !peers.empty();
  for (const BindingEnd& peer : peers) {
    if (!op.replies.contains(peer.module)) {
      complete = false;
      break;
    }
  }
  const net::SimTime now = bus().simulator().now();
  if (!complete) {
    if (now - op.last_fanout_at >= retry_us_) {
      ++stats_.refans;
      fan_out(g, op);
    }
    return;
  }
  std::int64_t result = op.value;
  if (op.op != 1) {
    // GET agreement: members that disagree mean some replica serves a
    // stale value -- invariant 7's "committed write resurfaces" half. The
    // fold is order-free: the largest reply, agreed when all are equal.
    result = op.replies.at(peers.front().module);
    bool agree = true;
    for (const BindingEnd& peer : peers) {
      const std::int64_t v = op.replies.at(peer.module);
      if (v != result) agree = false;
      result = std::max(result, v);
    }
    if (!agree) ++stats_.stale_gets;
    ++stats_.acked_gets;
  } else {
    ++stats_.acked_puts;
  }
  latencies_.push_back(KvLatencySample{now, now - op.accepted_at});
  client().write("cli", {ser::Value{op.op}, ser::Value{op.seq},
                         ser::Value{op.key}, ser::Value{result}});
  group.inflight.reset();
  // Let the next waiting operation start on this same tick.
  progress(g);
}

bool KvRouter::fold() {
  while (auto msg = client().try_read("cli")) {
    const auto& v = msg->values;
    if (v.size() != 4) continue;
    PendingOp op;
    op.op = v[0].as_int();
    op.seq = v[1].as_int();
    op.key = v[2].as_int();
    op.value = v[3].as_int();
    op.accepted_at = bus().simulator().now();
    const std::size_t g =
        static_cast<std::size_t>(op.key) % (shards_ == 0 ? 1 : shards_);
    if (groups_[g].idle()) {
      active_.insert(std::lower_bound(active_.begin(), active_.end(), g), g);
    }
    groups_[g].waiting.push_back(std::move(op));
  }
  // Replies can also land at an idle group (nudge echoes, replies to a
  // re-fan after the ack); a full poll would drain them into late_replies.
  // When the router holds more mail than its active groups do, this tick
  // is that full poll. Either way groups go in ascending order: fan-outs
  // consume fault draws and stream sequence numbers in send order.
  std::size_t active_mail = 0;
  for (std::size_t g : active_) active_mail += bus().queue_depth(group_port(g));
  const bool idle_mail = bus().queued_messages(module_name()) > active_mail;
  const std::size_t visits = idle_mail ? shards_ : active_.size();
  for (std::size_t i = 0; i < visits; ++i) {
    const std::size_t g = idle_mail ? i : active_[i];
    absorb_replies(g);
    progress(g);
  }
  std::erase_if(active_, [this](std::size_t g) { return groups_[g].idle(); });
  return true;
}

// --- KvClient ----------------------------------------------------------------

KvClient::KvClient(bus::Bus& bus, std::string machine, std::size_t shards,
                   std::uint64_t seed, int ops, net::SimTime tick_us)
    : NativeModule(bus,
                   {.name = "kv-client",
                    .machine = std::move(machine),
                    .source = {},
                    .interfaces = {{"req", bus::IfaceRole::kClient, "iiii",
                                    "iiii"}}},
                   tick_us, tick_us),
      shards_(shards) {
  // The operation script is fixed up front from the seed: roughly 60% PUT,
  // then a read-back GET of every key so the final report covers the whole
  // key space whether or not the random mix touched it.
  std::mt19937_64 rng(seed);
  const std::int64_t keys =
      static_cast<std::int64_t>(shards_) * kSlotsPerShard;
  for (int i = 0; i < ops; ++i) {
    Op op;
    op.key = static_cast<std::int64_t>(rng() % keys);
    if (rng() % 100 < 60) {
      op.op = 1;
      op.value = static_cast<std::int64_t>(1 + rng() % 1'000'000);
    } else {
      op.op = 2;
    }
    script_.push_back(op);
  }
  for (std::int64_t k = 0; k < keys; ++k) {
    script_.push_back(Op{3, k, 0});
  }
}

void KvClient::send_next() {
  if (next_op_ >= script_.size()) {
    done_ = true;
    return;
  }
  const Op& op = script_[next_op_];
  inflight_seq_ = static_cast<std::int64_t>(next_op_) + 1;
  ++next_op_;
  ++stats_.sent;
  const std::int64_t wire_op = op.op == 3 ? 2 : op.op;
  client().write("req", {ser::Value{wire_op}, ser::Value{inflight_seq_},
                         ser::Value{op.key}, ser::Value{op.value}});
}

bool KvClient::fold() {
  while (auto msg = client().try_read("req")) {
    const auto& v = msg->values;
    if (v.size() != 4 || v[1].as_int() != inflight_seq_) continue;
    const Op& op = script_[static_cast<std::size_t>(inflight_seq_) - 1];
    const std::int64_t value = v[3].as_int();
    ++stats_.acked;
    if (op.op == 1) {
      acked_[op.key] = op.value;
      acked_log_.push_back("acked put seq=" + std::to_string(inflight_seq_) +
                           " key=" + std::to_string(op.key) + " value=" +
                           std::to_string(op.value));
    } else {
      // Session guarantee: the client is FIFO with one outstanding
      // operation, so this GET follows every acknowledged PUT. Any other
      // value is a lost acknowledged write or a stale resurrection.
      const std::int64_t expected =
          acked_.contains(op.key) ? acked_.at(op.key) : 0;
      if (value != expected) {
        violations_.push_back(
            "ledger mismatch seq=" + std::to_string(inflight_seq_) + " key=" +
            std::to_string(op.key) + " got=" + std::to_string(value) +
            " expected=" + std::to_string(expected));
      }
      if (op.op == 3) {
        readback_[op.key] = value;
      } else {
        acked_log_.push_back("acked get seq=" + std::to_string(inflight_seq_) +
                             " key=" + std::to_string(op.key) + " value=" +
                             std::to_string(value));
      }
    }
    inflight_seq_ = 0;
  }
  if (inflight_seq_ == 0 && !done_) send_next();
  if (done_) stop();
  return true;
}

std::vector<std::string> KvClient::report() const {
  std::vector<std::string> lines = acked_log_;
  for (const auto& [key, value] : readback_) {
    lines.push_back("readback key=" + std::to_string(key) + " value=" +
                    std::to_string(value));
  }
  for (const auto& v : violations_) lines.push_back("VIOLATION " + v);
  lines.push_back("kv-done acked=" + std::to_string(stats_.acked) +
                  " keys=" + std::to_string(readback_.size()));
  return lines;
}

// --- KvService ---------------------------------------------------------------

KvService::KvService(app::Runtime& rt, KvOptions options)
    : rt_(&rt), options_(std::move(options)), ring_(RingOptions{
          options_.vnodes, options_.seed}) {
  if (options_.machines.size() < options_.group_size) {
    throw support::BusError(
        "kv: need at least group_size machines for distinct placement");
  }
  for (const auto& m : options_.machines) ring_.add_machine(m);
  for (std::size_t g = 0; g < options_.shards; ++g) {
    placements_.push_back(ring_.place(kv_group_key(g), options_.group_size));
  }
}

void KvService::launch(int client_ops) {
  bus::Bus& bus = rt_->bus();
  router_ = std::make_unique<KvRouter>(bus, options_.control_machine,
                                       options_.shards, options_.tick_us,
                                       options_.retry_us);
  cfg::ConfigFile config = cfg::parse_config(kv_config_text(placements_));
  rt_->load_application(config, "kv", [&](const cfg::ModuleSpec&) {
    return kv_shard_source(options_.shards);
  });
  for (std::size_t g = 0; g < options_.shards; ++g) {
    for (std::size_t r = 0; r < placements_[g].size(); ++r) {
      bus.add_binding(BindingEnd{kv_member_name(g, r), "req"},
                      BindingEnd{router_->module_name(),
                                 KvRouter::group_iface(g)});
    }
  }
  client_ = std::make_unique<KvClient>(bus, options_.control_machine,
                                       options_.shards, options_.seed,
                                       client_ops, options_.tick_us);
  bus.add_binding(BindingEnd{client_->module_name(), "req"},
                  BindingEnd{router_->module_name(), "cli"});
}

bool KvService::run_to_completion(net::SimTime budget_us,
                                  std::uint64_t max_rounds) {
  const net::SimTime deadline = rt_->now() + budget_us;
  (void)rt_->run_until(
      [&] { return client_->done() || rt_->now() >= deadline; }, max_rounds);
  return client_->done();
}

}  // namespace surgeon::replicate
