// Sharded key-value workload: the service that replica groups protect.
//
// Topology: one native router on a control machine fronts `shards` replica
// groups of MiniC shard modules placed on the ring machines. The router
// fans every operation out to ALL current members of the key's group (a
// bus send delivers to every bound peer) and acknowledges the client only
// when every member has replied -- so an acknowledged write is applied at
// every live replica, and capturing ANY survivor's state after a machine
// loss reproduces every acknowledged write. That property is exactly chaos
// invariant 7; the router's stale-read counter checks the other half (a
// read that disagrees across members means a committed write resurfaced
// stale somewhere).
//
// Operations are PUT (op 1, idempotent set) and GET (op 2); at-least-once
// redelivery during rebuild is therefore harmless, and the router's
// retry tick re-fans an operation whose member acks went missing (a member
// died mid-fanout, or a rebuilt heir adopted the binding after the send).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "app/runtime.hpp"
#include "bus/native.hpp"
#include "replicate/placement.hpp"

namespace surgeon::replicate {

struct KvOptions {
  std::size_t shards = 4;       // replica groups (keys map key % shards)
  std::size_t group_size = 2;   // members per group
  /// Machines that host shard members (the ring population).
  std::vector<std::string> machines = {"m0", "m1", "m2"};
  /// Machine hosting the router and client; never killed, never placed on.
  std::string control_machine = "ctl";
  /// Ring seed: same machines + same seed => same placement.
  std::uint64_t seed = 1;
  std::uint32_t vnodes = 64;
  net::SimTime tick_us = 500;       // router/client polling cadence
  net::SimTime retry_us = 20'000;   // re-fanout an op missing acks this long
};

/// KEYS per group: each shard module holds this many scalar slots, so the
/// key space is [0, shards * kSlotsPerShard).
inline constexpr int kSlotsPerShard = 4;

/// MiniC source for one shard member: four global slots, PUT/GET dispatch,
/// reconfiguration point right after the blocking read (the counter-server
/// shape the chaos harness has battle-tested).
[[nodiscard]] std::string kv_shard_source(std::size_t shards);

/// Configuration text declaring the shard module and one application
/// instance per (group, member) at the given placements:
/// placements[g][r] = machine for member r of group g.
[[nodiscard]] std::string kv_config_text(
    const std::vector<std::vector<std::string>>& placements);

/// Shard instance base name for member `r` of group `g` ("s2x0"); rebuilt
/// heirs get runtime-generated @n suffixes on the same stem.
[[nodiscard]] std::string kv_member_name(std::size_t group, std::size_t r);

/// Ring key for a group ("group-2"): what gets hashed for placement.
[[nodiscard]] std::string kv_group_key(std::size_t group);

struct KvRouterStats {
  std::uint64_t acked_puts = 0;
  std::uint64_t acked_gets = 0;
  std::uint64_t stale_gets = 0;   // members disagreed on a GET value
  std::uint64_t refans = 0;       // retry re-fanouts
  std::uint64_t late_replies = 0; // replies for ops already acked
};

/// One completed-operation latency sample, for the rebuild benchmark's
/// before/during/after p99 comparison.
struct KvLatencySample {
  net::SimTime completed_at = 0;
  net::SimTime latency_us = 0;
};

/// The native router module. Per-group FIFO: one operation is outstanding
/// per group; later operations for the same group wait in the router. An
/// operation completes when every CURRENT bound member of the group has
/// replied to its sequence number -- membership is re-read from the bus on
/// every check, so a rebuild that swaps members mid-operation simply
/// extends the ack set the operation must collect (fed by the retry tick).
///
/// A tick costs the groups with work, not the fleet: it drains `cli`, then
/// visits only the active groups (an operation in flight or waiting), in
/// ascending order, and checks completion against the group's bound peers
/// with no sorted copy. Mail at an idle group (nudge echoes, replies to a
/// re-fan after the ack) still goes on the next tick: when the bus's
/// queued count for the router exceeds what the active groups hold, that
/// tick visits every group, as a full poll would.
class KvRouter final : public bus::NativeModule {
 public:
  KvRouter(bus::Bus& bus, std::string machine, std::size_t shards,
           net::SimTime tick_us, net::SimTime retry_us);

  [[nodiscard]] static std::string group_iface(std::size_t group) {
    return "g" + std::to_string(group);
  }
  /// Current members of a group, sorted: the modules bound to its
  /// interface. For callers outside the tick; progress reads the peers.
  [[nodiscard]] std::vector<std::string> members(std::size_t group) const;

  /// Sends a side-effect-free GET (seq 0, discarded on reply) into a group
  /// so members blocked in mh_read wake up and reach their reconfiguration
  /// point. The rebuild script calls this after signalling a survivor.
  void nudge(std::size_t group);

  [[nodiscard]] const KvRouterStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<KvLatencySample>& latencies() const noexcept {
    return latencies_;
  }
  [[nodiscard]] std::size_t pending_ops() const noexcept;

 private:
  struct PendingOp {
    std::int64_t op = 0;
    std::int64_t seq = 0;
    std::int64_t key = 0;
    std::int64_t value = 0;
    net::SimTime accepted_at = 0;
    net::SimTime last_fanout_at = 0;
    std::map<std::string, std::int64_t> replies;  // member -> replied value
  };
  struct Group {
    std::optional<PendingOp> inflight;
    std::deque<PendingOp> waiting;
    [[nodiscard]] bool idle() const noexcept {
      return !inflight && waiting.empty();
    }
  };

  bool fold() override;
  /// Endpoint handle of group `g`'s interface. Polls, fan-outs and peer
  /// reads go through it, so a tick resolves no interface names and
  /// touches only the active groups' handles; it re-resolves only when the
  /// bus reports it stale.
  [[nodiscard]] bus::EndpointRef group_port(std::size_t g) const;
  void fan_out(std::size_t g, PendingOp& op);
  void absorb_replies(std::size_t g);
  void progress(std::size_t g);

  std::size_t shards_;
  net::SimTime retry_us_;
  std::vector<Group> groups_;
  /// Groups with an operation in flight or waiting, ascending.
  std::vector<std::size_t> active_;
  mutable std::vector<bus::EndpointRef> group_ports_;
  KvRouterStats stats_;
  std::vector<KvLatencySample> latencies_;
};

struct KvClientStats {
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;
};

/// The native client module: issues a seeded PUT/GET mix one operation at
/// a time (global FIFO, so every GET observes all earlier acked PUTs),
/// keeps a ledger of acknowledged writes, and finishes with a read-back of
/// every key. Output is emitted only after the run completes, in key/seq
/// order, so golden-vs-chaos comparison is insensitive to completion-time
/// jitter introduced by a rebuild.
class KvClient final : public bus::NativeModule {
 public:
  KvClient(bus::Bus& bus, std::string machine, std::size_t shards,
           std::uint64_t seed, int ops, net::SimTime tick_us);

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const KvClientStats& stats() const noexcept { return stats_; }

  /// Last acknowledged PUT value per key (the ledger).
  [[nodiscard]] const std::map<std::int64_t, std::int64_t>& acked_writes()
      const noexcept {
    return acked_;
  }
  /// Final read-back value per key (filled when done()).
  [[nodiscard]] const std::map<std::int64_t, std::int64_t>& readback()
      const noexcept {
    return readback_;
  }
  /// Mid-run GETs whose reply did not match the ledger at issue time: each
  /// is an acknowledged write lost or a stale value resurfacing. Invariant
  /// 7's primary evidence.
  [[nodiscard]] const std::vector<std::string>& ledger_violations()
      const noexcept {
    return violations_;
  }
  /// Deterministic end-of-run report, one line per entry.
  [[nodiscard]] std::vector<std::string> report() const;

 private:
  struct Op {
    std::int64_t op = 0;  // 1 PUT, 2 GET, 3 read-back GET
    std::int64_t key = 0;
    std::int64_t value = 0;
  };
  /// Takes the reply to the operation in flight and sends the next one;
  /// stops the module once the script is done.
  bool fold() override;
  void send_next();

  std::size_t shards_;
  std::vector<Op> script_;      // the seeded op sequence + read-back tail
  std::size_t next_op_ = 0;
  std::int64_t inflight_seq_ = 0;  // 0 = idle
  std::map<std::int64_t, std::int64_t> acked_;
  std::map<std::int64_t, std::int64_t> readback_;
  std::vector<std::string> violations_;
  std::vector<std::string> acked_log_;  // "seq op key value", seq order
  KvClientStats stats_;
  bool done_ = false;
};

/// The whole service: ring, placed shard groups, router, client.
class KvService {
 public:
  KvService(app::Runtime& rt, KvOptions options);

  /// Places every group on the ring, loads the shard application, creates
  /// the router and client, and binds everything.
  void launch(int client_ops);

  [[nodiscard]] app::Runtime& runtime() noexcept { return *rt_; }
  [[nodiscard]] const KvOptions& options() const noexcept { return options_; }
  [[nodiscard]] HashRing& ring() noexcept { return ring_; }
  [[nodiscard]] KvRouter& router() { return *router_; }
  [[nodiscard]] KvClient& client() { return *client_; }
  /// Initial placement, group-major (before any rebuild).
  [[nodiscard]] const std::vector<std::vector<std::string>>& placements()
      const noexcept {
    return placements_;
  }

  /// Runs until the client finishes or `budget_us` virtual time passes.
  /// Returns true when the client completed its script.
  bool run_to_completion(net::SimTime budget_us, std::uint64_t max_rounds);

 private:
  app::Runtime* rt_;
  KvOptions options_;
  HashRing ring_;
  std::vector<std::vector<std::string>> placements_;
  std::unique_ptr<KvRouter> router_;
  std::unique_ptr<KvClient> client_;
};

}  // namespace surgeon::replicate
