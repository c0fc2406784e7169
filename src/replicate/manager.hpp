// GroupManager: the control loop that keeps replica groups redundant.
//
// Wiring mirrors recover::Supervisor -- a FailureDetector reads the
// runtime's liveness on its own ticker, a sweep ticker acts on verdicts,
// and a control re-entrancy flag keeps nested ticks (every script wait
// pumps the scheduler) from starting overlapping repairs. The difference
// is the unit of failure: the manager reads the detector's per-HOST
// verdicts, and a confirmed-dead machine triggers a pull rebuild of every
// group that lost a member on it, placed by the consistent-hash ring (dead
// machine out, spare in). A machine that joins can likewise trigger a
// rebalance, which moves members whose hosts fell out of their group's
// placement.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/ticker.hpp"
#include "recover/detector.hpp"
#include "replicate/kv.hpp"
#include "replicate/rebuild.hpp"

namespace surgeon::replicate {

struct ManagerOptions {
  net::SimTime heartbeat_interval_us = 10'000;
  net::SimTime sweep_interval_us = 25'000;
  recover::DetectorOptions detector;
  /// Machines eligible to replace a dead one, tried in order.
  std::vector<std::string> spares;
  /// Forwarded to every rebuild_group invocation.
  net::SimTime divulge_timeout_us = 5'000'000;
  net::SimTime restore_timeout_us = 10'000'000;
};

struct ManagerStats {
  std::uint64_t machines_rebuilt = 0;   // fully restored redundancy
  std::uint64_t groups_rebuilt = 0;     // successful rebuild_group runs
  std::uint64_t rebuild_failures = 0;   // thrown scripts (retried next sweep)
  std::uint64_t data_loss_groups = 0;   // no survivor left to pull from
  std::uint64_t rebalance_moves = 0;
};

class GroupManager {
 public:
  /// Throws BusError, before anything is scheduled, for a zero heartbeat
  /// or sweep interval (its tick would never leave the microsecond).
  GroupManager(KvService& service, ManagerOptions options);
  GroupManager(const GroupManager&) = delete;
  GroupManager& operator=(const GroupManager&) = delete;

  /// Starts the detector and the sweep tick.
  void start();
  /// Stops both; pending ticks become no-ops (so does destruction).
  void stop() noexcept;

  /// Rebuilds every group that lost a member on `machine` (dead machine
  /// leaves the ring, first eligible spare joins). Returns true when every
  /// affected group is redundant again; on partial failure the machine
  /// stays tracked and the next sweep retries. Tests drive this directly;
  /// in production the sweep calls it on a confirmed-dead verdict.
  bool rebuild_machine(const std::string& machine);

  /// Adds a machine to the ring and moves members whose hosts fell out of
  /// their group's placement. Returns how many members moved.
  std::size_t rebalance(const std::string& new_machine);

  /// Publishes the surgeon_replica_role gauge (1 = primary, 2 = follower)
  /// for every current member; mh_top renders it as the ROLE column.
  void publish_roles();

  [[nodiscard]] recover::FailureDetector& detector() noexcept {
    return detector_;
  }
  [[nodiscard]] const ManagerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<reconfig::ReplaceReport>& rebuilds()
      const noexcept {
    return rebuilds_;
  }
  [[nodiscard]] bool running() const noexcept {
    return sweep_ticker_.running();
  }
  /// Role of a member by name: 1 primary (slot 0 of its group), 2 follower.
  [[nodiscard]] static int member_role(const std::string& instance);

 private:
  void sweep();
  void prune_departed();
  [[nodiscard]] std::string pick_spare() const;
  [[nodiscard]] std::string pick_target(std::size_t group,
                                        const std::set<std::string>& occupied)
      const;
  [[nodiscard]] bool member_dead(const std::string& member) const;

  KvService* service_;
  app::Runtime* rt_;
  ManagerOptions options_;
  recover::FailureDetector detector_;
  ManagerStats stats_;
  std::vector<reconfig::ReplaceReport> rebuilds_;
  std::set<std::string> lost_groups_;  // counted once, skipped thereafter
  net::Ticker sweep_ticker_;
  bool in_control_ = false;
  /// Bus topology generation the last prune_departed pass ran at.
  std::optional<std::uint64_t> pruned_generation_;
};

}  // namespace surgeon::replicate
