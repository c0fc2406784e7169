#include "replicate/manager.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/diag.hpp"
#include "support/scope.hpp"

namespace surgeon::replicate {

GroupManager::GroupManager(KvService& service, ManagerOptions options)
    : service_(&service),
      rt_(&service.runtime()),
      options_(std::move(options)),
      detector_(options_.detector) {
  if (options_.heartbeat_interval_us == 0) {
    throw support::BusError(
        "ManagerOptions::heartbeat_interval_us must be nonzero");
  }
  if (options_.sweep_interval_us == 0) {
    throw support::BusError(
        "ManagerOptions::sweep_interval_us must be nonzero");
  }
}

int GroupManager::member_role(const std::string& instance) {
  const std::string_view stem = app::logical_name(instance);
  const auto x = stem.find('x');
  if (x == std::string_view::npos || x + 1 >= stem.size()) return 2;
  return stem.substr(x + 1) == "0" ? 1 : 2;
}

void GroupManager::start() {
  if (running()) return;
  detector_.start(*rt_, options_.heartbeat_interval_us);
  sweep_ticker_.start(rt_->simulator(), options_.sweep_interval_us, [this] {
    sweep();
    return options_.sweep_interval_us;
  });
  publish_roles();
}

void GroupManager::stop() noexcept {
  detector_.stop();
  sweep_ticker_.stop();
}

void GroupManager::prune_departed() {
  // Modules that left the bus (replaced, rebuilt away, removed) stop
  // beating for a reason; drop them before their silence slanders a
  // perfectly healthy machine. A module leaves only through
  // Bus::remove_module, which bumps the topology generation, so a sweep
  // that sees the generation unchanged since the last pass has nothing to
  // drop.
  const std::uint64_t generation = rt_->bus().module_topology_generation();
  if (pruned_generation_ == generation) return;
  pruned_generation_ = generation;
  for (const std::string& machine : detector_.machine_names()) {
    for (const std::string& module : detector_.modules_on(machine)) {
      if (!rt_->bus().has_module(module)) detector_.forget_module(module);
    }
  }
}

void GroupManager::sweep() {
  if (in_control_) return;
  prune_departed();
  for (const std::string& machine :
       detector_.machines_in(recover::MachineHealth::kConfirmed, rt_->now())) {
    (void)rebuild_machine(machine);
  }
}

bool GroupManager::member_dead(const std::string& member) const {
  if (rt_->module_crashed(member)) return true;
  if (!rt_->bus().has_module(member)) return false;
  return rt_->machine_dead(rt_->bus().module_info(member).machine);
}

std::string GroupManager::pick_spare() const {
  for (const std::string& spare : options_.spares) {
    if (!service_->ring().has_machine(spare) && !rt_->machine_dead(spare)) {
      return spare;
    }
  }
  return {};
}

std::string GroupManager::pick_target(
    std::size_t group, const std::set<std::string>& occupied) const {
  const auto candidates = service_->ring().place(
      kv_group_key(group), service_->options().group_size);
  for (const std::string& machine : candidates) {
    if (!occupied.contains(machine) && !rt_->machine_dead(machine)) {
      return machine;
    }
  }
  // Placement exhausted (every placed machine already hosts a member):
  // any live ring machine without a member keeps redundancy distinct.
  for (const std::string& machine : service_->ring().machines()) {
    if (!occupied.contains(machine) && !rt_->machine_dead(machine)) {
      return machine;
    }
  }
  return {};
}

bool GroupManager::rebuild_machine(const std::string& machine) {
  support::FlagScope control(in_control_);
  if (service_->ring().has_machine(machine)) {
    service_->ring().remove_machine(machine);
    const std::string spare = pick_spare();
    if (!spare.empty()) service_->ring().add_machine(spare);
  }
  KvRouter& router = service_->router();
  bool all_ok = true;
  for (std::size_t g = 0; g < service_->options().shards; ++g) {
    // A group can hold several corpses (overlapping machine deaths); each
    // rebuild changes membership, so re-read it every round.
    for (std::size_t round = 0;; ++round) {
      const std::vector<std::string> members = router.members(g);
      std::string dead;
      std::string survivor;
      std::set<std::string> occupied;
      for (const std::string& m : members) {
        if (member_dead(m)) {
          if (dead.empty()) dead = m;
        } else {
          if (survivor.empty()) survivor = m;
          if (rt_->bus().has_module(m)) {
            occupied.insert(rt_->bus().module_info(m).machine);
          }
        }
      }
      if (dead.empty()) break;
      if (round >= members.size()) {
        all_ok = false;
        break;
      }
      const std::string group_tag = kv_group_key(g);
      if (survivor.empty()) {
        if (!lost_groups_.contains(group_tag)) {
          lost_groups_.insert(group_tag);
          ++stats_.data_loss_groups;
        }
        all_ok = false;
        break;
      }
      const std::string target = pick_target(g, occupied);
      if (target.empty()) {
        all_ok = false;
        break;
      }
      reconfig::ReplaceOptions opts;
      opts.machine = target;
      opts.divulge_timeout_us = options_.divulge_timeout_us;
      opts.restore_timeout_us = options_.restore_timeout_us;
      opts.nudge = [&router, g] { router.nudge(g); };
      try {
        reconfig::ReplaceReport report =
            rebuild_group(*rt_, survivor, dead, opts);
        detector_.forget_module(survivor);
        detector_.forget_module(dead);
        ++stats_.groups_rebuilt;
        rebuilds_.push_back(std::move(report));
      } catch (const reconfig::ScriptError&) {
        ++stats_.rebuild_failures;
        all_ok = false;
        break;
      }
    }
  }
  if (all_ok) {
    // Only a fully redundant fleet silences the verdict; a partial rebuild
    // keeps the machine confirmed so the next sweep finishes the job.
    detector_.forget_machine(machine);
    ++stats_.machines_rebuilt;
    publish_roles();
  }
  return all_ok;
}

std::size_t GroupManager::rebalance(const std::string& new_machine) {
  support::FlagScope control(in_control_);
  if (!service_->ring().has_machine(new_machine)) {
    service_->ring().add_machine(new_machine);
  }
  KvRouter& router = service_->router();
  std::size_t moves = 0;
  for (std::size_t g = 0; g < service_->options().shards; ++g) {
    const auto placement = service_->ring().place(
        kv_group_key(g), service_->options().group_size);
    const std::vector<std::string> members = router.members(g);
    std::set<std::string> occupied;
    for (const std::string& m : members) {
      if (rt_->bus().has_module(m)) {
        occupied.insert(rt_->bus().module_info(m).machine);
      }
    }
    for (const std::string& m : members) {
      if (!rt_->bus().has_module(m) || member_dead(m)) continue;
      const std::string host = rt_->bus().module_info(m).machine;
      if (std::find(placement.begin(), placement.end(), host) !=
          placement.end()) {
        continue;
      }
      std::string target;
      for (const std::string& p : placement) {
        if (!occupied.contains(p)) {
          target = p;
          break;
        }
      }
      if (target.empty()) continue;
      // A member blocked in mh_read only reaches its reconfiguration point
      // when traffic arrives; the divulge wait keeps nudging its group.
      reconfig::ReplaceOptions opts;
      opts.machine = target;
      opts.nudge = [&router, g] { router.nudge(g); };
      try {
        (void)reconfig::replace_module(*rt_, m, opts);
        detector_.forget_module(m);
        occupied.erase(host);
        occupied.insert(target);
        ++moves;
        ++stats_.rebalance_moves;
      } catch (const reconfig::ScriptError&) {
        ++stats_.rebuild_failures;
      }
    }
  }
  publish_roles();
  return moves;
}

void GroupManager::publish_roles() {
  obs::MetricsRegistry& metrics = rt_->metrics();
  if (!metrics.enabled()) return;
  KvRouter& router = service_->router();
  for (std::size_t g = 0; g < service_->options().shards; ++g) {
    for (const std::string& m : router.members(g)) {
      metrics.gauge("surgeon_replica_role", {{"module", m}})
          .set(member_role(m));
    }
  }
}

}  // namespace surgeon::replicate
