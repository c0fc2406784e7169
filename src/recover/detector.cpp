#include "recover/detector.hpp"

#include <iterator>
#include <tuple>

namespace surgeon::recover {

std::vector<std::string> FailureDetector::suspects(net::SimTime now) const {
  std::vector<std::string> out;
  for (const auto& [module, at] : last_) {
    if (now > at && now - at > options_.suspicion_timeout_us) {
      out.push_back(module);
    }
  }
  return out;  // map iteration order is already sorted by name
}

std::optional<net::SimTime> FailureDetector::last_beat(
    const std::string& module) const {
  auto it = last_.find(module);
  if (it == last_.end()) return std::nullopt;
  return it->second;
}

// --- MachineDetector --------------------------------------------------------

const char* machine_health_name(MachineHealth h) noexcept {
  switch (h) {
    case MachineHealth::kAlive: return "alive";
    case MachineHealth::kSuspect: return "suspect";
    case MachineHealth::kConfirmed: return "confirmed";
  }
  return "?";
}

void MachineDetector::beat(const std::string& module,
                           const std::string& machine, net::SimTime at) {
  walked_generation_.reset();
  (void)attribute(module, machine, at);
}

void MachineDetector::tick(net::SimTime at, std::uint64_t generation,
                           std::span<const app::LiveProcess> live) {
  if (walked_generation_ == generation) {
    beats_ += live.size();
    for (const MachineMap::iterator rec : walked_machines_) {
      if (at > rec->second.last) rec->second.last = at;
    }
    return;
  }
  walked_generation_.reset();
  walked_machines_.clear();
  ++walks_;
  for (const app::LiveProcess& process : live) {
    const MachineMap::iterator rec =
        attribute(*process.instance, *process.host, at);
    if (rec->second.walk != walks_) {
      rec->second.walk = walks_;
      walked_machines_.push_back(rec);
    }
  }
  walked_generation_ = generation;
}

MachineDetector::MachineMap::iterator MachineDetector::attribute(
    const std::string& module, const std::string& machine, net::SimTime at) {
  ++beats_;
  ModuleMap::iterator attributed = hint_;
  if (attributed == module_machine_.end() || attributed->first != module ||
      attributed->second->first != machine) {
    bool fresh = false;
    std::tie(attributed, fresh) = module_machine_.try_emplace(module);
    if (!fresh && attributed->second->first != machine) {
      // A module migrating between machines (move_module) must not leave a
      // stale beat behind on its old host keeping a dead machine "alive".
      detach(attributed->second, module);
      fresh = true;
    }
    if (fresh) {
      attributed->second = machines_.try_emplace(machine).first;
      attributed->second->second.modules.insert(module);
    }
  }
  const MachineMap::iterator rec = attributed->second;
  if (at > rec->second.last) rec->second.last = at;
  hint_ = std::next(attributed);
  if (hint_ == module_machine_.end()) hint_ = module_machine_.begin();
  return rec;
}

void MachineDetector::detach(MachineMap::iterator machine,
                             const std::string& module) {
  machine->second.modules.erase(module);
  if (machine->second.modules.empty()) machines_.erase(machine);
}

void MachineDetector::forget_module(const std::string& module) {
  auto attributed = module_machine_.find(module);
  if (attributed == module_machine_.end()) return;
  walked_generation_.reset();
  detach(attributed->second, module);
  module_machine_.erase(attributed);
  hint_ = module_machine_.end();
}

void MachineDetector::forget_machine(const std::string& machine) {
  auto rec = machines_.find(machine);
  if (rec == machines_.end()) return;
  walked_generation_.reset();
  for (const std::string& module : rec->second.modules) {
    module_machine_.erase(module);
  }
  machines_.erase(rec);
  hint_ = module_machine_.end();
}

MachineHealth MachineDetector::health(const std::string& machine,
                                      net::SimTime now) const {
  auto rec = machines_.find(machine);
  if (rec == machines_.end()) return MachineHealth::kAlive;  // not tracked
  if (now <= rec->second.last) return MachineHealth::kAlive;
  const net::SimTime silence = now - rec->second.last;
  if (silence > options_.confirm_timeout_us) return MachineHealth::kConfirmed;
  if (silence > options_.suspicion_timeout_us) return MachineHealth::kSuspect;
  return MachineHealth::kAlive;
}

std::vector<std::string> MachineDetector::suspects(net::SimTime now) const {
  std::vector<std::string> out;
  for (const auto& [machine, rec] : machines_) {
    if (health(machine, now) == MachineHealth::kSuspect) out.push_back(machine);
  }
  return out;
}

std::vector<std::string> MachineDetector::confirmed(net::SimTime now) const {
  std::vector<std::string> out;
  for (const auto& [machine, rec] : machines_) {
    if (health(machine, now) == MachineHealth::kConfirmed) {
      out.push_back(machine);
    }
  }
  return out;
}

std::vector<std::string> MachineDetector::modules_on(
    const std::string& machine) const {
  auto rec = machines_.find(machine);
  if (rec == machines_.end()) return {};
  return {rec->second.modules.begin(), rec->second.modules.end()};
}

std::optional<net::SimTime> MachineDetector::last_beat(
    const std::string& machine) const {
  auto rec = machines_.find(machine);
  if (rec == machines_.end()) return std::nullopt;
  return rec->second.last;
}

}  // namespace surgeon::recover
