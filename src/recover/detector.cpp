#include "recover/detector.hpp"

#include "support/diag.hpp"

namespace surgeon::recover {

void FailureDetector::start(app::Runtime& rt, net::SimTime interval_us) {
  if (interval_us == 0) {
    throw support::BusError(
        "failure detector: heartbeat interval must be nonzero");
  }
  ticker_.start(rt.simulator(), interval_us, [this, &rt, interval_us] {
    tick(rt.now(), rt.live_generation(), rt.live_processes());
    return interval_us;
  });
}

void FailureDetector::tick(net::SimTime at, std::uint64_t generation,
                           std::span<const app::LiveProcess> live) {
  beats_ += live.size();
  if (walked_generation_ == generation) {
    stamp_ = at;
    return;
  }
  // What the latest walk listed beat last at stamp_: settle that before
  // this walk takes over.
  const auto settle = [walk = walk_, stamp = stamp_](Beat& beat) {
    if (beat.walk == walk) beat.last = stamp;
  };
  for (auto& [name, rec] : machines_) settle(rec.beat);
  ++walk_;
  stamp_ = at;
  auto module = modules_.begin();
  for (const app::LiveProcess& process : live) {
    for (; module != modules_.end() && module->first < *process.instance;
         ++module) {
      settle(module->second.beat);
    }
    if (module == modules_.end() || module->first != *process.instance) {
      module = modules_.emplace_hint(
          module, *process.instance, ModuleRec{{}, attach(*process.host)});
    } else if (module->second.machine->first != *process.host) {
      // A module beating on another machine must not leave a stale beat
      // behind on its old host, keeping a dead machine "alive".
      detach(module->second.machine);
      module->second.machine = attach(*process.host);
    }
    module->second.beat = module->second.machine->second.beat = {at, walk_};
    ++module;
  }
  for (; module != modules_.end(); ++module) settle(module->second.beat);
  walked_generation_ = generation;
}

FailureDetector::MachineMap::iterator FailureDetector::attach(
    const std::string& machine) {
  const MachineMap::iterator rec = machines_.try_emplace(machine).first;
  ++rec->second.modules;
  return rec;
}

void FailureDetector::detach(MachineMap::iterator machine) {
  if (--machine->second.modules == 0) machines_.erase(machine);
}

void FailureDetector::forget_module(const std::string& module) {
  auto rec = modules_.find(module);
  if (rec == modules_.end()) return;
  walked_generation_.reset();
  detach(rec->second.machine);
  modules_.erase(rec);
}

void FailureDetector::forget_machine(const std::string& machine) {
  auto rec = machines_.find(machine);
  if (rec == machines_.end()) return;
  walked_generation_.reset();
  std::erase_if(modules_, [rec](const auto& module) {
    return module.second.machine == rec;
  });
  machines_.erase(rec);
}

std::vector<std::string> FailureDetector::silent_modules(
    net::SimTime now) const {
  std::vector<std::string> out;
  for (const auto& [module, rec] : modules_) {
    if (silent(rec.beat, now, options_.suspicion_timeout_us)) {
      out.push_back(module);
    }
  }
  return out;
}

std::optional<net::SimTime> FailureDetector::module_last_beat(
    const std::string& module) const {
  auto rec = modules_.find(module);
  if (rec == modules_.end()) return std::nullopt;
  return last_of(rec->second.beat);
}

MachineHealth FailureDetector::health_of(const Beat& beat,
                                         net::SimTime now) const noexcept {
  if (silent(beat, now, options_.confirm_timeout_us)) {
    return MachineHealth::kConfirmed;
  }
  return silent(beat, now, options_.suspicion_timeout_us)
             ? MachineHealth::kSuspect
             : MachineHealth::kAlive;
}

MachineHealth FailureDetector::health(const std::string& machine,
                                      net::SimTime now) const {
  auto rec = machines_.find(machine);
  return rec == machines_.end() ? MachineHealth::kAlive
                                : health_of(rec->second.beat, now);
}

std::vector<std::string> FailureDetector::machines_in(MachineHealth h,
                                                      net::SimTime now) const {
  std::vector<std::string> out;
  for (const auto& [machine, rec] : machines_) {
    if (health_of(rec.beat, now) == h) out.push_back(machine);
  }
  return out;
}

std::vector<std::string> FailureDetector::modules_on(
    const std::string& machine) const {
  std::vector<std::string> out;
  auto host = machines_.find(machine);
  if (host == machines_.end()) return out;
  for (const auto& [module, rec] : modules_) {
    if (rec.machine == host) out.push_back(module);
  }
  return out;
}

std::optional<net::SimTime> FailureDetector::machine_last_beat(
    const std::string& machine) const {
  auto rec = machines_.find(machine);
  if (rec == machines_.end()) return std::nullopt;
  return last_of(rec->second.beat);
}

std::vector<std::string> FailureDetector::machine_names() const {
  std::vector<std::string> out;
  for (const auto& [machine, rec] : machines_) out.push_back(machine);
  return out;
}

}  // namespace surgeon::recover
