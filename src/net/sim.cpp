#include "net/sim.hpp"

#include <algorithm>

#include "support/diag.hpp"

namespace surgeon::net {

using support::BusError;

void Simulator::add_machine(const std::string& name, Arch arch) {
  auto [it, inserted] = machines_.emplace(name, Machine{name, std::move(arch)});
  if (!inserted) throw BusError("machine already registered: " + name);
}

const Machine& Simulator::machine(const std::string& name) const {
  auto it = machines_.find(name);
  if (it == machines_.end()) throw BusError("unknown machine: " + name);
  return it->second;
}

DurableStore& Simulator::durable_store(const std::string& machine) {
  if (!machines_.contains(machine)) {
    throw BusError("unknown machine: " + machine);
  }
  return stores_[machine];
}

const DurableStore& Simulator::durable_store(const std::string& machine) const {
  return const_cast<Simulator*>(this)->durable_store(machine);
}

std::vector<std::string> Simulator::machine_names() const {
  std::vector<std::string> names;
  names.reserve(machines_.size());
  for (const auto& [name, m] : machines_) names.push_back(name);
  return names;
}

SimTime Simulator::message_latency(const std::string& a, const std::string& b) {
  return link_latency(a == b);
}

void Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_us_) t = now_us_;
  events_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(events_.begin(), events_.end(), Later{});
}

bool Simulator::step() {
  if (events_.empty()) return false;
  std::pop_heap(events_.begin(), events_.end(), Later{});
  Event ev = std::move(events_.back());
  events_.pop_back();
  // Monotone clock: advance_time (instruction cost) may have pushed `now`
  // past already-scheduled events; those fire late -- the compute consumed
  // their interval -- rather than rewinding virtual time.
  if (ev.time > now_us_) now_us_ = ev.time;
  ev.fn();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace surgeon::net
