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

void Simulator::schedule_at(SimTime t, Callback fn) {
  if (free_.empty()) {
    slots_.emplace_back();
    free_.reserve(slots_.capacity());
    free_.push_back(static_cast<std::uint32_t>(slots_.size() - 1));
  }
  const std::uint32_t slot = free_.back();
  queue_.push_back(Key{t < now_us_ ? now_us_ : t, next_seq_++, slot});
  free_.pop_back();
  slots_[slot] = std::move(fn);
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Key next = queue_.back();
  queue_.pop_back();
  // The callback leaves its slot before it runs, so it may schedule events
  // that reuse the slot or grow the table.
  Callback fn = std::move(slots_[next.slot]);
  free_.push_back(next.slot);
  // Monotone clock: advance_time (instruction cost) may have pushed `now`
  // past already-scheduled events; those fire late -- the compute consumed
  // their interval -- rather than rewinding virtual time.
  if (next.time > now_us_) now_us_ = next.time;
  fn();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

}  // namespace surgeon::net
