#include "chaos/systematic.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>

#include "reconfig/scripts.hpp"

namespace surgeon::chaos {

std::string FaultSchedule::describe() const {
  std::ostringstream os;
  os << "crash=";
  if (crash_boundary < 0) {
    os << "none";
  } else {
    const std::vector<const char*> boundaries =
        reconfig::journal_intents(reconfig::replace_shape());
    os << boundaries[static_cast<std::size_t>(crash_boundary) %
                     boundaries.size()];
  }
  os << " partition=";
  if (partition_window < 0) {
    os << "none";
  } else {
    os << "w" << partition_window;
  }
  os << " kill=";
  if (kill_machine < 0) {
    os << "none";
  } else {
    os << "m" << kill_machine << "@" << kill_at_us << "us";
  }
  os << " drops=[";
  for (std::size_t i = 0; i < drops.size(); ++i) {
    if (i != 0) os << ",";
    os << drops[i].describe();
  }
  os << "]";
  return os.str();
}

ScheduleInjector::ScheduleInjector(const FaultSchedule& schedule,
                                   const std::vector<Partition>& windows)
    : schedule_(schedule) {
  if (schedule_.partition_window >= 0 &&
      static_cast<std::size_t>(schedule_.partition_window) < windows.size()) {
    window_ = &windows[static_cast<std::size_t>(schedule_.partition_window)];
  }
}

void ScheduleInjector::attach(bus::Bus& bus) {
  sim_ = &bus.simulator();
  bus.set_fault_hook([this](const std::string& src, const std::string& dst) {
    return decide(src, dst);
  });
}

bus::FaultDecision ScheduleInjector::decide(const std::string& src,
                                            const std::string& dst) {
  ++stats_.decisions;
  if (window_ != nullptr && sim_ != nullptr) {
    const net::SimTime now = sim_->now();
    if (now >= window_->from_us && now < window_->until_us) {
      const bool cut =
          window_->b.empty()
              ? (src == window_->a) != (dst == window_->a)
              : (src == window_->a && dst == window_->b) ||
                    (src == window_->b && dst == window_->a);
      if (cut) {
        ++stats_.partition_drops;
        return bus::FaultDecision{.drop = true};
      }
    }
  }
  if (src == dst) return {};  // loopback: outside the explored universe
  net::WirePoint point{net::LinkKey{src, dst}, 0};
  point.index = copies_[point.link]++;
  if (std::binary_search(schedule_.drops.begin(), schedule_.drops.end(),
                         point)) {
    ++drops_fired_;
    ++stats_.drops;
    return bus::FaultDecision{.drop = true};
  }
  return {};
}

ScenarioSpec SystematicOptions::scenario_spec(const FaultSchedule& s) const {
  ScenarioSpec spec;
  spec.seed = 1;  // fixed: the schedule, not a seed, is the identity
  spec.app = app;
  spec.work_items = work_items;
  spec.replace_after_outputs = replace_after_outputs;
  spec.crash_coordinator_at_step = s.crash_boundary;
  spec.crash_clone = false;  // recovery roll-forward is single-shot
  spec.target_machine = target_machine;
  spec.delivery = delivery;
  spec.divulge_timeout_us = divulge_timeout_us;
  spec.restore_timeout_us = restore_timeout_us;
  spec.max_attempts = max_attempts;
  spec.kv_shards = kv_shards;
  spec.kv_group_size = kv_group_size;
  spec.kv_machines = kv_machines;
  spec.kv_spares = kv_spares;
  spec.kv_kill_machine = s.kill_machine;
  spec.kv_kill_at_us = s.kill_at_us;
  return spec;
}

namespace {

std::uint64_t factorial(std::size_t n) {
  std::uint64_t f = 1;
  for (std::size_t i = 2; i <= n; ++i) f *= i;
  return f;
}

}  // namespace

SystematicResult explore(const SystematicOptions& options) {
  SystematicResult result;

  // The fault-free reference, once for the whole exploration: every
  // schedule of one exploration runs the identical application spec.
  const FaultSchedule clean;
  const std::vector<std::string> golden =
      golden_output(options.scenario_spec(clean));

  std::vector<int> crash_options{-1};
  if (options.explore_crash_boundaries) {
    const std::size_t boundaries =
        reconfig::journal_intents(reconfig::replace_shape()).size();
    for (int b = 0; b < static_cast<int>(boundaries); ++b) {
      crash_options.push_back(b);
    }
  }
  std::vector<int> partition_options{-1};
  for (int w = 0; w < static_cast<int>(options.partition_windows.size());
       ++w) {
    partition_options.push_back(w);
  }
  std::vector<int> kill_options{-1};
  for (int k = 0; k < static_cast<int>(options.machine_kill_points.size());
       ++k) {
    kill_options.push_back(k);
  }

  std::set<net::WirePoint> discovered;  // across every run, for accounting
  std::set<int> kills_covered;
  bool done = false;

  // Breadth-first over drop sets, smallest first, for one fixed
  // (crash, partition, machine-kill) combination: a set is only ever
  // generated from its largest proper prefix in canonical order, so each
  // unordered set runs exactly once (all d! orderings pruned).
  auto explore_combo = [&](int crash, int window, int kill) {
    std::deque<FaultSchedule> worklist;
    std::set<std::vector<net::WirePoint>> seen;
    FaultSchedule root;
    root.crash_boundary = crash;
    root.partition_window = window;
    if (kill >= 0) {
      const MachineKillPoint& point =
          options.machine_kill_points[static_cast<std::size_t>(kill)];
      root.kill_machine = point.machine;
      root.kill_at_us = point.at_us;
    }
    worklist.push_back(root);
    seen.insert(root.drops);
    while (!worklist.empty()) {
      if (result.schedules_explored >= options.max_schedules) {
        result.truncated = true;
        done = true;
        break;
      }
      FaultSchedule schedule = std::move(worklist.front());
      worklist.pop_front();

      ScheduleInjector injector(schedule, options.partition_windows);
      ScenarioResult run = run_scenario_with(
          options.scenario_spec(schedule), injector, &golden);
      ++result.schedules_explored;
      result.schedules_pruned += factorial(schedule.drops.size()) - 1;
      if (injector.drops_fired() < schedule.drops.size()) {
        ++result.schedules_degenerate;
      }

      const bool violating = !run.violations.empty();
      if (violating || options.record_outcomes) {
        ScheduleOutcome outcome;
        outcome.schedule = schedule;
        outcome.replaced = run.replaced;
        outcome.recovered_forward = run.recovered_forward;
        outcome.abort_reason = run.abort_reason;
        outcome.violations = run.violations;
        if (violating) result.failures.push_back(outcome);
        if (options.record_outcomes) {
          result.outcomes.push_back(std::move(outcome));
        }
      }

      // Extend with the wire points this run actually enabled, in
      // canonical order past the set's last element (combinations, not
      // permutations -- the independence relation makes them equal).
      if (static_cast<int>(schedule.drops.size()) >= options.max_drops) {
        continue;
      }
      for (const auto& [link, count] : injector.copies()) {
        for (std::uint32_t idx = 0; idx < count; ++idx) {
          discovered.insert(net::WirePoint{link, idx});
        }
      }
      const net::WirePoint* last =
          schedule.drops.empty() ? nullptr : &schedule.drops.back();
      for (const net::WirePoint& p : discovered) {
        if (last != nullptr && !(*last < p)) continue;
        const auto it = injector.copies().find(p.link);
        const std::uint32_t enabled =
            it == injector.copies().end() ? 0 : it->second;
        if (p.index >= enabled) {
          // Known from another run but never on the wire in this one:
          // dropping it here could not change anything.
          ++result.points_disabled;
          continue;
        }
        FaultSchedule child = schedule;
        child.drops.push_back(p);
        if (seen.insert(child.drops).second) {
          worklist.push_back(std::move(child));
        }
      }
    }
  };

  for (int crash : crash_options) {
    if (done) break;
    if (crash >= 0) result.crash_boundaries_covered.push_back(crash);
    for (int window : partition_options) {
      if (done) break;
      for (int kill : kill_options) {
        if (done) break;
        if (kill >= 0) kills_covered.insert(kill);
        explore_combo(crash, window, kill);
      }
    }
  }
  result.wire_points_discovered = discovered.size();
  result.machine_kills_covered.assign(kills_covered.begin(),
                                      kills_covered.end());
  return result;
}

}  // namespace surgeon::chaos
