#include "slo/slo.hpp"

#include <algorithm>
#include <sstream>

#include "bus/native.hpp"
#include "support/diag.hpp"

namespace surgeon::slo {

namespace {

using support::BusError;

/// Newest blackout windows kept for correlation; replacements are rare, so
/// the bound exists only to keep divulged state small.
constexpr std::size_t kMaxBlackouts = 64;

net::SimTime parse_duration(const std::string& text, const char* what) {
  std::size_t pos = 0;
  unsigned long long value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<unsigned long long>(text[pos] - '0');
    ++pos;
  }
  if (pos == 0) {
    throw BusError(std::string("objective: bad ") + what + " '" + text + "'");
  }
  const std::string unit = text.substr(pos);
  if (unit == "us") return static_cast<net::SimTime>(value);
  if (unit == "ms") return static_cast<net::SimTime>(value * 1'000);
  if (unit == "s") return static_cast<net::SimTime>(value * 1'000'000);
  throw BusError(std::string("objective: bad ") + what + " unit '" + text +
                 "' (expected us, ms, or s)");
}

}  // namespace

Objective parse_objective(const std::string& spec) {
  std::istringstream in(spec);
  Objective obj;
  bool slow_window_set = false;
  bool target_set = false;
  std::string token;
  if (!(in >> obj.name)) throw BusError("objective: empty spec");
  while (in >> token) {
    if (token.rfind("service=", 0) == 0) {
      obj.service = token.substr(8);
    } else if (token.rfind("window=", 0) == 0) {
      obj.window_us = parse_duration(token.substr(7), "window");
    } else if (token.rfind("fast=", 0) == 0 || token.rfind("slow=", 0) == 0) {
      const bool fast = token[0] == 'f';
      const std::string body = token.substr(5);
      const std::size_t at = body.find('@');
      if (at == std::string::npos) {
        throw BusError("objective: expected <window>@<burn> in '" + token +
                       "'");
      }
      const net::SimTime window =
          parse_duration(body.substr(0, at), fast ? "fast" : "slow");
      double burn = 0.0;
      try {
        burn = std::stod(body.substr(at + 1));
      } catch (const std::exception&) {
        throw BusError("objective: bad burn rate in '" + token + "'");
      }
      if (fast) {
        obj.fast_window_us = window;
        obj.fast_burn = burn;
      } else {
        obj.slow_window_us = window;
        obj.slow_burn = burn;
        slow_window_set = true;
      }
    } else if (token.size() > 1 && token[0] == 'p') {
      const std::size_t lt = token.find('<');
      if (lt == std::string::npos) {
        throw BusError("objective: expected p<Q><<threshold> in '" + token +
                       "'");
      }
      double percent = 0.0;
      try {
        percent = std::stod(token.substr(1, lt - 1));
      } catch (const std::exception&) {
        throw BusError("objective: bad quantile in '" + token + "'");
      }
      if (percent <= 0.0 || percent >= 100.0) {
        throw BusError("objective: quantile out of range in '" + token + "'");
      }
      obj.quantile = percent / 100.0;
      obj.threshold_us = parse_duration(token.substr(lt + 1), "threshold");
      target_set = true;
    } else {
      throw BusError("objective: unknown token '" + token + "'");
    }
  }
  if (obj.service.empty()) {
    throw BusError("objective '" + obj.name + "': missing service=");
  }
  if (!target_set) {
    throw BusError("objective '" + obj.name +
                   "': missing p<Q><<threshold> target");
  }
  if (!slow_window_set) obj.slow_window_us = obj.window_us;
  return obj;
}

const char* alert_kind_name(AlertEvent::Kind kind) noexcept {
  return kind == AlertEvent::Kind::kFire ? "fire" : "clear";
}

// --- Engine ------------------------------------------------------------------

const EngineOptions& Engine::checked(const EngineOptions& options) {
  if (options.slot_us == 0 || options.slots == 0) {
    throw BusError("slo engine: empty window geometry");
  }
  return options;
}

void Engine::add_objective(Objective objective) {
  for (const Objective& o : objectives_) {
    if (o.name == objective.name) {
      throw BusError("slo: duplicate objective '" + objective.name + "'");
    }
  }
  obj_state_.try_emplace(objective.name);
  objectives_.push_back(std::move(objective));
}

template <typename Slot>
Slot& Engine::slot_for(std::vector<Slot>& ring, net::SimTime at) {
  const net::SimTime start = at - (at % options_.slot_us);
  if (ring.empty() || start > ring.back().start_us) {
    ring.push_back(Slot{});
    ring.back().start_us = start;
    while (ring.size() > options_.slots) ring.erase(ring.begin());
  }
  return ring.back();
}

bool Engine::in_blackout(net::SimTime at) const {
  for (const auto& [from, to] : blackouts_) {
    if (at >= from && at <= to) return true;
  }
  return false;
}

void Engine::observe(const std::string& service,
                     const Completion& completion) {
  ++completions_total_;
  const net::SimTime at = completion.completed_at;
  SvcState& svc = svc_state_[service];
  ++svc.completions_total;
  SvcSlot& slot = slot_for(svc.slots, at);
  ++slot.completions;
  for (const Completion::Hop& hop : completion.hops) {
    HopAgg& agg = slot.hops[hop.module];
    ++agg.count;
    agg.queue_us += hop.queue_us;
    agg.handler_us += hop.handler_us;
  }
  const bool blackout = in_blackout(at);
  for (const Objective& obj : objectives_) {
    if (obj.service != service) continue;
    ObjState& st = obj_state_[obj.name];
    ObjSlot& os = slot_for(st.slots, at);
    ++os.total;
    if (completion.latency_us > obj.threshold_us) {
      ++os.bad;
      ++st.violations_total;
      if (blackout) ++st.blackout_violations_total;
    }
  }
}

std::pair<std::uint64_t, std::uint64_t> Engine::window_counts(
    const std::vector<ObjSlot>& ring, net::SimTime now,
    net::SimTime window_us) const {
  // Slot-granular window: a slot counts if any part of it overlaps
  // [now - window, now]. Deterministic and cheap; the rounding error is at
  // most one slot, which the windows are sized to tolerate.
  const net::SimTime from = now >= window_us ? now - window_us : 0;
  std::uint64_t total = 0;
  std::uint64_t bad = 0;
  for (const ObjSlot& slot : ring) {
    if (slot.start_us + options_.slot_us <= from) continue;
    if (slot.start_us > now) continue;
    total += slot.total;
    bad += slot.bad;
  }
  return {total, bad};
}

double Engine::burn_rate(std::uint64_t total, std::uint64_t bad,
                         double quantile) {
  if (total == 0) return 0.0;
  const double bad_fraction =
      static_cast<double>(bad) / static_cast<double>(total);
  const double budget = 1.0 - quantile;
  return budget > 0.0 ? bad_fraction / budget : 0.0;
}

std::vector<AlertEvent> Engine::evaluate(net::SimTime now) {
  std::vector<AlertEvent> events;
  for (const Objective& obj : objectives_) {
    ObjState& st = obj_state_[obj.name];
    const auto [ft, fb] = window_counts(st.slots, now, obj.fast_window_us);
    const auto [st_total, st_bad] =
        window_counts(st.slots, now, obj.slow_window_us);
    const double burn_fast = burn_rate(ft, fb, obj.quantile);
    const double burn_slow = burn_rate(st_total, st_bad, obj.quantile);
    const bool over =
        burn_fast >= obj.fast_burn && burn_slow >= obj.slow_burn;
    if (over == st.firing) continue;
    const auto [wt, wb] = window_counts(st.slots, now, obj.window_us);
    AlertEvent ev;
    ev.id = ++next_alert_;
    ev.objective = obj.name;
    ev.kind = over ? AlertEvent::Kind::kFire : AlertEvent::Kind::kClear;
    ev.at = now;
    ev.burn_fast = burn_fast;
    ev.burn_slow = burn_slow;
    ev.attainment =
        wt == 0 ? 1.0
                : static_cast<double>(wt - wb) / static_cast<double>(wt);
    st.firing = over;
    if (over) ++st.alerts_total;
    events.push_back(std::move(ev));
  }
  return events;
}

void Engine::note_blackout(net::SimTime from_us, net::SimTime to_us) {
  blackouts_.insert(blackouts_.begin(), {from_us, to_us});
  if (blackouts_.size() > kMaxBlackouts) blackouts_.resize(kMaxBlackouts);
}

std::vector<Engine::ObjectiveStatus> Engine::objective_status(
    net::SimTime now) const {
  std::vector<ObjectiveStatus> out;
  out.reserve(objectives_.size());
  for (const Objective& obj : objectives_) {
    const ObjState& st = obj_state_.at(obj.name);
    ObjectiveStatus status;
    status.objective = &obj;
    const auto [wt, wb] = window_counts(st.slots, now, obj.window_us);
    status.window_total = wt;
    status.window_bad = wb;
    status.attainment =
        wt == 0 ? 1.0
                : static_cast<double>(wt - wb) / static_cast<double>(wt);
    const auto [ft, fb] = window_counts(st.slots, now, obj.fast_window_us);
    const auto [slow_t, slow_b] =
        window_counts(st.slots, now, obj.slow_window_us);
    status.burn_fast = burn_rate(ft, fb, obj.quantile);
    status.burn_slow = burn_rate(slow_t, slow_b, obj.quantile);
    status.firing = st.firing;
    status.violations_total = st.violations_total;
    status.blackout_violations_total = st.blackout_violations_total;
    status.alerts_total = st.alerts_total;
    out.push_back(status);
  }
  return out;
}

std::vector<Engine::ServiceStatus> Engine::service_status(
    net::SimTime now) const {
  std::vector<ServiceStatus> out;
  for (const auto& [service, st] : svc_state_) {
    ServiceStatus status;
    status.service = service;
    status.completions_total = st.completions_total;
    // Hop attribution over the widest objective window of this service
    // (falls back to the engine's full ring when no objective names it).
    net::SimTime window = 0;
    for (const Objective& obj : objectives_) {
      if (obj.service == service) window = std::max(window, obj.window_us);
    }
    if (window == 0) {
      window = options_.slot_us * static_cast<net::SimTime>(options_.slots);
    }
    const net::SimTime from = now >= window ? now - window : 0;
    std::map<std::string, HopAgg> merged;
    for (const SvcSlot& slot : st.slots) {
      if (slot.start_us + options_.slot_us <= from) continue;
      if (slot.start_us > now) continue;
      status.window_completions += slot.completions;
      for (const auto& [module, agg] : slot.hops) {
        HopAgg& m = merged[module];
        m.count += agg.count;
        m.queue_us += agg.queue_us;
        m.handler_us += agg.handler_us;
      }
    }
    net::SimTime worst = 0;
    for (const auto& [module, agg] : merged) {
      status.hops.push_back(
          HopStatus{module, agg.count, agg.queue_us, agg.handler_us});
      const net::SimTime cost = agg.queue_us + agg.handler_us;
      if (status.worst_hop.empty() || cost > worst) {
        worst = cost;
        status.worst_hop = module;
      }
    }
    out.push_back(std::move(status));
  }
  return out;
}

// --- state divulge/install ---------------------------------------------------

ser::StateBuffer Engine::encode_state() const {
  using ser::StateFrame;
  using ser::Value;
  const auto str = [](const std::string& s) { return Value{s}; };
  const auto num = [](auto n) { return Value{static_cast<std::int64_t>(n)}; };
  const auto dbl = [&](double v) {
    // Durations/burns are exact in micro-units; scale to keep the buffer
    // integer-only (ser::Value has no double).
    return Value{static_cast<std::int64_t>(v * 1'000'000.0)};
  };
  ser::StateBuffer state;
  state.push_frame(StateFrame{{num(1),  // format version
                               num(options_.slot_us), num(options_.slots),
                               num(next_alert_), num(completions_total_)}});
  for (const auto& [from, to] : blackouts_) {
    state.push_frame(StateFrame{{num(0), num(from), num(to)}});
  }
  for (const Objective& obj : objectives_) {
    state.push_frame(StateFrame{
        {num(1), str(obj.name), str(obj.service), dbl(obj.quantile),
         num(obj.threshold_us), num(obj.window_us), num(obj.fast_window_us),
         num(obj.slow_window_us), dbl(obj.fast_burn), dbl(obj.slow_burn)}});
    const ObjState& st = obj_state_.at(obj.name);
    state.push_frame(StateFrame{{num(2), str(obj.name),
                                 num(st.firing ? 1 : 0),
                                 num(st.violations_total),
                                 num(st.blackout_violations_total),
                                 num(st.alerts_total)}});
    for (const ObjSlot& slot : st.slots) {
      state.push_frame(StateFrame{{num(3), str(obj.name), num(slot.start_us),
                                   num(slot.total), num(slot.bad)}});
    }
  }
  for (const auto& [service, st] : svc_state_) {
    state.push_frame(
        StateFrame{{num(4), str(service), num(st.completions_total)}});
    for (const SvcSlot& slot : st.slots) {
      state.push_frame(StateFrame{{num(5), str(service), num(slot.start_us),
                                   num(slot.completions)}});
      for (const auto& [module, agg] : slot.hops) {
        state.push_frame(StateFrame{{num(6), str(service), str(module),
                                     num(agg.count), num(agg.queue_us),
                                     num(agg.handler_us)}});
      }
    }
  }
  return state;
}

void Engine::install_state(const ser::StateBuffer& state) {
  constexpr const char* kWhat = "slo engine state";
  const auto& frames = state.frames();
  if (frames.empty() ||
      bus::state_fields(frames[0], 5, kWhat)[0].as_int() != 1) {
    throw BusError("slo engine state: unknown format");
  }
  const auto count = [](const ser::Value& v) {
    return bus::state_count(v, kWhat);
  };
  const auto undbl = [](const ser::Value& v) {
    return static_cast<double>(v.as_int()) / 1'000'000.0;
  };
  // Built aside and moved in, so a rejected buffer changes nothing.
  const std::vector<ser::Value>& head = frames[0].values;
  Engine next(EngineOptions{count(head[1]), count(head[2])});
  next.next_alert_ = count(head[3]);
  next.completions_total_ = count(head[4]);
  // Fields per frame kind: blackout, objective, objective counters,
  // objective slot, service, service slot, hop.
  constexpr std::size_t kArity[] = {3, 10, 6, 5, 3, 4, 6};
  for (std::size_t i = 1; i < frames.size(); ++i) {
    const std::int64_t kind =
        bus::state_fields(frames[i], 1, kWhat)[0].as_int();
    if (kind < 0 || kind > 6) {
      throw BusError("slo engine state: unknown frame kind");
    }
    const std::vector<ser::Value>& v =
        bus::state_fields(frames[i], kArity[kind], kWhat);
    switch (kind) {
      case 0:
        next.blackouts_.emplace_back(count(v[1]), count(v[2]));
        break;
      case 1: {
        Objective obj;
        obj.name = v[1].as_string();
        obj.service = v[2].as_string();
        obj.quantile = undbl(v[3]);
        obj.threshold_us = count(v[4]);
        obj.window_us = count(v[5]);
        obj.fast_window_us = count(v[6]);
        obj.slow_window_us = count(v[7]);
        obj.fast_burn = undbl(v[8]);
        obj.slow_burn = undbl(v[9]);
        next.add_objective(std::move(obj));
        break;
      }
      case 2: {
        ObjState& st = next.obj_state_[v[1].as_string()];
        st.firing = v[2].as_int() != 0;
        st.violations_total = count(v[3]);
        st.blackout_violations_total = count(v[4]);
        st.alerts_total = count(v[5]);
        break;
      }
      case 3:
        next.obj_state_[v[1].as_string()].slots.push_back(
            ObjSlot{count(v[2]), count(v[3]), count(v[4])});
        break;
      case 4:
        next.svc_state_[v[1].as_string()].completions_total = count(v[2]);
        break;
      case 5: {
        SvcSlot slot;
        slot.start_us = count(v[2]);
        slot.completions = count(v[3]);
        next.svc_state_[v[1].as_string()].slots.push_back(std::move(slot));
        break;
      }
      default: {
        SvcState& st = next.svc_state_[v[1].as_string()];
        if (st.slots.empty()) {
          throw BusError("slo engine state: hop before service slot");
        }
        st.slots.back().hops[v[2].as_string()] =
            HopAgg{count(v[3]), count(v[4]), count(v[5])};
        break;
      }
    }
  }
  *this = std::move(next);
}

}  // namespace surgeon::slo
