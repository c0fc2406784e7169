#include "slo/request.hpp"

#include <utility>

namespace surgeon::slo {

void RequestTracker::observe(const trace::Event& ev) {
  if (ev.request == 0) return;  // untagged traffic: one branch and out
  switch (ev.kind) {
    case trace::EventKind::kSend: {
      if (ev.cause == 0) {
        // Entry send: the synthetic request context carries no event id.
        if (open_.size() >= max_open_ && !open_.contains(ev.request)) {
          // Oldest first: lowest request id. The workload outruns its
          // completions; shedding the oldest keeps memory bounded.
          open_.erase(open_.begin());
          ++evicted_open_;
        }
        Open& open = open_[ev.request];
        open.started_at = ev.at;
        open.upstream_sent_at = ev.at;
        break;
      }
      auto it = open_.find(ev.request);
      if (it == open_.end()) break;
      Open& open = it->second;
      // Handler interval of the module's hop: receive -> first send.
      if (!open.hops.empty() && open.hops.back().module == ev.module &&
          open.hops.back().handler_us == 0 && open.received_at != 0) {
        open.hops.back().handler_us = ev.at - open.received_at;
      }
      open.upstream_sent_at = ev.at;
      break;
    }
    case trace::EventKind::kDeliver: {
      auto it = open_.find(ev.request);
      if (it == open_.end()) break;
      Open& open = it->second;
      if (open.hop_open) open.partial = true;  // receive never arrived
      open.hop_open = true;
      open.pending_hop = Completion::Hop{ev.module, 0, 0};
      open.received_at = 0;
      // Reuse queue_us as scratch for the deliver timestamp until the
      // receive closes the interval.
      open.pending_hop.queue_us = ev.at;
      break;
    }
    case trace::EventKind::kReceive: {
      auto it = open_.find(ev.request);
      if (it == open_.end()) break;
      Open& open = it->second;
      if (open.hop_open && open.pending_hop.module == ev.module) {
        // Queue interval: upstream send -> this receive (wire transit plus
        // any wait behind earlier messages and the handler's own slices).
        // The deliver timestamp is the fallback when no send was seen.
        const net::SimTime from = open.upstream_sent_at != 0
                                      ? open.upstream_sent_at
                                      : open.pending_hop.queue_us;
        open.pending_hop.queue_us = ev.at - from;
      } else {
        // Deliver record never observed (tracker attached mid-request);
        // keep the hop with an unknown queue interval.
        open.pending_hop = Completion::Hop{ev.module, 0, 0};
        open.partial = true;
      }
      open.hop_open = false;
      open.received_at = ev.at;
      open.hops.push_back(std::move(open.pending_hop));
      if (trace::is_terminal_detail(ev.detail)) {
        complete(ev.request, std::move(open), ev.at);
        open_.erase(it);
      }
      break;
    }
    default:
      break;
  }
}

void RequestTracker::complete(std::uint64_t request, Open&& open,
                              net::SimTime at) {
  Completion done;
  done.request = request;
  done.started_at = open.started_at;
  done.completed_at = at;
  done.latency_us = at - open.started_at;
  done.complete = !open.partial && open.started_at != 0;
  done.hops = std::move(open.hops);
  ++completions_total_;
  completed_.push_back(std::move(done));
}

std::vector<Completion> RequestTracker::drain() {
  return std::exchange(completed_, {});
}

}  // namespace surgeon::slo
