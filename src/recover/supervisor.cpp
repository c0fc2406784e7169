#include "recover/supervisor.hpp"

#include "obs/metrics.hpp"
#include "reconfig/scripts.hpp"
#include "support/diag.hpp"
#include "support/scope.hpp"
#include "trace/recorder.hpp"

namespace surgeon::recover {

Supervisor::Supervisor(app::Runtime& rt, net::DurableStore& store,
                       SupervisorOptions options)
    : rt_(&rt),
      store_(&store),
      options_(options),
      detector_(DetectorOptions{options.suspicion_timeout_us}) {
  if (options.heartbeat_interval_us == 0) {
    throw support::BusError(
        "SupervisorOptions::heartbeat_interval_us must be nonzero");
  }
  if (options.sweep_interval_us == 0) {
    throw support::BusError(
        "SupervisorOptions::sweep_interval_us must be nonzero");
  }
}

void Supervisor::watch(const std::string& instance,
                       const std::string& spare_machine) {
  Watched w;
  w.logical = app::logical_name(instance);
  w.current = instance;
  w.spare = spare_machine;
  watched_[w.logical] = std::move(w);
}

std::string Supervisor::current_instance(const std::string& logical) const {
  auto it = watched_.find(logical);
  return it == watched_.end() ? std::string{} : it->second.current;
}

Supervisor::Watched* Supervisor::find(const std::string& name) {
  auto it = watched_.find(app::logical_name(name));
  return it == watched_.end() ? nullptr : &it->second;
}

void Supervisor::start() {
  if (running()) return;
  detector_.start(*rt_, options_.heartbeat_interval_us);
  sweep_ticker_.start(rt_->simulator(), options_.sweep_interval_us, [this] {
    sweep();
    return options_.sweep_interval_us;
  });
  const net::SimTime checkpoint_us = options_.checkpoint_interval_us;
  if (checkpoint_us > 0) {
    checkpoint_ticker_.start(rt_->simulator(), checkpoint_us, [this] {
      checkpoint_tick();
      return options_.checkpoint_interval_us;
    });
  }
}

void Supervisor::stop() noexcept {
  detector_.stop();
  sweep_ticker_.stop();
  checkpoint_ticker_.stop();
}

void Supervisor::sweep() {
  if (in_control_) return;
  for (const std::string& suspect : detector_.silent_modules(rt_->now())) {
    if (rt_->module_crashed(suspect)) {
      ++suspects_seen_;
      if (rt_->metrics().enabled()) {
        rt_->metrics().counter("surgeon_recover_suspects_total").inc();
      }
      if (rt_->tracer().enabled() && rt_->bus().has_module(suspect)) {
        rt_->tracer().record(trace::EventKind::kSuspect,
                             rt_->bus().module_info(suspect).machine,
                             suspect, "heartbeat timeout");
      }
      if (find(suspect) != nullptr) {
        try {
          (void)restore_from_checkpoint(suspect);
        } catch (const reconfig::ScriptError&) {
          // No checkpoint yet (crashed before the first one was taken):
          // nothing to restore from. Stop tracking so the sweep does not
          // spin on the corpse; the registration stays for post-mortem.
          detector_.forget_module(suspect);
          if (rt_->metrics().enabled()) {
            rt_->metrics()
                .counter("surgeon_recover_restore_failures_total")
                .inc();
          }
        }
      } else {
        detector_.forget_module(suspect);  // not ours to restore
      }
    } else if (!rt_->module_running(suspect)) {
      // Finished normally, or replaced/removed: silence is expected.
      detector_.forget_module(suspect);
    }
  }
}

void Supervisor::checkpoint_tick() {
  if (in_control_) return;
  for (auto& [logical, w] : watched_) {
    if (rt_->module_running(w.current)) {
      try {
        (void)checkpoint_now(w.current);
      } catch (const reconfig::ScriptError&) {
        // A background checkpoint can lose the race with application
        // shutdown (the module never reaches another reconfiguration
        // point). The previously persisted checkpoint stays valid.
        if (rt_->metrics().enabled()) {
          rt_->metrics()
              .counter("surgeon_recover_checkpoint_failures_total")
              .inc();
        }
      }
    }
  }
}

reconfig::ReplaceReport Supervisor::checkpoint_now(const std::string& name) {
  Watched* w = find(name);
  if (w == nullptr) {
    throw reconfig::ScriptError("checkpoint_now: '" + name +
                                "' is not watched");
  }
  support::FlagScope control(in_control_);
  reconfig::ReplaceOptions opts;
  // The production capture path: the divulged buffer that installs the
  // in-place clone is, byte for byte, the checkpoint we persist.
  opts.state_sink = [this, w](const std::vector<std::uint8_t>& bytes) {
    store_->put(checkpoint_key(w->logical), bytes);
  };
  const std::string old_current = w->current;
  reconfig::ReplaceReport report =
      reconfig::replace_module(*rt_, old_current, opts);
  detector_.forget_module(old_current);
  w->current = report.new_instance;
  ++checkpoints_;
  if (rt_->metrics().enabled()) {
    rt_->metrics().counter("surgeon_recover_checkpoints_total").inc();
  }
  if (rt_->tracer().enabled()) {
    rt_->tracer().record(trace::EventKind::kCheckpoint,
                         rt_->bus().module_info(report.new_instance).machine,
                         report.new_instance,
                         std::to_string(report.state_bytes) + "B of '" +
                             w->logical + "' persisted");
  }
  return report;
}

std::string Supervisor::restore_from_checkpoint(const std::string& instance) {
  Watched* w = find(instance);
  if (w == nullptr) {
    throw reconfig::ScriptError("restore_from_checkpoint: '" + instance +
                                "' is not watched");
  }
  const net::DurableStore::Record* ckpt =
      store_->get(checkpoint_key(w->logical));
  if (ckpt == nullptr) {
    throw reconfig::ScriptError("restore_from_checkpoint: no checkpoint for '" +
                                w->logical + "'");
  }
  bus::Bus& bus = rt_->bus();
  const std::string crashed = w->current;  // copied: w->current changes below
  support::FlagScope control(in_control_);
  const std::string target =
      w->spare.empty() ? bus.module_info(crashed).machine : w->spare;
  // The heir inherits the dead instance's bindings and queued traffic and
  // decodes the persisted checkpoint instead of a freshly divulged buffer.
  // The queue capture hands it the predecessor's reliable streams, so
  // senders' retransmissions converge on it. A crashed instance's pending
  // control traffic is void.
  bus.cancel_pending_control(crashed);
  reconfig::ReplaceOptions opts;
  opts.wait_for_restore = false;
  const reconfig::Shape shape{
      .script = "restore_from_checkpoint",
      .clones = {reconfig::CloneSpec{.machine = target}},
      .state = *ckpt};
  const std::string heir =
      reconfig::run_transaction(*rt_, crashed, shape, opts).new_instance;
  detector_.forget_module(crashed);
  w->current = heir;
  ++restores_;
  if (rt_->metrics().enabled()) {
    rt_->metrics().counter("surgeon_recover_restores_total").inc();
  }
  if (rt_->tracer().enabled()) {
    rt_->tracer().record(trace::EventKind::kRecover, target, heir,
                         "restored '" + w->logical +
                             "' from checkpoint on " + target);
  }
  return heir;
}

}  // namespace surgeon::recover
