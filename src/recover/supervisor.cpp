#include "recover/supervisor.hpp"

#include "obs/metrics.hpp"
#include "reconfig/scripts.hpp"
#include "trace/recorder.hpp"

namespace surgeon::recover {

namespace {

/// Flags re-entrancy for the lifetime of a control operation: detector
/// sweeps and checkpoint ticks that fire while the supervisor is already
/// mid-operation (both pump the scheduler) skip their work.
struct ControlScope {
  explicit ControlScope(bool& flag) : flag_(flag) { flag_ = true; }
  ~ControlScope() { flag_ = false; }
  ControlScope(const ControlScope&) = delete;
  ControlScope& operator=(const ControlScope&) = delete;

 private:
  bool& flag_;
};

}  // namespace

Supervisor::Supervisor(app::Runtime& rt, net::DurableStore& store,
                       SupervisorOptions options)
    : rt_(&rt),
      store_(&store),
      options_(options),
      detector_(DetectorOptions{options.suspicion_timeout_us}) {}

std::string Supervisor::logical_name(const std::string& instance) {
  auto pos = instance.rfind('@');
  return pos == std::string::npos ? instance : instance.substr(0, pos);
}

void Supervisor::watch(const std::string& instance,
                       const std::string& spare_machine) {
  Watched w;
  w.logical = logical_name(instance);
  w.current = instance;
  w.spare = spare_machine;
  watched_[w.logical] = std::move(w);
}

std::string Supervisor::current_instance(const std::string& logical) const {
  auto it = watched_.find(logical);
  return it == watched_.end() ? std::string{} : it->second.current;
}

Supervisor::Watched* Supervisor::find(const std::string& name) {
  auto it = watched_.find(logical_name(name));
  return it == watched_.end() ? nullptr : &it->second;
}

void Supervisor::start() {
  if (running_) return;
  running_ = true;
  std::uint64_t epoch = ++epoch_;
  rt_->enable_heartbeats(
      options_.heartbeat_interval_us,
      [this](net::SimTime at, std::uint64_t /*generation*/,
             std::span<const app::LiveProcess> live) {
        for (const app::LiveProcess& process : live) {
          detector_.beat(*process.instance, at);
        }
      });
  rt_->simulator().schedule_after(options_.sweep_interval_us,
                                  [this, epoch] { sweep(epoch); });
  if (options_.checkpoint_interval_us > 0) {
    rt_->simulator().schedule_after(options_.checkpoint_interval_us,
                                    [this, epoch] { checkpoint_tick(epoch); });
  }
}

void Supervisor::stop() {
  if (!running_) return;
  running_ = false;
  ++epoch_;
  rt_->disable_heartbeats();
}

void Supervisor::sweep(std::uint64_t epoch) {
  if (epoch != epoch_) return;
  if (!in_control_) {
    for (const std::string& suspect : detector_.suspects(rt_->now())) {
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
            detector_.forget(suspect);
            if (rt_->metrics().enabled()) {
              rt_->metrics()
                  .counter("surgeon_recover_restore_failures_total")
                  .inc();
            }
          }
        } else {
          detector_.forget(suspect);  // not ours to restore
        }
      } else if (!rt_->module_running(suspect)) {
        // Finished normally, or replaced/removed: silence is expected.
        detector_.forget(suspect);
      }
    }
  }
  rt_->simulator().schedule_after(options_.sweep_interval_us,
                                  [this, epoch] { sweep(epoch); });
}

void Supervisor::checkpoint_tick(std::uint64_t epoch) {
  if (epoch != epoch_) return;
  if (!in_control_) {
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
  rt_->simulator().schedule_after(options_.checkpoint_interval_us,
                                  [this, epoch] { checkpoint_tick(epoch); });
}

reconfig::ReplaceReport Supervisor::checkpoint_now(const std::string& name) {
  Watched* w = find(name);
  if (w == nullptr) {
    throw reconfig::ScriptError("checkpoint_now: '" + name +
                                "' is not watched");
  }
  ControlScope scope(in_control_);
  reconfig::ReplaceOptions opts;
  opts.max_rounds = options_.max_rounds;
  opts.drain_us = options_.drain_us;
  // The production capture path: the divulged buffer that installs the
  // in-place clone is, byte for byte, the checkpoint we persist.
  opts.state_sink = [this, w](const std::vector<std::uint8_t>& bytes) {
    store_->put(checkpoint_key(w->logical), bytes);
  };
  const std::string old_current = w->current;
  reconfig::ReplaceReport report =
      reconfig::replace_module(*rt_, old_current, opts);
  detector_.forget(old_current);
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
  ControlScope scope(in_control_);
  const std::string target =
      w->spare.empty() ? bus.module_info(crashed).machine : w->spare;
  // The heir inherits the dead instance's bindings and queued traffic and
  // decodes the persisted checkpoint instead of a freshly divulged buffer.
  // The queue capture hands it the predecessor's reliable streams, so
  // senders' retransmissions converge on it. A crashed instance's pending
  // control traffic is void.
  bus.cancel_pending_control(crashed);
  reconfig::ReplaceOptions opts;
  opts.max_rounds = options_.max_rounds;
  opts.drain_us = options_.drain_us;
  opts.wait_for_restore = false;
  const reconfig::Shape shape{
      .script = "restore_from_checkpoint",
      .clones = {reconfig::CloneSpec{.machine = target}},
      .state = *ckpt};
  const std::string heir =
      reconfig::run_transaction(*rt_, crashed, shape, opts).new_instance;
  detector_.forget(crashed);
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
