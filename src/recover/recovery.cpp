#include "recover/recovery.hpp"

#include "obs/metrics.hpp"
#include "reconfig/scripts.hpp"
#include "trace/recorder.hpp"

namespace surgeon::recover {

namespace {

/// True once the clone has decoded its state buffer and finished restoring.
bool clone_restored(app::Runtime& rt, const std::string& instance) {
  vm::Machine* m = rt.machine_of(instance);
  return m != nullptr && m->decode_count() > 0 &&
         m->restore_frames_remaining() == 0;
}

}  // namespace

RecoveryReport recover_coordinator(app::Runtime& rt, Wal& wal,
                                   const RecoveryOptions& options) {
  RecoveryReport report;
  std::optional<WalTxn> open = wal.open_transaction();
  if (!open.has_value()) return report;
  report.found_open_txn = true;
  report.txn = open->id;
  report.old_instance = open->old_instance;
  report.new_instance = open->new_instance;
  report.crashed_after_step = open->last_step();

  bus::Bus& bus = rt.bus();
  const std::string& old_name = open->old_instance;
  const std::string& new_name = open->new_instance;
  obs::MetricsRegistry& metrics = rt.metrics();
  obs::Span span(&metrics, "recover", old_name);

  // Let control traffic the dead coordinator already launched (reliable
  // signal/state retries) land before probing what actually happened.
  if (options.settle_us > 0) {
    rt.run_for(options.settle_us, options.max_rounds);
  }

  // Neither logged name is registered: the script got past removing both
  // before dying. Its retry chain can supersede the logged clone name
  // (server@2 crashed -> server@3 took over), so if a newer generation of
  // the logical module is serving, the replacement effectively completed.
  if (!bus.has_module(old_name) && !bus.has_module(new_name)) {
    const std::string_view stem = app::logical_name(old_name);
    for (const std::string& name : bus.module_names()) {
      if (app::logical_name(name) == stem) {
        report.new_instance = name;
        report.restored = clone_restored(rt, name);
        report.rolled_forward = true;
        wal.mark_committed(open->id);
        return report;
      }
    }
    throw reconfig::ScriptError(
        "recover: txn#" + std::to_string(open->id) + " names no live module ('" +
        old_name + "' and '" + new_name + "' both gone)");
  }

  // The divulge watershed. The state is safe if its record hit the WAL, or
  // if the old module posted it to the bus just before the crash (the bus
  // daemon survives a coordinator death, so the mailbox is still there).
  const bool post_divulge =
      open->state.has_value() ||
      (bus.has_module(old_name) && bus.has_divulged_state(old_name));

  if (!post_divulge) {
    // --- rollback: undo the registration, keep serving on the old module.
    if (bus.has_module(old_name)) {
      bus.cancel_pending_control(old_name);
      (void)bus.take_pending_signal(old_name);
    }
    if (bus.has_module(new_name)) {
      bus.cancel_pending_control(new_name);
      rt.remove_module(new_name);
    }
    wal.mark_aborted(open->id, "coordinator crashed after '" +
                                   report.crashed_after_step +
                                   "': rolled back");
    report.rolled_back = true;
    if (metrics.enabled()) {
      metrics.counter("surgeon_recover_rollback_total").inc();
    }
    if (rt.tracer().enabled() && bus.has_module(old_name)) {
      rt.tracer().record(trace::EventKind::kRecover,
                         bus.module_info(old_name).machine, old_name,
                         "txn#" + std::to_string(open->id) + " rolled back");
    }
    return report;
  }

  // --- roll-forward: re-enter the engine after the watershed. A clone
  // that died in the meantime (e.g. killed by the same fault burst that
  // took the coordinator) is restarted from its image first, so the
  // engine's state probe sees a fresh VM and re-delivers.
  if (bus.has_module(new_name) && rt.module_crashed(new_name)) {
    rt.restart_module(new_name);
  }
  // The run keeps the names the begin record logged. Its state is the
  // WAL's divulged record, or else the buffer the old module posted to its
  // mailbox just before the coordinator died.
  reconfig::ReplaceOptions resume;
  resume.max_rounds = options.max_rounds;
  resume.drain_us = options.drain_us;
  resume.wait_for_restore = false;
  const reconfig::Shape shape{
      .script = "recover_coordinator",
      .clones = {reconfig::CloneSpec{.machine = open->machine,
                                     .name = new_name}},
      .state = open->state};
  (void)reconfig::run_transaction(rt, old_name, shape, resume);

  // Wait for the clone to restore, then close the transaction.
  if (options.restore_timeout_us > 0) {
    net::SimTime deadline = rt.now() + options.restore_timeout_us;
    (void)rt.run_until(
        [&] { return clone_restored(rt, new_name) || rt.now() >= deadline; },
        options.max_rounds);
    report.restored = clone_restored(rt, new_name);
  } else {
    report.restored = rt.run_until(
        [&] { return clone_restored(rt, new_name); }, options.max_rounds);
  }
  wal.mark_committed(open->id);
  report.rolled_forward = true;
  if (metrics.enabled()) {
    metrics.counter("surgeon_recover_rollforward_total").inc();
  }
  if (rt.tracer().enabled()) {
    rt.tracer().record(trace::EventKind::kRecover,
                       bus.module_info(new_name).machine, new_name,
                       "txn#" + std::to_string(open->id) + " rolled forward");
  }
  return report;
}

}  // namespace surgeon::recover
