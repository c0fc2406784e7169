#include "recover/recovery.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "reconfig/scripts.hpp"
#include "trace/recorder.hpp"

namespace surgeon::recover {

namespace {

constexpr net::SimTime kSettleUs = 50'000;
constexpr net::SimTime kRestoreBudgetUs = 10'000'000;

/// True once the clone has decoded its state buffer and finished restoring.
bool clone_restored(app::Runtime& rt, const std::string& instance) {
  vm::Machine* m = rt.machine_of(instance);
  return m != nullptr && m->decode_count() > 0 &&
         m->restore_frames_remaining() == 0;
}

}  // namespace

RecoveryReport recover_coordinator(app::Runtime& rt, Wal& wal) {
  RecoveryReport report;
  std::optional<WalTxn> open = wal.open_transaction();
  if (!open.has_value()) return report;
  const std::string& source = open->source;
  reconfig::Shape& shape = open->shape;
  shape.script = "recover_coordinator";
  report.found_open_txn = true;
  report.txn = open->id;
  report.old_instance = source;
  report.new_instance = shape.clones.front().name;
  report.crashed_after_step = open->last_step();

  bus::Bus& bus = rt.bus();
  obs::MetricsRegistry& metrics = rt.metrics();
  obs::Span span(&metrics, "recover", source);
  reconfig::ReplaceOptions resume;
  resume.wait_for_restore = false;
  // Let control traffic the dead coordinator already launched (reliable
  // signal/state retries) land before probing what actually happened.
  rt.run_for(kSettleUs, resume.max_rounds);

  // Nothing the begin record names is registered: the script got past
  // removing the source and every clone before dying. Its retry chain can
  // supersede a logged clone name (server@2 crashed -> server@3 took over),
  // so if a newer generation of the logical module is serving, the
  // replacement effectively completed.
  const auto registered = [&bus](const reconfig::CloneSpec& clone) {
    return bus.has_module(clone.name);
  };
  if (!bus.has_module(source) &&
      std::none_of(shape.clones.begin(), shape.clones.end(), registered)) {
    const std::string_view stem = app::logical_name(source);
    for (const std::string& name : bus.module_names()) {
      if (app::logical_name(name) == stem) {
        report.new_instance = name;
        report.restored = clone_restored(rt, name);
        report.rolled_forward = true;
        wal.mark_committed(open->id);
        return report;
      }
    }
    throw reconfig::ScriptError("recover: txn#" + std::to_string(open->id) +
                                " names no live module ('" + source +
                                "' and its clones all gone)");
  }

  // The divulge watershed. The state is safe if its record hit the WAL, or
  // if the old module posted it to the bus just before the crash (the bus
  // daemon survives a coordinator death, so the mailbox is still there).
  const bool post_divulge =
      shape.state.has_value() ||
      (bus.has_module(source) && bus.has_divulged_state(source));

  if (!post_divulge) {
    reconfig::roll_back(rt, source, shape);
    wal.mark_aborted(open->id, "coordinator crashed after '" +
                                   report.crashed_after_step +
                                   "': rolled back");
    report.rolled_back = true;
    if (metrics.enabled()) {
      metrics.counter("surgeon_recover_rollback_total").inc();
    }
    if (rt.tracer().enabled() && bus.has_module(source)) {
      rt.tracer().record(trace::EventKind::kRecover,
                         bus.module_info(source).machine, source,
                         "txn#" + std::to_string(open->id) + " rolled back");
    }
    return report;
  }

  // --- roll-forward: re-enter the engine with the logged shape. A clone
  // that died in the meantime (e.g. killed by the same fault burst that
  // took the coordinator) is restarted from its image first, so the
  // engine's state probe sees a fresh VM and re-delivers. The state is the
  // WAL's divulged record, or else (none supplied) the engine's own rows
  // take the buffer the old module posted to its mailbox.
  for (const reconfig::CloneSpec& clone : shape.clones) {
    if (bus.has_module(clone.name) && rt.module_crashed(clone.name)) {
      rt.restart_module(clone.name);
    }
  }
  (void)reconfig::run_transaction(rt, source, shape, resume);

  // Wait for every clone to restore, then close the transaction.
  const auto all_restored = [&] {
    return std::all_of(shape.clones.begin(), shape.clones.end(),
                       [&rt](const reconfig::CloneSpec& clone) {
                         return clone_restored(rt, clone.name);
                       });
  };
  const net::SimTime deadline = rt.now() + kRestoreBudgetUs;
  (void)rt.run_until([&] { return all_restored() || rt.now() >= deadline; },
                     resume.max_rounds);
  report.restored = all_restored();
  wal.mark_committed(open->id);
  report.rolled_forward = true;
  if (metrics.enabled()) {
    metrics.counter("surgeon_recover_rollforward_total").inc();
  }
  if (rt.tracer().enabled()) {
    rt.tracer().record(trace::EventKind::kRecover,
                       bus.module_info(report.new_instance).machine,
                       report.new_instance,
                       "txn#" + std::to_string(open->id) + " rolled forward");
  }
  return report;
}

}  // namespace surgeon::recover
