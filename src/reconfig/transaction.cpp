#include "reconfig/scripts.hpp"

#include <limits>
#include <map>
#include <string_view>

#include "obs/metrics.hpp"
#include "serialize/state.hpp"
#include "trace/recorder.hpp"

namespace surgeon::reconfig {

using bus::BindEdit;
using bus::BindEditBatch;
using bus::BindingEnd;

namespace {

/// Does `row` run in `shape` (for clone `clone`, when it runs per clone)?
bool row_applies(const StepRow& row, const Shape& shape, bool journaled,
                 std::size_t clone) {
  const Binding bindings = shape.clones[clone].bindings;
  switch (row.action) {
    case Action::kBegin: return journaled;
    case Action::kSignal:
    case Action::kPassivate:
    case Action::kDivulge: return !shape.state.has_value();
    case Action::kRebind: return bindings != Binding::kNone;
    case Action::kAwait:
      return (row.step == std::string_view(kStepAdd)) ==
             shape.restores_in_place;
    case Action::kDrain: return !shape.restores_in_place;
    case Action::kRetire: return bindings == Binding::kAdopt;
    default: return true;
  }
}

}  // namespace

std::vector<RowRun> shape_rows(const Shape& shape, bool journaled) {
  std::vector<RowRun> rows;
  std::string_view step;
  for (const StepRow& row : kStepTable) {
    for (std::size_t i = 0; i < (row.per_clone ? shape.clones.size() : 1);
         ++i) {
      if (!row_applies(row, shape, journaled, i)) continue;
      const bool enters = step != row.step;
      step = row.step;
      rows.push_back({&row, i,
                      enters && step != kStepBegin && step != kStepRestore});
    }
  }
  return rows;
}

std::vector<const char*> journal_intents(const Shape& shape) {
  std::vector<const char*> intents;
  for (const RowRun& run : shape_rows(shape, /*journaled=*/true)) {
    if (run.intent) intents.push_back(run.row->step);
  }
  return intents;
}

namespace {

/// mh_edit_bind commands giving `to` every binding of `from`: moved, with
/// queue capture and removal per interface (Figure 5's loop), or copied
/// (add-only; `from` keeps its bindings).
BindEditBatch make_rebind_batch(bus::Bus& bus, const std::string& from,
                                const std::string& to, bool copy = false) {
  BindEditBatch batch;
  for (const auto& iface : bus.interface_names(from)) {
    const BindingEnd old_end{from, iface};
    const BindingEnd new_end{to, iface};
    for (const auto& peer : bus.bound_peers(old_end)) {
      if (!copy) batch.add(BindEdit{BindEdit::Op::kDel, old_end, peer});
      batch.add(BindEdit{BindEdit::Op::kAdd, new_end, peer});
    }
    if (!copy) {
      batch.add(BindEdit{BindEdit::Op::kCaptureQueue, old_end, new_end});
      batch.add(BindEdit{BindEdit::Op::kRemoveQueue, old_end, {}});
    }
  }
  return batch;
}

std::size_t queued_total(bus::Bus& bus, const std::string& module) {
  return bus.has_module(module) ? bus.queued_messages(module) : 0;
}

enum class Progress { kEmpty, kRestoring, kRestored, kCrashed, kFaulted };

/// What the engine asks of the modules it reconfigures.
class Participant {
 public:
  virtual ~Participant() = default;
  virtual std::string fresh_name(const std::string& source) = 0;
  /// Registers `name`, a passive clone of `like`, on `machine`.
  virtual void create(const std::string& name, const std::string& like,
                      const std::string& machine) = 0;
  /// mh_chg_obj "add"; a no-op for an instance already running.
  virtual void start(const std::string&) {}
  virtual Progress progress(const std::string& name) = 0;
  /// Why `name` faulted while installing its state (progress kFaulted).
  virtual std::string fault_message(const std::string& name) = 0;
  /// mh_chg_obj "del": removes the instance and its bindings.
  virtual void retire(const std::string& name) = 0;
};

/// VM modules over app::Runtime: clones copy the source's image.
class VmModules final : public Participant {
 public:
  VmModules(app::Runtime& rt, const std::string& script,
            std::shared_ptr<const vm::CompiledProgram> program)
      : rt_(rt), script_(script), program_(std::move(program)) {}

  std::string fresh_name(const std::string& source) override {
    return rt_.fresh_instance_name(source);
  }
  void create(const std::string& name, const std::string& like,
              const std::string& machine) override {
    const app::ModuleImage* image = rt_.image_of(like);
    if (image == nullptr) {
      throw ScriptError(script_ + ": no image registered for '" + like + "'");
    }
    app::ModuleImage clone = *image;
    if (program_ != nullptr) clone.program = program_;
    rt_.install_module(name, std::move(clone), machine, "clone");
  }
  void start(const std::string& name) override {
    if (rt_.machine_of(name) == nullptr) rt_.start_module(name);
  }
  Progress progress(const std::string& name) override {
    if (rt_.module_crashed(name)) return Progress::kCrashed;
    const vm::Machine* m = rt_.machine_of(name);
    if (m == nullptr) return Progress::kEmpty;
    if (m->state() == vm::RunState::kFault) return Progress::kFaulted;
    if (m->decode_count() == 0) return Progress::kEmpty;
    return m->restore_frames_remaining() == 0 ? Progress::kRestored
                                              : Progress::kRestoring;
  }
  std::string fault_message(const std::string& name) override {
    return rt_.machine_of(name)->fault_message();
  }
  void retire(const std::string& name) override { rt_.remove_module(name); }

 private:
  app::Runtime& rt_;
  const std::string& script_;
  std::shared_ptr<const vm::CompiledProgram> program_;
};

/// Native bus modules (bus::NativeModule), reached through their bus
/// registration: a clone stays passive until its state buffer arrives (and
/// faults if it rejects it), and the signalled source divulges and
/// passivates on its next tick. Retiring the source hands the caller's
/// handle to the clone that took its place.
class NativeModules final : public Participant {
 public:
  NativeModules(bus::Bus& bus, const NativeFactory& make_clone,
                const NativeHeir& adopt)
      : bus_(bus), make_clone_(make_clone), adopt_(adopt) {}

  std::string fresh_name(const std::string& source) override {
    for (int k = 2;; ++k) {
      std::string name = source + "#" + std::to_string(k);
      if (!bus_.has_module(name)) return name;
    }
  }
  void create(const std::string& name, const std::string&,
              const std::string& machine) override {
    clones_.emplace(name, make_clone_(name, machine));
  }
  Progress progress(const std::string& name) override {
    const bus::NativeModule* module = bus_.native(name);
    if (module == nullptr) return Progress::kEmpty;
    if (module->crashed()) return Progress::kCrashed;
    if (module->faulted()) return Progress::kFaulted;
    return module->active() ? Progress::kRestored : Progress::kEmpty;
  }
  std::string fault_message(const std::string& name) override {
    return bus_.native(name)->fault_message();
  }
  void retire(const std::string& name) override {
    if (clones_.erase(name) != 0) return;  // a clone retires as it dies
    bus_.native(name)->retire();
    adopt_(std::move(clones_.begin()->second));  // the one clone left
    clones_.clear();
  }

 private:
  bus::Bus& bus_;
  const NativeFactory& make_clone_;
  const NativeHeir& adopt_;
  std::map<std::string, std::unique_ptr<bus::NativeModule>> clones_;
};

/// roll_back over any participant.
void roll_back(bus::Bus& bus, Participant& modules, const std::string& source,
               const Shape& shape) {
  if (bus.has_module(source)) {
    bus.cancel_pending_control(source);
    (void)bus.take_pending_signal(source);
  }
  for (const CloneSpec& clone : shape.clones) {
    if (!bus.has_module(clone.name)) continue;
    bus.cancel_pending_control(clone.name);
    modules.retire(clone.name);
  }
}

/// One run of kStepTable for one shape.
class Transaction {
 public:
  Transaction(app::Runtime& rt, Participant& modules, std::string source,
              const Shape& shape, const ReplaceOptions& options)
      : rt_(rt),
        bus_(rt.bus()),
        modules_(modules),
        source_(std::move(source)),
        shape_(shape),
        options_(options) {}
  /// Closes the run's trace grouping however the run ends, so later
  /// traffic is not misattributed.
  ~Transaction() { rt_.tracer().end_trace(); }
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  ReplaceReport run() {
    // A run that starts past the watershed (state supplied) may find the
    // source and an adopted holder gone already; its rows probe them.
    if (!shape_.state.has_value()) {
      require(source_);
      for (const CloneSpec& spec : shape_.clones) {
        if (spec.bindings == Binding::kAdopt) require(spec.holder);
      }
    }
    report_.old_instance = source_;
    report_.requested_at = rt_.now();
    // One trace grouping for the whole run (signal, divulge, state move,
    // rebind, captures); a no-op while causal tracing is disabled.
    if (rt_.tracer().enabled()) {
      report_.trace_id = rt_.tracer().begin_trace("replace:" + source_);
    }
    // Clone names are assigned before step 1 so the journal's begin record
    // names the parties up front; a successor re-enters the run under them.
    for (CloneSpec& spec : shape_.clones) {
      if (spec.name.empty()) spec.name = modules_.fresh_name(source_);
      clones_.push_back(spec.name);
    }
    if (shape_.state.has_value()) {
      report_.divulged_at = rt_.now();
      hold(*shape_.state);
    }
    const char* step = nullptr;
    for (const RowRun& run : shape_rows(shape_, options_.journal != nullptr)) {
      if (run.row->step == std::string_view(kStepRestore) &&
          !options_.wait_for_restore) {
        continue;
      }
      if (run.row->step != step) enter(step = run.row->step, run.intent);
      // Before the watershed nothing irreversible happened: a failure
      // removes the clones and leaves the application on the old instance.
      try {
        execute(run.row->action, run.clone);
      } catch (const std::exception& e) {
        if (!divulged_ && !rolled_back_) rollback(e.what());
        throw;
      }
    }
    report_.new_instance = clones_.front();
    return report_;
  }

 private:
  void require(const std::string& module) const {
    if (!bus_.has_module(module)) {
      throw ScriptError(shape_.script + ": unknown module '" + module + "'");
    }
  }

  /// Write-ahead discipline: the intent record hits the log before the step
  /// runs, and the crash hook fires between the two -- a throw from it
  /// models the coordinator dying at exactly that boundary, so nothing is
  /// rolled back. Each Figure 5 step then runs under an obs::Span (a no-op
  /// while metrics are disabled).
  void enter(const char* step, bool intent) {
    span_.reset();
    if (!intent) return;
    if (options_.journal != nullptr) options_.journal->intent(step);
    if (options_.crash_hook) options_.crash_hook(step);
    if (std::string_view(step) != kStepCommit) {
      span_.emplace(&rt_.metrics(), step, source_);
    }
  }

  /// Whose bindings and queues `clone` takes: an adopted holder's, or else
  /// the source's.
  [[nodiscard]] const std::string& bindings_of(const CloneSpec& clone) const {
    return clone.bindings == Binding::kAdopt ? clone.holder : source_;
  }

  void execute(Action action, std::size_t i) {
    const CloneSpec& spec = shape_.clones[i];
    switch (action) {
      case Action::kBegin:
        options_.journal->begin(source_, shape_);
        break;
      case Action::kObjCap:
        // The machine may have changed in an earlier reconfiguration, so
        // it is read from the bus, not the configuration.
        if (bus_.has_module(source_)) {
          source_machine_ = bus_.module_info(source_).machine;
        }
        break;
      case Action::kRegister:
        if (!bus_.has_module(clones_[i])) {
          modules_.create(clones_[i], source_,
                          spec.machine.empty() ? source_machine_ : spec.machine);
        }
        break;
      case Action::kPrep:
        // Applied later, all at once, as in Figure 5: the queue captures act
        // on whatever is queued when the batch applies.
        for (std::size_t k = 0; k < clones_.size(); ++k) {
          const CloneSpec& c = shape_.clones[k];
          batches_.push_back(
              c.bindings == Binding::kNone || !bus_.has_module(bindings_of(c))
                  ? BindEditBatch{}
                  : make_rebind_batch(bus_, bindings_of(c), clones_[k],
                                      c.bindings == Binding::kCopy));
        }
        break;
      case Action::kSignal:
        // Probed like every row: a source whose divulged buffer already
        // waits in its mailbox (a dead coordinator's run) is not signalled
        // again, and the rows below take that buffer.
        if (!bus_.has_divulged_state(source_)) bus_.signal_reconfig(source_);
        break;
      case Action::kPassivate: {
        const auto crashed = [&] {
          return modules_.progress(source_) == Progress::kCrashed;
        };
        (void)await(
            [&] { return bus_.has_divulged_state(source_) || crashed(); },
            options_.divulge_timeout_us, /*nudging=*/true);
        if (!bus_.has_divulged_state(source_)) {
          const bool dead = crashed();
          rollback(dead ? "crashed before divulge" : "divulge timeout");
          throw step_error(kStepObjstateMove, "module", source_,
                           dead ? "crashed before divulging"
                                : "never divulged its state (does execution "
                                  "reach a reconfiguration point?)");
        }
        report_.divulged_at = rt_.now();
        break;
      }
      case Action::kDivulge:
        hold(bus_.take_divulged_state(source_));
        // The divulged record is the roll-forward watershed: it must be
        // durable before the state buffer enters the delivery pipeline.
        if (options_.journal != nullptr) options_.journal->divulged(state_);
        if (options_.state_sink) options_.state_sink(state_);
        break;
      case Action::kDeliver:
        // Probed first: a resumed run's clone may already hold the buffer
        // (decoded, mailboxed, or the dead coordinator's delivery in flight).
        if (modules_.progress(clones_[i]) != Progress::kEmpty ||
            bus_.has_incoming_state(clones_[i])) {
          break;
        }
        bus_.cancel_pending_control(clones_[i]);
        bus_.deliver_state(bus_.has_module(source_)
                               ? source_machine_
                               : bus_.module_info(clones_[i]).machine,
                           clones_[i], state_);
        break;
      case Action::kRebind:
        // mh_rebind: atomically repoint bindings and move queued messages.
        // In a resumed run whose bindings already moved, the batch
        // degenerates to queue capture and sweeps stragglers across.
        if (spec.bindings != Binding::kCopy) {
          report_.queued_messages_moved += queued_total(bus_, bindings_of(spec));
        }
        bus_.rebind(batches_[i]);
        report_.rebound_at = rt_.now();
        break;
      case Action::kStart:
        modules_.start(clones_[i]);
        break;
      case Action::kAwait:
        await_restore(i);
        report_.restored_at = rt_.now();
        break;
      case Action::kDrain:
        // In-flight messages land in the old instance's unbound queues
        // during the drain window and are captured across; the drain span
        // nests inside the del span on the timeline.
        if (!bus_.has_module(source_)) break;
        rt_.stop_module(source_);
        if (options_.drain_us > 0) {
          obs::Span drain(&rt_.metrics(), kStepDrain, source_);
          rt_.run_for(options_.drain_us, options_.max_rounds);
          if (const std::size_t late = queued_total(bus_, source_)) {
            BindEditBatch batch;
            for (const auto& iface : bus_.interface_names(source_)) {
              batch.add(BindEdit{BindEdit::Op::kCaptureQueue,
                                 BindingEnd{source_, iface},
                                 BindingEnd{clones_.front(), iface}});
            }
            bus_.rebind(batch);
            report_.queued_messages_moved += late;
          }
        }
        break;
      case Action::kRemove:
        if (bus_.has_module(source_)) modules_.retire(source_);
        break;
      case Action::kRetire:
        if (!bus_.has_module(spec.holder)) break;
        bus_.cancel_pending_control(spec.holder);
        modules_.retire(spec.holder);
        break;
      case Action::kCommit:
        if (options_.journal != nullptr) options_.journal->committed();
        report_.completed_at = rt_.now();
        record_disruption();
        break;
    }
  }

  /// Holds the divulged (or supplied) buffer: the watershed is passed.
  void hold(std::vector<std::uint8_t> state) {
    state_ = std::move(state);
    divulged_ = true;
    report_.state_bytes = state_.size();
    report_.state_frames = ser::StateBuffer::decode(state_).frame_count();
  }

  /// Pumps the scheduler until `done` holds, the virtual deadline passes
  /// (timeout 0 = none), the round budget is spent, or the system idles.
  /// A nudging wait calls options.nudge at its start, every 2 virtual ms,
  /// and whenever the system idles, instead of giving up when idle.
  bool await(const std::function<bool()>& done, net::SimTime timeout_us,
             bool nudging) {
    constexpr net::SimTime kNudgeEveryUs = 2'000;
    const net::SimTime deadline =
        timeout_us > 0 ? rt_.now() + timeout_us
                       : std::numeric_limits<net::SimTime>::max();
    nudging = nudging && options_.nudge != nullptr;
    net::SimTime next_nudge = rt_.now();
    for (std::uint64_t round = 0; !done(); ++round) {
      if (rt_.now() >= deadline || round >= options_.max_rounds) return false;
      if (nudging && rt_.now() >= next_nudge) {
        options_.nudge();
        next_nudge = rt_.now() + kNudgeEveryUs;
      }
      if (!rt_.step()) {
        if (!nudging) return done();
        next_nudge = rt_.now();
      }
    }
    return true;
  }

  /// Waits for a clone to finish installing its state. A clone that crashes
  /// (or whose state transfer gave up) becomes a binding/queue holder for a
  /// fresh clone, which gets the saved buffer re-delivered. The old instance
  /// may be gone, so there is no rollback past the watershed -- only retries
  /// until max_attempts, then a ScriptError naming the last failure.
  void await_restore(std::size_t i) {
    for (;; ++report_.attempts) {
      (void)await(
          [&] {
            const Progress p = modules_.progress(clones_[i]);
            return p != Progress::kEmpty && p != Progress::kRestoring;
          },
          options_.restore_timeout_us, /*nudging=*/false);
      const Progress progress = modules_.progress(clones_[i]);
      if (progress == Progress::kRestored) return;
      if (progress == Progress::kFaulted) {
        throw step_error(kStepAdd, "clone", clones_[i],
                         "faulted while installing state: " +
                             modules_.fault_message(clones_[i]));
      }
      if (report_.attempts >= options_.max_attempts) {
        throw step_error(kStepAdd, "clone", clones_[i],
                         progress == Progress::kCrashed
                             ? "crashed while restoring"
                             : "did not finish restoring within the budget");
      }
      const std::string holder = clones_[i];
      bus_.cancel_pending_control(holder);
      clones_[i] = modules_.fresh_name(source_);
      modules_.create(clones_[i], holder, bus_.module_info(holder).machine);
      bus_.deliver_state(source_machine_, clones_[i], state_);
      bus_.rebind(make_rebind_batch(bus_, holder, clones_[i]));
      modules_.start(clones_[i]);
      modules_.retire(holder);
    }
  }

  void rollback(const std::string& reason) {
    rolled_back_ = true;
    roll_back(bus_, modules_, source_, shape_);
    if (options_.journal != nullptr) options_.journal->aborted(reason);
  }

  /// Disruption metrics: how long the application was without the module,
  /// and how much state the run moved. The per-message queueing delay
  /// (surgeon_reconfig_queued_delay_us) is recorded by the bus at capture.
  void record_disruption() {
    obs::MetricsRegistry& metrics = rt_.metrics();
    if (!metrics.enabled()) return;
    obs::Labels labels{{"module", source_}};
    metrics.counter("surgeon_reconfig_replacements_total", labels).inc();
    if (report_.restored_at != 0) {
      metrics.histogram("surgeon_reconfig_blackout_us", labels)
          .observe(report_.blackout_us());
    }
    metrics.histogram("surgeon_reconfig_total_us", labels)
        .observe(report_.total_delay());
    metrics
        .histogram("surgeon_reconfig_state_bytes", labels,
                   {64, 256, 1'024, 4'096, 16'384, 65'536, 262'144, 1'048'576})
        .observe(report_.state_bytes);
    metrics.counter("surgeon_reconfig_queued_moved_total", labels)
        .inc(report_.queued_messages_moved);
  }

  [[nodiscard]] ScriptError step_error(const char* step, const char* role,
                                       const std::string& instance,
                                       const std::string& what) const {
    return ScriptError(shape_.script + "[" + step + "] " + role + " '" +
                       instance + "': " + what);
  }

  app::Runtime& rt_;
  bus::Bus& bus_;
  Participant& modules_;
  const std::string source_;
  Shape shape_;  // clones named as the run assigned them
  const ReplaceOptions& options_;
  ReplaceReport report_;
  std::vector<std::string>& clones_ = report_.clones;
  std::string source_machine_;
  std::vector<BindEditBatch> batches_;
  std::vector<std::uint8_t> state_;  // re-delivered to later clones/retries
  bool divulged_ = false;
  bool rolled_back_ = false;
  std::optional<obs::Span> span_;
};

}  // namespace

Shape replace_shape(std::string machine) {
  return Shape{.script = "replace_module",
               .clones = {CloneSpec{.machine = std::move(machine)}}};
}

Shape native_shape(std::string machine) {
  Shape shape = replace_shape(std::move(machine));
  shape.restores_in_place = true;
  return shape;
}

Shape replicate_shape(std::string replica_machine, bool bind_replica) {
  return Shape{
      .script = "replicate_module",
      .clones = {CloneSpec{},
                 CloneSpec{.bindings = bind_replica ? Binding::kCopy
                                                    : Binding::kNone,
                           .machine = std::move(replica_machine)}}};
}

Shape rebuild_shape(std::string dead_member, std::string machine) {
  return Shape{.script = "rebuild_group",
               .clones = {CloneSpec{},
                          CloneSpec{.bindings = Binding::kAdopt,
                                    .machine = std::move(machine),
                                    .holder = std::move(dead_member)}}};
}

ReplaceReport run_transaction(app::Runtime& rt, const std::string& source,
                              const Shape& shape,
                              const ReplaceOptions& options) {
  VmModules modules(rt, shape.script, options.program);
  return Transaction(rt, modules, source, shape, options).run();
}

void roll_back(app::Runtime& rt, const std::string& source,
               const Shape& shape) {
  VmModules modules(rt, shape.script, nullptr);
  roll_back(rt.bus(), modules, source, shape);
}

ReplaceReport replace_module(app::Runtime& rt, const std::string& instance,
                             const ReplaceOptions& options) {
  return run_transaction(rt, instance, replace_shape(options.machine),
                         options);
}

ReplaceReport replace_native(app::Runtime& rt, const std::string& module,
                             const NativeFactory& make_clone,
                             const NativeHeir& adopt,
                             const ReplaceOptions& options) {
  NativeModules modules(rt.bus(), make_clone, adopt);
  return Transaction(rt, modules, module, native_shape(options.machine),
                     options)
      .run();
}

ReplaceReport move_module(app::Runtime& rt, const std::string& instance,
                          const std::string& machine) {
  ReplaceOptions options;
  options.machine = machine;
  return replace_module(rt, instance, options);
}

ReplaceReport update_module(
    app::Runtime& rt, const std::string& instance,
    std::shared_ptr<const vm::CompiledProgram> program) {
  ReplaceOptions options;
  options.program = std::move(program);
  return replace_module(rt, instance, options);
}

ReplaceReport replicate_module(app::Runtime& rt, const std::string& instance,
                               const std::string& replica_machine,
                               bool bind_replica) {
  // Divulge once, install the same abstract state twice: the abstract
  // format is plain data that can be copied to any number of clones.
  return run_transaction(rt, instance,
                         replicate_shape(replica_machine, bind_replica), {});
}

}  // namespace surgeon::reconfig
