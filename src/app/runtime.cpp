#include "app/runtime.hpp"

#include <algorithm>

#include "bus/native.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "opt/optimizer.hpp"

namespace surgeon::app {

using support::BusError;

Runtime::Runtime(std::uint64_t seed) : sim_(seed), bus_(sim_), seed_(seed) {
  bus_.set_wake_callback([this](const std::string& module) { wake(module); });
  // The registry rides along from the start (disabled, so a no-op) so that
  // endpoint and process handles resolve exactly once, at registration.
  metrics_.set_clock([this] { return sim_.now(); });
  bus_.set_metrics(&metrics_);
  // Same pattern for the causal flight recorder: attached from the start,
  // inert until enable_causal_tracing().
  tracer_.set_clock(&sim_);
  bus_.set_tracer(&tracer_);
}

void Runtime::publish_vm_metrics(ProcessRec& rec, std::uint64_t instructions) {
  const vm::Machine& m = *rec.machine;
  rec.insn_ctr->inc(instructions);
  rec.capture_frames_gauge->set(
      static_cast<std::int64_t>(m.capture_frames_total()));
  rec.restore_frames_gauge->set(
      static_cast<std::int64_t>(m.restore_frames_total()));
  rec.state_bytes_gauge->set(
      static_cast<std::int64_t>(m.encoded_state_bytes_total()));
}

void Runtime::wake(const std::string& instance) {
  auto it = processes_.find(instance);
  // A sleeping module is not disturbed by message arrival; only its timer
  // wakes it (sleep() already completed inside the VM).
  if (it != processes_.end() && !it->second.sleeping) resume(it);
}

void Runtime::resume(ProcessIt it) {
  ProcessRec& rec = it->second;
  if (!rec.waiting) return;
  rec.waiting = false;
  if (!rec.finished) make_ready(it);
}

std::size_t Runtime::ready_slot(const std::string& name) const {
  const auto pos = std::partition_point(
      ready_.begin(), ready_.end(),
      [&name](ProcessIt p) { return p->first < name; });
  return static_cast<std::size_t>(pos - ready_.begin());
}

void Runtime::make_ready(ProcessIt it) {
  const std::size_t at = ready_slot(it->first);
  if (at < ready_next_) ++ready_next_;
  ready_.insert(ready_.begin() + static_cast<std::ptrdiff_t>(at), it);
}

void Runtime::unready(ProcessIt it) {
  const std::size_t at = ready_slot(it->first);
  if (at < ready_next_) --ready_next_;
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(at));
}

void Runtime::unready_running() {
  // The process whose slice just ended sits right before the cursor:
  // make_ready/unready keep it there whatever its slice woke or retired.
  --ready_next_;
  ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(ready_next_));
}

void Runtime::drop_process(const std::string& instance) {
  crashed_.erase(instance);
  auto it = processes_.find(instance);
  if (it == processes_.end()) return;
  if (!it->second.waiting && !it->second.finished) unready(it);
  processes_.erase(it);
  ++live_generation_;
}

void Runtime::install_module(const std::string& instance, ModuleImage image,
                             const std::string& machine,
                             const std::string& status) {
  bus::ModuleInfo info;
  info.name = instance;
  info.machine = !machine.empty()      ? machine
                 : !image.spec.machine.empty() ? image.spec.machine
                                               : std::string{};
  if (info.machine.empty()) {
    throw BusError("module " + instance + " has no machine assignment");
  }
  info.status = status;
  info.source = image.spec.source;
  info.interfaces = image.spec.interfaces;
  bus_.add_module(std::move(info));
  images_[instance] = std::move(image);
}

void Runtime::start_module(const std::string& instance) {
  auto img = images_.find(instance);
  if (img == images_.end()) {
    throw BusError("start_module: unknown instance " + instance);
  }
  if (processes_.contains(instance)) {
    throw BusError("start_module: " + instance + " is already running");
  }
  const auto& info = bus_.module_info(instance);
  const net::Machine& host = sim_.machine(info.machine);
  ProcessRec rec;
  rec.host = info.machine;
  rec.client = std::make_unique<bus::Client>(bus_, instance);
  rec.machine = std::make_unique<vm::Machine>(*img->second.program, host.arch,
                                              seed_ ^ std::hash<std::string>{}(
                                                          instance));
  rec.machine->attach_client(rec.client.get());
  obs::Labels labels{{"module", instance}};
  rec.insn_ctr = &metrics_.counter("surgeon_vm_instructions_total", labels);
  rec.capture_frames_gauge =
      &metrics_.gauge("surgeon_vm_capture_frames", labels);
  rec.restore_frames_gauge =
      &metrics_.gauge("surgeon_vm_restore_frames", labels);
  rec.state_bytes_gauge =
      &metrics_.gauge("surgeon_vm_encoded_state_bytes", labels);
  if (profiler_ != nullptr) attach_tap(instance, rec);
  make_ready(processes_.emplace(instance, std::move(rec)).first);
  ++live_generation_;
}

void Runtime::stop_module(const std::string& instance) {
  drop_process(instance);
}

void Runtime::remove_module(const std::string& instance) {
  drop_process(instance);
  images_.erase(instance);
  if (bus_.has_module(instance)) bus_.remove_module(instance);
}

void Runtime::crash_now(ProcessIt it, const std::string& detail) {
  const std::string& instance = it->first;
  ProcessRec& rec = it->second;
  if (!rec.waiting) unready(it);
  rec.finished = true;
  ++live_generation_;
  rec.crash_in_insns.reset();
  crashed_.insert(instance);
  bus_.note_module_crashed(instance, detail);
  if (rec.restart_after_us > 0) {
    net::SimTime delay = rec.restart_after_us;
    rec.restart_after_us = 0;
    sim_.schedule_after(delay, [this, instance] {
      // The script may have removed the module while it was down.
      if (crashed_.contains(instance) && images_.contains(instance)) {
        restart_module(instance);
      }
    });
  }
}

void Runtime::crash_module(const std::string& instance,
                           const std::string& detail) {
  auto it = processes_.find(instance);
  if (it != processes_.end()) {
    if (!it->second.finished) crash_now(it, detail);  // else dead or done
  } else if (bus::NativeModule* native = bus_.native(instance)) {
    (void)native->crash(detail);
  } else {
    throw BusError("crash_module: " + instance + " has no process");
  }
}

std::vector<std::string> Runtime::crash_machine(const std::string& machine,
                                                const std::string& detail) {
  // Kill every live process hosted on the machine, in name order (the
  // iteration is over the process map, which is ordered). Bus registrations
  // -- endpoints, queues, bindings -- survive, exactly as when a POLYLITH
  // host dies but the nameserver still lists its modules; the rebuild
  // script retires the corpses.
  std::vector<std::string> killed;
  for (auto it = processes_.begin(); it != processes_.end(); ++it) {
    if (it->second.finished || it->second.host != machine) continue;
    crash_now(it, detail);
    killed.push_back(it->first);
  }
  for (const std::string& name : bus_.module_names()) {
    bus::NativeModule* native = bus_.native(name);
    if (native != nullptr && native->machine() == machine &&
        native->crash(detail)) {
      killed.push_back(name);
    }
  }
  std::sort(killed.begin(), killed.end());
  dead_machines_.insert(machine);
  return killed;
}

void Runtime::crash_after(const std::string& instance, std::uint64_t insns,
                          net::SimTime restart_after_us) {
  auto it = processes_.find(instance);
  if (it == processes_.end()) {
    throw BusError("crash_after: " + instance + " has no process");
  }
  it->second.crash_in_insns = insns;
  it->second.restart_after_us = restart_after_us;
}

void Runtime::restart_module(const std::string& instance) {
  if (!images_.contains(instance)) {
    throw BusError("restart_module: unknown instance " + instance);
  }
  drop_process(instance);
  start_module(instance);
}

bool Runtime::module_crashed(const std::string& instance) const {
  if (crashed_.contains(instance)) return true;
  const bus::NativeModule* native = bus_.native(instance);
  return native != nullptr && native->crashed();
}

bool Runtime::module_running(const std::string& instance) const {
  auto it = processes_.find(instance);
  return it != processes_.end() && !it->second.finished;
}

bool Runtime::module_finished(const std::string& instance) const {
  auto it = processes_.find(instance);
  return it != processes_.end() && it->second.finished;
}

vm::Machine* Runtime::machine_of(const std::string& instance) {
  auto it = processes_.find(instance);
  return it == processes_.end() ? nullptr : it->second.machine.get();
}

const ModuleImage* Runtime::image_of(const std::string& instance) const {
  auto it = images_.find(instance);
  return it == images_.end() ? nullptr : &it->second;
}

std::string_view logical_name(std::string_view instance) noexcept {
  return instance.substr(0, instance.rfind('@'));
}

std::string Runtime::fresh_instance_name(const std::string& base) {
  // A generation of the logical module, so repeated reconfigurations stay
  // readable (compute -> compute@2 -> compute@3).
  const std::string stem(logical_name(base));
  int n = ++name_counters_[stem];
  std::string name = stem + "@" + std::to_string(n + 1);
  while (bus_.has_module(name) || images_.contains(name)) {
    n = ++name_counters_[stem];
    name = stem + "@" + std::to_string(n + 1);
  }
  return name;
}

void Runtime::load_application(const cfg::ConfigFile& config,
                               const std::string& application,
                               const SourceProvider& source_of,
                               const xform::XformOptions& xform_options,
                               bool optimize) {
  const cfg::ApplicationSpec* app = config.find_application(application);
  if (app == nullptr) {
    throw BusError("configuration has no application '" + application + "'");
  }
  // One preparation per module, at its first instance; later instances
  // share the compiled image (each still gets its own VM and globals).
  std::map<std::string, std::shared_ptr<const vm::CompiledProgram>> programs;
  for (const auto& inst : app->instances) {
    const cfg::ModuleSpec* spec = config.find_module(inst.module);
    if (spec == nullptr) {
      throw BusError("application instantiates unknown module '" +
                     inst.module + "'");
    }
    auto [prepared, first] = programs.try_emplace(inst.module);
    if (first) {
      minic::Program prog = minic::parse_program(source_of(*spec));
      minic::analyze(prog);
      if (!spec->reconfig_points.empty()) {
        xform::prepare_module(prog, spec->reconfig_points, xform_options);
      }
      if (optimize) {
        // The optimizer models the machine's optimizing compiler: it runs
        // on whatever source the module ships with, transformed or not.
        (void)opt::optimize(prog);
        minic::analyze(prog);
      }
      prepared->second =
          std::make_shared<const vm::CompiledProgram>(vm::compile(prog));
    }
    ModuleImage image;
    image.spec = *spec;
    image.program = prepared->second;
    install_module(inst.instance_name(), std::move(image), inst.machine,
                   "new");
    start_module(inst.instance_name());
  }
  for (const auto& b : app->binds) {
    bus_.add_binding(b.a, b.b);
  }
}

bool Runtime::step() {
  if (ready_.empty()) return sim_.step();
  // One round: every runnable process runs one slice, in name order. A
  // process made runnable mid-round (a bus wake) runs in this round only
  // if it sorts after the one running now, as a walk over the ordered
  // process table would have it; make_ready keeps the cursor there.
  ready_next_ = 0;
  while (ready_next_ < ready_.size()) run_slice(ready_[ready_next_++]);
  return true;
}

void Runtime::run_slice(ProcessIt it) {
  ProcessRec& rec = it->second;
  std::uint64_t slice = slice_insns_;
  if (rec.crash_in_insns.has_value()) {
    if (*rec.crash_in_insns == 0) {
      crash_now(it, "crash_after fired");
      return;
    }
    slice = std::min(slice, *rec.crash_in_insns);
  }
  vm::StepResult r = rec.machine->step(slice);
  if (rec.crash_in_insns.has_value()) {
    *rec.crash_in_insns -= std::min<std::uint64_t>(*rec.crash_in_insns,
                                                   r.instructions);
  }
  if (insn_cost_ns_ != 0 && r.instructions > 0) {
    sim_.advance_time(r.instructions * insn_cost_ns_ / 1000);
  }
  if (metrics_.enabled()) publish_vm_metrics(rec, r.instructions);
  switch (r.state) {
    case vm::RunState::kSleeping: {
      unready_running();
      rec.waiting = true;
      rec.sleeping = true;
      sim_.schedule_after(r.sleep_us, [this, instance = it->first] {
        auto woken = processes_.find(instance);
        if (woken != processes_.end()) {
          woken->second.sleeping = false;
          resume(woken);
        }
      });
      break;
    }
    case vm::RunState::kBlockedRead:
    case vm::RunState::kBlockedDecode:
      unready_running();
      rec.waiting = true;
      break;
    case vm::RunState::kDone:
      unready_running();
      rec.finished = true;
      ++live_generation_;
      break;
    case vm::RunState::kFault:
      unready_running();
      rec.finished = true;
      ++live_generation_;
      if (!first_fault_.has_value()) {
        first_fault_ = {it->first, rec.machine->fault_message()};
      }
      break;
    case vm::RunState::kRunnable:
      break;  // slice exhausted; runs again next round
  }
}

bool Runtime::run_until(const std::function<bool()>& pred,
                        std::uint64_t max_rounds) {
  for (std::uint64_t i = 0; i < max_rounds; ++i) {
    if (pred()) return true;
    if (!step()) return pred();
  }
  return pred();
}

void Runtime::run_for(net::SimTime duration_us, std::uint64_t max_rounds) {
  net::SimTime deadline = sim_.now() + duration_us;
  (void)run_until([&] { return sim_.now() >= deadline; }, max_rounds);
}

void Runtime::run_until_idle(std::uint64_t max_rounds) {
  for (std::uint64_t i = 0; i < max_rounds; ++i) {
    if (!step()) return;
  }
}

void Runtime::enable_profiler(profile::Profiler& profiler,
                              profile::ProfileOptions options) {
  profiler_ = &profiler;
  profile_options_ = options;
  for (auto& [name, rec] : processes_) {
    attach_tap(name, rec);
  }
  if (options.interval_us == 0) {
    profile_ticker_.stop();
    return;
  }
  const net::SimTime interval = options.interval_us;
  profile_ticker_.start(sim_, interval, [this, interval] {
    for (auto& [name, rec] : processes_) {
      // One-shot: the next instruction the module executes is sampled. A
      // blocked module contributes nothing this tick -- virtual-time
      // sampling measures where execution goes, not where modules idle.
      if (!rec.finished) rec.machine->arm_sample(1);
    }
    return interval;
  });
}

void Runtime::disable_profiler() noexcept {
  profile_ticker_.stop();
  profiler_ = nullptr;
  for (auto& [name, rec] : processes_) {
    rec.machine->set_sample_sink(nullptr);
    rec.machine->set_sample_period(0);
    rec.tap.reset();
  }
}

void Runtime::attach_tap(const std::string& instance, ProcessRec& rec) {
  rec.tap = std::make_unique<SampleTap>();
  rec.tap->profiler = profiler_;
  rec.tap->module = instance;
  rec.machine->set_sample_sink(rec.tap.get());
  if (profile_options_.every_insns != 0) {
    rec.machine->set_sample_period(profile_options_.every_insns);
  }
}

std::span<const LiveProcess> Runtime::live_processes() const {
  if (live_listed_ != live_generation_) {
    live_.clear();
    for (const auto& [name, rec] : processes_) {
      if (!rec.finished) live_.push_back(LiveProcess{&name, &rec.host});
    }
    live_listed_ = live_generation_;
  }
  return live_;
}

void Runtime::check_faults() const {
  if (first_fault_.has_value()) {
    throw BusError("module '" + first_fault_->first +
                   "' faulted: " + first_fault_->second);
  }
}

}  // namespace surgeon::app
