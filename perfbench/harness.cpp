#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "cfg/parser.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "support/rng.hpp"
#include "vm/compiler.hpp"
#include "xform/transform.hpp"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  sg::support::SplitMix64 rng(seed);
  std::uint64_t value = rng.next();
  for (; stream > 0; --stream) value = rng.next();
  return value;
}

namespace {

template <class T>
T nearest_rank(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

}  // namespace

double percentile(std::vector<double> samples, double q) {
  return nearest_rank(samples, q);
}

std::int64_t percentile_exact(std::vector<std::int64_t> samples, double q) {
  return nearest_rank(samples, q);
}

// --- SpanLog -----------------------------------------------------------------

int SpanLog::open_phase(const std::string& name) {
  slot_cache_.clear();
  const int parent = phase_stack_.empty() ? -1 : phase_stack_.back();
  spans_.push_back(Span{name, parent, host_ns(), 0});
  phase_stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return phase_stack_.back();
}

void SpanLog::close_phase(int id) {
  slot_cache_.clear();
  spans_[static_cast<std::size_t>(id)].end_ns = host_ns();
  auto& p = totals_[{spans_[static_cast<std::size_t>(id)].name, "phase"}];
  ++p.count;
  p.ns += spans_[static_cast<std::size_t>(id)].end_ns -
          spans_[static_cast<std::size_t>(id)].start_ns;
  if (!phase_stack_.empty() && phase_stack_.back() == id) {
    phase_stack_.pop_back();
  }
}

const std::string& SpanLog::phase_name() const {
  static const std::string kNone = "none";
  return phase_stack_.empty()
             ? kNone
             : spans_[static_cast<std::size_t>(phase_stack_.back())].name;
}

void SpanLog::coarse(const std::string& name, std::uint64_t start_ns,
                     std::uint64_t end_ns) {
  const int parent = phase_stack_.empty() ? -1 : phase_stack_.back();
  spans_.push_back(Span{name, parent, start_ns, end_ns});
  Total& t = totals_[{name, phase_name()}];
  ++t.count;
  t.ns += end_ns - start_ns;
  t.self_ns += end_ns - start_ns;
}

SpanLog::Total& SpanLog::slot(const char* name) {
  for (auto& [cached, total] : slot_cache_) {
    if (cached == name) return *total;
  }
  Total& t = totals_[{name, phase_name()}];
  slot_cache_.emplace_back(name, &t);
  return t;
}

void SpanLog::step(bool vm, std::uint64_t start_ns, std::uint64_t end_ns) {
  static constexpr const char* kVm = "app.step.vm";
  static constexpr const char* kEvent = "app.step.event";
  Total& t = slot(vm ? kVm : kEvent);
  const std::uint64_t ns = end_ns - start_ns;
  ++t.count;
  t.ns += ns;
  t.self_ns += ns - std::min(ns, child_ns_in_step_);
  in_step_ = false;
}

void SpanLog::fine(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns) {
  Total& t = slot(name);
  ++t.count;
  t.ns += end_ns - start_ns;
  t.self_ns += end_ns - start_ns;
  if (in_step_) child_ns_in_step_ += end_ns - start_ns;
}

SpanLog::Total SpanLog::total(const std::string& name,
                              const std::string& phase) const {
  Total sum;
  for (const auto& [key, t] : totals_) {
    if (key.first != name || (!phase.empty() && key.second != phase)) continue;
    sum.count += t.count;
    sum.ns += t.ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

std::string SpanLog::to_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(s.start_ns - origin_ns_) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "],\n\"totals\":[";
  bool first = true;
  for (const auto& [key, t] : totals_) {
    os << (first ? "" : ",") << "\n{\"name\":\"" << key.first
       << "\",\"parent\":\"" << key.second << "\",\"count\":" << t.count
       << ",\"ns\":" << t.ns << ",\"self_ns\":" << t.self_ns << "}";
    first = false;
  }
  os << "]}\n";
  return os.str();
}

// --- Driver ------------------------------------------------------------------

void Driver::refresh() {
  vms_.clear();
  for (const std::string& name : rt_->bus().module_names()) {
    if (const sg::vm::Machine* m = rt_->machine_of(name)) vms_.push_back(m);
  }
  generation_ = rt_->bus().module_topology_generation();
}

std::uint64_t Driver::instructions() const {
  std::uint64_t sum = 0;
  for (const sg::vm::Machine* m : vms_) sum += m->instructions_executed();
  return sum;
}

bool Driver::step() {
  if (log_ == nullptr) return rt_->step();
  if (generation_ != rt_->bus().module_topology_generation()) refresh();
  const std::uint64_t before = instructions();
  pending_.push_back(static_cast<double>(rt_->simulator().pending_events()));
  log_->step_begin();
  const std::uint64_t t0 = host_ns();
  const bool progressed = rt_->step();
  const std::uint64_t t1 = host_ns();
  bool vm = true;  // nested scheduling changed the topology: VMs ran
  if (generation_ == rt_->bus().module_topology_generation()) {
    vm = instructions() != before;
  } else {
    refresh();
  }
  log_->step(vm && progressed, t0, t1);
  return progressed;
}

std::uint64_t live_vm_instructions(sg::app::Runtime& rt) {
  std::uint64_t sum = 0;
  for (const std::string& name : rt.bus().module_names()) {
    if (const sg::vm::Machine* m = rt.machine_of(name)) {
      sum += m->instructions_executed();
    }
  }
  return sum;
}

// --- setup breakdown -----------------------------------------------------------

void time_setup_calls(
    const std::string& config_text, const std::string& application,
    const std::map<std::string, sg::net::Arch>& machines,
    const std::function<std::string(const sg::cfg::ModuleSpec&)>& source_of,
    SpanLog& log, Episode& ep) {
  const int phase = log.open_phase("setup");
  // Records one call as a span; returns its length in ms.
  auto span = [&log](const char* name, std::uint64_t start_ns) {
    const std::uint64_t end_ns = host_ns();
    log.coarse(name, start_ns, end_ns);
    return static_cast<double>(end_ns - start_ns) / 1e6;
  };
  std::uint64_t t = host_ns();
  const sg::cfg::ConfigFile config = sg::cfg::parse_config(config_text);
  ep.layers["cfg.parse_ms"] = span("cfg.parse", t);

  double front = 0, prepare = 0, compile = 0, install = 0;
  std::vector<std::pair<const sg::cfg::InstanceSpec*, sg::app::ModuleImage>>
      images;
  for (const auto& inst : config.find_application(application)->instances) {
    const sg::cfg::ModuleSpec* spec = config.find_module(inst.module);
    const std::string source = source_of(*spec);
    t = host_ns();
    sg::minic::Program prog = sg::minic::parse_program(source);
    sg::minic::analyze(prog);
    front += span("minic.front", t);
    t = host_ns();
    if (!spec->reconfig_points.empty()) {
      sg::xform::prepare_module(prog, spec->reconfig_points, {});
    }
    prepare += span("xform.prepare", t);
    t = host_ns();
    sg::app::ModuleImage image;
    image.spec = *spec;
    image.program = std::make_shared<const sg::vm::CompiledProgram>(
        sg::vm::compile(prog));
    compile += span("vm.compile", t);
    images.emplace_back(&inst, std::move(image));
  }
  sg::app::Runtime scratch(1);
  for (const auto& [name, arch] : machines) scratch.add_machine(name, arch);
  for (auto& [inst, image] : images) {
    t = host_ns();
    scratch.install_module(inst->instance_name(), std::move(image),
                           inst->machine, "new");
    scratch.start_module(inst->instance_name());
    install += span("app.install", t);
  }
  log.close_phase(phase);
  ep.layers["minic.front_ms"] = front;
  ep.layers["xform.prepare_ms"] = prepare;
  ep.layers["vm.compile_ms"] = compile;
  ep.layers["app.install_ms"] = install;
}

}  // namespace perfbench
