// pipeline_swap: an open-loop diurnal day through a migrating filter.
//
// A native generator on "vax" sends ~300k requests over a 3600 s virtual
// day (raised-cosine rate, peak/trough 4) into the MiniC filter on "vax",
// which feeds the quiet sink on "sparc". Each VM instruction costs 50
// virtual us, so the filter queues at the peak. Metrics, causal tracing,
// request tagging and a RequestTracker are on. Every 37.5 virtual s (96
// times a day) a Figure 5 replacement migrates the filter between "vax"
// and "sparc", journaled with recover::Wal on "vax".
//
// The generator is an honest open loop: the benchmark draws the whole
// arrival schedule from the seed up front, each request is sent at its
// absolute due time counted from the start of the day, and latency is
// measured from that due time -- so a stall delays every later request and
// the delay shows. How late the generator itself ran is reported as
// net.generator_lag_p99_us.
#include <cmath>

#include "app/samples.hpp"
#include "bus/client.hpp"
#include "cfg/parser.hpp"
#include "harness.hpp"
#include "net/arch.hpp"
#include "reconfig/scripts.hpp"
#include "recover/wal.hpp"
#include "slo/request.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

using sg::net::SimTime;

constexpr double kRequests = 300'000;
constexpr SimTime kDayUs = 3'600'000'000;
constexpr double kPeakToTrough = 4.0;
constexpr SimTime kTickUs = 100'000;
constexpr int kSwaps = 96;
constexpr SimTime kSwapEveryUs = kDayUs / kSwaps;  // 37.5 s
constexpr std::uint64_t kInsnCostNs = 50'000;
const char* const kSource = "loadgen@vax";

/// Due offsets (virtual us from the start of the day) of every request:
/// per 100 ms tick, the expected arrivals under the rate curve with
/// stochastic rounding, spread over the tick in order.
std::vector<SimTime> arrival_schedule(std::uint64_t seed) {
  sg::support::SplitMix64 rng(seed);
  const double mean_weight = 1.0 + (kPeakToTrough - 1.0) * 0.5;
  const double base = kRequests / static_cast<double>(kDayUs);
  std::vector<SimTime> due;
  due.reserve(static_cast<std::size_t>(kRequests * 1.01));
  for (SimTime t = 0; t < kDayUs; t += kTickUs) {
    const double phase = 2.0 * 3.141592653589793 * static_cast<double>(t) /
                         static_cast<double>(kDayUs);
    const double weight =
        1.0 + (kPeakToTrough - 1.0) * 0.5 * (1.0 - std::cos(phase));
    const double expected =
        base * weight / mean_weight * static_cast<double>(kTickUs);
    auto n = static_cast<std::uint64_t>(expected);
    if (expected - static_cast<double>(n) > rng.next_double()) ++n;
    for (std::uint64_t j = 0; j < n; ++j) {
      const double frac =
          (static_cast<double>(j) + rng.next_double()) / static_cast<double>(n);
      due.push_back(t + static_cast<SimTime>(frac *
                                             static_cast<double>(kTickUs)));
    }
  }
  return due;
}

/// The schedule is an input, drawn once per seed and process: it is not
/// part of any timed phase.
const std::vector<SimTime>& schedule_for(std::uint64_t seed) {
  static std::map<std::uint64_t, std::vector<SimTime>> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) it = cache.emplace(seed, arrival_schedule(seed)).first;
  return it->second;
}

/// The native load generator: sends request k at day start + due[k]. Each
/// emission schedules the next one, so the simulator holds one generator
/// event at a time; when the clock has run past a due time (the VMs'
/// instruction cost advanced it) the send goes out late and the lag is
/// recorded.
class ScheduledSource {
 public:
  ScheduledSource(sg::bus::Bus& bus, const std::vector<SimTime>& due,
                  SpanLog* log)
      : bus_(&bus), client_(bus, kSource), due_(&due), log_(log) {
    sg::bus::ModuleInfo info;
    info.name = kSource;
    info.machine = "vax";
    info.source = "builtin:loadgen";
    info.interfaces.push_back(
        sg::bus::InterfaceSpec{"out", sg::bus::IfaceRole::kDefine, "", ""});
    bus.add_module(std::move(info));
    bus.add_binding(sg::bus::BindingEnd{kSource, "out"},
                    sg::bus::BindingEnd{"filter", "in"});
    bus.set_request_entry(kSource, "out");
  }
  ScheduledSource(const ScheduledSource&) = delete;
  ScheduledSource& operator=(const ScheduledSource&) = delete;

  void start() {
    day_start_ = bus_->simulator().now();
    lag_.reserve(due_->size());
    arm();
  }
  [[nodiscard]] SimTime day_start() const noexcept { return day_start_; }
  [[nodiscard]] std::size_t sent() const noexcept { return next_; }
  /// Send time minus due time, per request, in send order.
  [[nodiscard]] const std::vector<std::int64_t>& lag_us() const noexcept {
    return lag_;
  }

 private:
  void arm() {
    if (next_ >= due_->size()) return;
    bus_->simulator().schedule_at(day_start_ + (*due_)[next_],
                                  [this] { emit(); });
  }
  void emit() {
    const SimTime due = day_start_ + (*due_)[next_];
    lag_.push_back(static_cast<std::int64_t>(bus_->simulator().now() - due));
    ++next_;
    std::vector<sg::ser::Value> payload{
        sg::ser::Value{static_cast<std::int64_t>(next_)}};
    if (log_ != nullptr) {
      const std::uint64_t t0 = host_ns();
      client_.write("out", std::move(payload));
      log_->fine("bus.native_send", t0, host_ns());
    } else {
      client_.write("out", std::move(payload));
    }
    arm();
  }

  sg::bus::Bus* bus_;
  sg::bus::Client client_;
  const std::vector<SimTime>* due_;
  SpanLog* log_;
  SimTime day_start_ = 0;
  std::size_t next_ = 0;
  std::vector<std::int64_t> lag_;
};

struct Done {
  std::uint64_t request = 0;
  SimTime started_at = 0;
  SimTime completed_at = 0;
  std::int64_t filter_handler_us = -1;
  std::int64_t filter_queue_us = -1;
};

std::string source_of(const sg::cfg::ModuleSpec& spec) {
  return spec.name == "filter" ? sg::app::samples::pipeline_filter_source()
                               : sg::app::samples::pipeline_quiet_sink_source();
}

std::int64_t global_int(sg::app::Runtime& rt, const std::string& instance,
                        const char* name) {
  const sg::vm::Machine* m = rt.machine_of(instance);
  return m != nullptr ? std::get<std::int64_t>(m->global(name)) : -1;
}

}  // namespace

Episode run_pipeline_swap(const Context& ctx) {
  Episode ep;
  SpanLog* log = ctx.log;
  const std::vector<SimTime>& due = schedule_for(derive_seed(ctx.seed, 2));

  // --- setup: empty runtime -> running, bound application ------------------
  const int setup_phase = log != nullptr ? log->open_phase("setup") : -1;
  const std::uint64_t t0 = host_ns();
  auto rt = std::make_unique<sg::app::Runtime>(derive_seed(ctx.seed, 1));
  rt->add_machine("vax", sg::net::arch_vax());
  rt->add_machine("sparc", sg::net::arch_sparc());
  const std::uint64_t t_load = host_ns();
  rt->load_application(
      sg::cfg::parse_config(sg::app::samples::pipeline_open_config_text()),
      "pipeline", source_of);
  const std::uint64_t t_loaded = host_ns();
  rt->set_instruction_cost_ns(kInsnCostNs);
  rt->enable_metrics();
  rt->enable_causal_tracing();
  ScheduledSource source(rt->bus(), due, log);
  rt->bus().set_request_terminal("sink", "in");
  sg::slo::RequestTracker tracker;
  std::vector<Done> done;
  auto take = [&](sg::slo::Completion& c) {
    Done d{c.request, c.started_at, c.completed_at};
    for (const auto& hop : c.hops) {
      if (hop.module.rfind("filter", 0) == 0) {
        d.filter_handler_us = static_cast<std::int64_t>(hop.handler_us);
        d.filter_queue_us = static_cast<std::int64_t>(hop.queue_us);
      }
    }
    done.push_back(d);
  };
  rt->tracer().add_observer([&](const sg::trace::Event& ev) {
    const std::uint64_t s0 = log != nullptr ? host_ns() : 0;
    tracker.observe(ev);
    if (tracker.pending() != 0) {
      for (sg::slo::Completion& c : tracker.drain()) take(c);
    }
    if (log != nullptr) log->fine("slo.track", s0, host_ns());
  });
  sg::net::DurableStore& disk = rt->simulator().durable_store("vax");
  sg::recover::Wal wal(disk);
  const std::uint64_t t1 = host_ns();
  if (log != nullptr) {
    log->coarse("app.load_application", t_load, t_loaded);
    log->close_phase(setup_phase);
  }
  ep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  if (ctx.setup_only) return ep;
  done.reserve(due.size());

  // --- steady: the day, with a replacement every 37.5 s --------------------
  const int steady_phase = log != nullptr ? log->open_phase("steady") : -1;
  Driver driver(*rt, log);
  std::string filter = "filter";
  std::vector<sg::reconfig::ReplaceReport> reports;
  const std::uint64_t t2 = host_ns();
  source.start();
  SimTime next_swap = source.day_start() + kSwapEveryUs / 2;
  int swaps = 0;
  while (driver.run_until(
      [&] { return swaps < kSwaps && rt->now() >= next_swap; })) {
    sg::reconfig::ReplaceOptions options;
    options.machine =
        rt->bus().module_info(filter).machine == "vax" ? "sparc" : "vax";
    options.journal = &wal;
    const int window = log != nullptr ? log->open_phase("window") : -1;
    const std::uint64_t r0 = host_ns();
    ++ep.reconfig_attempted;
    try {
      reports.push_back(sg::reconfig::replace_module(*rt, filter, options));
      filter = reports.back().new_instance;
    } catch (const std::exception& e) {
      ++ep.reconfig_failed;
      ep.check(false, std::string("replacement failed: ") + e.what());
    }
    const std::uint64_t r1 = host_ns();
    ep.reconfig_host_ms.push_back(static_cast<double>(r1 - r0) / 1e6);
    if (log != nullptr) {
      log->coarse("reconfig.replace", r0, r1);
      log->close_phase(window);
    }
    ++swaps;
    next_swap += kSwapEveryUs;
  }
  const std::uint64_t t3 = host_ns();
  if (log != nullptr) log->close_phase(steady_phase);
  ep.steady_s = static_cast<double>(t3 - t2) / 1e9;

  // --- latency from each request's due time --------------------------------
  std::vector<std::int64_t> latency, in_window, handler, queue;
  latency.reserve(done.size());
  std::size_t mismatched = 0;
  std::size_t w = 0;
  for (const Done& d : done) {
    const std::size_t k = d.request - 1;
    if (d.request == 0 || k >= source.sent() ||
        d.started_at != source.day_start() + due[k] +
                            static_cast<SimTime>(source.lag_us()[k])) {
      ++mismatched;
      continue;
    }
    const auto lat =
        static_cast<std::int64_t>(d.completed_at - source.day_start() - due[k]);
    latency.push_back(lat);
    while (w < reports.size() && reports[w].restored_at < d.completed_at) ++w;
    if (w < reports.size() && d.completed_at >= reports[w].requested_at) {
      in_window.push_back(lat);
    }
    if (d.filter_handler_us >= 0) handler.push_back(d.filter_handler_us);
    if (d.filter_queue_us >= 0) queue.push_back(d.filter_queue_us);
  }
  std::vector<std::int64_t> blackout, divulge_wait;
  std::int64_t queued_moved = 0, state_bytes = 0, attempts = 0;
  for (const auto& r : reports) {
    blackout.push_back(static_cast<std::int64_t>(r.blackout_us()));
    divulge_wait.push_back(static_cast<std::int64_t>(r.reaction_delay()));
    queued_moved += static_cast<std::int64_t>(r.queued_messages_moved);
    state_bytes += static_cast<std::int64_t>(r.state_bytes);
    attempts += r.attempts;
  }

  // --- correctness -----------------------------------------------------------
  const std::int64_t got = global_int(*rt, "sink", "got");
  const std::int64_t seen = global_int(*rt, filter, "seen");
  const auto completions = static_cast<std::int64_t>(latency.size());
  ep.ops = latency.size();
  ep.attempted = due.size();
  ep.failed = ep.attempted - ep.ops;
  ep.check(source.sent() == due.size(), "generator did not send every request");
  ep.check(mismatched == 0, std::to_string(mismatched) +
                                " completions do not match their due time");
  ep.check(got == seen && seen == completions &&
               completions == static_cast<std::int64_t>(source.sent()),
           "sink got " + std::to_string(got) + ", filter seen " +
               std::to_string(seen) + ", completions " +
               std::to_string(completions) + ", sent " +
               std::to_string(source.sent()));
  ep.check(tracker.evicted_open() == 0, "RequestTracker evicted open requests");
  ep.check(swaps == kSwaps, "only " + std::to_string(swaps) + " replacements");
  ep.check(!rt->first_fault().has_value(), "a module faulted");

  // --- fingerprint and virtual-time metrics --------------------------------
  std::uint64_t insns = 0;
  for (const auto& [key, counter] : rt->metrics().counters()) {
    if (key.first == "surgeon_vm_instructions_total") insns += counter.value();
  }
  const sg::bus::BusStats& bs = rt->bus().stats();
  const std::int64_t lag_p99 = percentile_exact(source.lag_us(), 0.99);
  const std::int64_t handler_p99 = percentile_exact(handler, 0.99);
  const std::int64_t queue_p99 = percentile_exact(queue, 0.99);
  auto& x = ep.exact;
  x["vm.instructions"] = static_cast<std::int64_t>(insns);
  x["bus.messages_sent"] = static_cast<std::int64_t>(bs.messages_sent);
  x["bus.messages_delivered"] =
      static_cast<std::int64_t>(bs.messages_delivered);
  x["bus.state_bytes_moved"] = static_cast<std::int64_t>(bs.state_bytes_moved);
  x["trace.events"] = static_cast<std::int64_t>(rt->tracer().total_events());
  x["recover.wal_appends"] = static_cast<std::int64_t>(disk.appends());
  x["recover.wal_bytes"] = static_cast<std::int64_t>(disk.bytes_written());
  x["net.final_virtual_us"] = static_cast<std::int64_t>(rt->now());
  x["ops"] = completions;
  x["requests_due"] = static_cast<std::int64_t>(due.size());
  x["latency_p50_us"] = percentile_exact(latency, 0.50);
  x["latency_p99_us"] = percentile_exact(latency, 0.99);
  x["latency_p999_us"] = percentile_exact(latency, 0.999);
  x["reconfig_latency_samples"] = static_cast<std::int64_t>(in_window.size());
  x["reconfig_latency_p50_us"] = percentile_exact(in_window, 0.50);
  x["reconfig_latency_p90_us"] = percentile_exact(in_window, 0.90);
  x["reconfig_blackout_us"] = percentile_exact(blackout, 0.50);
  x["reconfig.divulge_wait_us"] = percentile_exact(divulge_wait, 0.50);
  x["reconfig.queued_moved"] = queued_moved;
  x["reconfig.state_bytes"] = state_bytes;
  x["reconfig.attempts"] = attempts;
  x["net.generator_lag_p99_us"] = lag_p99;
  x["vm.handler_p99_us"] = handler_p99;
  x["bus.hop_queue_p99_us"] = queue_p99;

  const auto n = static_cast<double>(latency.size());
  auto& v = ep.virtual_metrics;
  v["latency_p50_us"] = {static_cast<double>(x["latency_p50_us"]), "us"};
  v["latency_p99_us"] = {static_cast<double>(x["latency_p99_us"]), "us"};
  v["latency_p999_us"] = {static_cast<double>(x["latency_p999_us"]), "us"};
  v["latency_samples"] = {n, "count"};
  v["reconfig_latency_p50_us"] = {
      static_cast<double>(x["reconfig_latency_p50_us"]), "us"};
  v["reconfig_latency_p90_us"] = {
      static_cast<double>(x["reconfig_latency_p90_us"]), "us"};
  v["reconfig_latency_samples"] = {static_cast<double>(in_window.size()),
                                   "count"};
  v["reconfig_blackout_us"] = {static_cast<double>(x["reconfig_blackout_us"]),
                               "us"};
  v["reconfig_samples"] = {static_cast<double>(reports.size()), "count"};

  if (log != nullptr) {
    const double ops = n;
    const double reconfigs = reports.empty() ? 1.0 : static_cast<double>(
                                                         reports.size());
    const auto vm = log->total("app.step.vm");
    const auto ev = log->total("app.step.event");
    const auto send = log->total("bus.native_send");
    const auto track = log->total("slo.track");
    const auto replace = log->total("reconfig.replace");
    auto& l = ep.layers;
    l["app.steps_per_op"] = static_cast<double>(vm.count + ev.count) / ops;
    l["app.vm_step_ns_per_op"] = static_cast<double>(vm.ns) / ops;
    l["app.event_step_ns_per_op"] = static_cast<double>(ev.ns) / ops;
    l["app.step_span_coverage"] =
        static_cast<double>(vm.ns + ev.ns + replace.ns) /
        static_cast<double>(log->total("steady", "phase").ns);
    l["vm.insns_per_op"] = static_cast<double>(insns) / ops;
    l["vm.ns_per_insn"] = static_cast<double>(vm.self_ns) /
                          static_cast<double>(insns);
    l["vm.handler_p99_us"] = static_cast<double>(handler_p99);
    l["net.events_per_op"] = static_cast<double>(ev.count) / ops;
    l["net.ns_per_event"] =
        static_cast<double>(ev.self_ns) / static_cast<double>(ev.count);
    l["net.pending_events_p99"] = percentile(driver.pending_samples(), 0.99);
    l["net.generator_lag_p99_us"] = static_cast<double>(lag_p99);
    l["bus.msgs_per_op"] = static_cast<double>(bs.messages_sent) / ops;
    l["bus.native_send_ns"] =
        static_cast<double>(send.ns) / static_cast<double>(send.count);
    l["bus.hop_queue_p99_us"] = static_cast<double>(queue_p99);
    l["bus.useful_tx_ratio"] = static_cast<double>(bs.messages_delivered) /
                               static_cast<double>(bs.messages_sent);
    l["bus.state_bytes_moved"] = static_cast<double>(bs.state_bytes_moved);
    l["trace.events_per_op"] =
        static_cast<double>(rt->tracer().total_events()) / ops;
    l["slo.track_ns_per_event"] =
        static_cast<double>(track.ns) / static_cast<double>(track.count);
    l["reconfig.script_host_us"] =
        static_cast<double>(replace.ns) / 1e3 / reconfigs;
    l["reconfig.divulge_wait_us"] =
        static_cast<double>(x["reconfig.divulge_wait_us"]);
    l["reconfig.queued_moved"] = static_cast<double>(queued_moved) / reconfigs;
    l["reconfig.state_bytes"] = static_cast<double>(state_bytes) / reconfigs;
    l["reconfig.attempts_per_replace"] =
        static_cast<double>(attempts) / reconfigs;
    l["recover.wal_appends_per_reconfig"] =
        static_cast<double>(disk.appends()) / reconfigs;
    l["recover.wal_bytes_per_reconfig"] =
        static_cast<double>(disk.bytes_written()) / reconfigs;
    time_setup_calls(sg::app::samples::pipeline_open_config_text(), "pipeline",
                     {{"vax", sg::net::arch_vax()},
                      {"sparc", sg::net::arch_sparc()}},
                     source_of, *log, ep);
  }
  return ep;
}

}  // namespace perfbench
