// counter_rpc: a closed loop of RPCs between two MiniC modules on one host.
//
// One busy client keeps one RPC outstanding against the counter server;
// both run on "vax", so every hop is a 10 us loopback. Delivery is
// fire-and-forget; metrics, tracing and reconfiguration are off. Host time
// therefore goes to VM dispatch, the mh_read/mh_write builtins and bus
// send/deliver -- the per-request path -- and nothing else. The workload
// has no seeded input: every seed runs the same 200k RPCs.
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "harness.hpp"
#include "net/arch.hpp"

namespace perfbench {

namespace {

constexpr int kRpcs = 200'000;

// Every RPC asks the server to bump by 2, which adds 1 + 2 to its total.
constexpr std::int64_t kTotalPerRpc = 3;

std::string busy_client_source(int requests) {
  return R"mc(
void main()
{
  int i;
  int reply;
  i = 1;
  while (i <= )mc" +
         std::to_string(requests) + R"mc() {
    mh_write("svc", "i", 2);
    mh_read("svc", "i", &reply);
    i = i + 1;
  }
  print("client-done");
}
)mc";
}

std::string source_of(const sg::cfg::ModuleSpec& spec) {
  return spec.name == "client" ? busy_client_source(kRpcs)
                               : sg::app::samples::counter_server_source();
}

}  // namespace

Episode run_counter_rpc(const Context& ctx) {
  Episode ep;
  SpanLog* log = ctx.log;
  const int setup_phase = log != nullptr ? log->open_phase("setup") : -1;
  const std::uint64_t t0 = host_ns();
  auto rt = std::make_unique<sg::app::Runtime>(derive_seed(ctx.seed, 1));
  rt->add_machine("vax", sg::net::arch_vax());
  const std::uint64_t t_load = host_ns();
  rt->load_application(
      sg::cfg::parse_config(sg::app::samples::counter_config_text()),
      "counter", source_of);
  const std::uint64_t t1 = host_ns();
  if (log != nullptr) {
    log->coarse("app.load_application", t_load, t1);
    log->close_phase(setup_phase);
  }
  ep.setup_s = static_cast<double>(t1 - t0) / 1e9;
  if (ctx.setup_only) return ep;

  const int steady_phase = log != nullptr ? log->open_phase("steady") : -1;
  Driver driver(*rt, log);
  const std::uint64_t t2 = host_ns();
  (void)driver.run_until([&] { return rt->module_finished("client"); });
  const std::uint64_t t3 = host_ns();
  if (log != nullptr) log->close_phase(steady_phase);
  ep.steady_s = static_cast<double>(t3 - t2) / 1e9;

  // --- correctness ---------------------------------------------------------
  const sg::vm::Machine* server = rt->machine_of("server");
  const std::int64_t total =
      server != nullptr ? std::get<std::int64_t>(server->global("total")) : 0;
  const sg::bus::BusStats& bs = rt->bus().stats();
  const bool finished = rt->module_finished("client") &&
                        !rt->first_fault().has_value();
  ep.ops = finished ? kRpcs
                    : static_cast<std::uint64_t>(total / kTotalPerRpc);
  ep.attempted = kRpcs;
  ep.failed = ep.attempted - ep.ops;
  ep.check(finished, "client did not finish all RPCs");
  ep.check(total == kTotalPerRpc * kRpcs,
           "server total " + std::to_string(total) + " != 3 x RPCs");
  ep.check(bs.messages_sent == 2ull * kRpcs &&
               bs.messages_delivered == 2ull * kRpcs,
           "bus sent/delivered " + std::to_string(bs.messages_sent) + "/" +
               std::to_string(bs.messages_delivered) + " != 2 x RPCs");

  // --- fingerprint -----------------------------------------------------------
  const std::uint64_t insns = live_vm_instructions(*rt);
  ep.exact["vm.instructions"] = static_cast<std::int64_t>(insns);
  ep.exact["bus.messages_sent"] = static_cast<std::int64_t>(bs.messages_sent);
  ep.exact["bus.messages_delivered"] =
      static_cast<std::int64_t>(bs.messages_delivered);
  ep.exact["trace.events"] =
      static_cast<std::int64_t>(rt->tracer().total_events());
  ep.exact["net.final_virtual_us"] = static_cast<std::int64_t>(rt->now());
  ep.exact["ops"] = static_cast<std::int64_t>(ep.ops);

  if (log != nullptr) {
    const double ops = static_cast<double>(ep.ops);
    const auto vm = log->total("app.step.vm", "steady");
    const auto ev = log->total("app.step.event", "steady");
    ep.layers["app.steps_per_op"] =
        static_cast<double>(vm.count + ev.count) / ops;
    ep.layers["app.vm_step_ns_per_op"] = static_cast<double>(vm.ns) / ops;
    ep.layers["app.event_step_ns_per_op"] = static_cast<double>(ev.ns) / ops;
    ep.layers["vm.insns_per_op"] = static_cast<double>(insns) / ops;
    ep.layers["vm.ns_per_insn"] =
        static_cast<double>(vm.self_ns) / static_cast<double>(insns);
    ep.layers["net.events_per_op"] = static_cast<double>(ev.count) / ops;
    ep.layers["net.ns_per_event"] =
        ev.count != 0 ? static_cast<double>(ev.self_ns) /
                            static_cast<double>(ev.count)
                      : 0.0;
    ep.layers["net.pending_events_p99"] =
        percentile(driver.pending_samples(), 0.99);
    ep.layers["bus.msgs_per_op"] =
        static_cast<double>(bs.messages_sent) / ops;
    ep.layers["bus.useful_tx_ratio"] =
        static_cast<double>(bs.messages_delivered) /
        static_cast<double>(bs.messages_sent);
    ep.layers["app.step_span_coverage"] =
        static_cast<double>(vm.ns + ev.ns) /
        static_cast<double>(log->total("steady", "phase").ns);
    time_setup_calls(sg::app::samples::counter_config_text(), "counter",
                     {{"vax", sg::net::arch_vax()}}, source_of, *log, ep);
  }
  return ep;
}

}  // namespace perfbench
