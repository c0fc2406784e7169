// Heap allocations on the steady-state request path of the MiniC VM.
//
// This file is its own executable because it replaces the global operator
// new with a counting one. It runs the counter application on one host --
// a busy client that keeps one RPC outstanding against the counter server,
// which recurses through bump() on every request -- with metrics, print and
// sleep all out of the picture, so what it counts is VM dispatch, the
// mh_read/mh_write builtins, bus send/deliver and the event queue. It runs
// twice: untraced, and with the causal flight recorder on, a small ring
// that has wrapped before measuring starts, and an observer reading each
// Event, so the traced run also counts journaling a hop and building the
// Event an observer sees. A third test holds the simulator's event queue
// alone to the same rule for every callback shape the hot paths schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "net/sim.hpp"
#include "net/ticker.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace surgeon {
namespace {

constexpr std::int64_t kWarmupRpcs = 1'000;
constexpr std::int64_t kMeasuredRpcs = 10'000;
// Every request bumps by 2, which adds 1 + 2 to the server's total.
constexpr std::int64_t kTotalPerRpc = 3;

std::string busy_client_source(std::int64_t requests) {
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
}
)mc";
}

// Runs the warm-up RPCs, then the measured ones, and reports the heap
// allocations per measured RPC.
void run_busy_client(app::Runtime& rt, double* per_rpc) {
  rt.add_machine("vax", net::arch_vax());
  rt.load_application(
      cfg::parse_config(app::samples::counter_config_text()), "counter",
      [](const cfg::ModuleSpec& spec) {
        return spec.name == "client"
                   ? busy_client_source(kWarmupRpcs + kMeasuredRpcs)
                   : app::samples::counter_server_source();
      });
  const vm::Machine* client = rt.machine_of("client");
  const vm::Machine* server = rt.machine_of("server");
  ASSERT_NE(client, nullptr);
  ASSERT_NE(server, nullptr);
  const std::string total_name = "total";
  auto total = [&] {
    return std::get<std::int64_t>(server->global(total_name));
  };

  while (total() < kTotalPerRpc * kWarmupRpcs) ASSERT_TRUE(rt.step());
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  while (client->state() != vm::RunState::kDone) ASSERT_TRUE(rt.step());
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);

  ASSERT_FALSE(rt.first_fault().has_value()) << rt.first_fault()->second;
  EXPECT_EQ(total(), kTotalPerRpc * (kWarmupRpcs + kMeasuredRpcs));
  // Instruction counts are virtual time, so removing allocations must not
  // change a single one: 112 per RPC plus 30 outside the loops.
  EXPECT_EQ(client->instructions_executed() + server->instructions_executed(),
            112u * (kWarmupRpcs + kMeasuredRpcs) + 30u);
  *per_rpc = static_cast<double>(after - before) /
             static_cast<double>(kMeasuredRpcs);
}

TEST(VmAlloc, SteadyStateRpcIsAllocationFree) {
  app::Runtime rt(1);
  double per_rpc = 0;
  run_busy_client(rt, &per_rpc);
  if (HasFatalFailure()) return;
  EXPECT_LE(per_rpc, 0.5) << per_rpc * kMeasuredRpcs << " allocations over "
                          << kMeasuredRpcs << " RPCs";
}

TEST(VmAlloc, TracedRpcIsAllocationFree) {
  app::Runtime rt(1);
  rt.enable_causal_tracing();
  // 4 events per RPC: the 1,000 warm-up RPCs wrap this ring several times.
  rt.tracer().set_capacity(1024);
  std::size_t module_chars = 0;
  rt.tracer().add_observer(
      [&module_chars](const trace::Event& ev) {
        module_chars += ev.module.size();
      });
  double per_rpc = 0;
  run_busy_client(rt, &per_rpc);
  if (HasFatalFailure()) return;
  EXPECT_GE(rt.tracer().total_events(),
            4u * (kWarmupRpcs + kMeasuredRpcs));
  EXPECT_GT(rt.tracer().dropped("vax"), 0u);
  EXPECT_GT(module_chars, 0u);
  EXPECT_LE(per_rpc, 0.5) << per_rpc * kMeasuredRpcs << " allocations over "
                          << kMeasuredRpcs << " traced RPCs";
}

// Once the queue has grown, scheduling and running the callback shapes of
// the hot paths allocates nothing: a delivery or timer [this, u32], the
// reliable layer's ack [this, uid, stream, seq], a sleep wake-up
// [this, std::string], and a ticker's run (a native module's tick, a
// detector's heartbeat read, a sweep).
TEST(VmAlloc, EventQueueHotPathCapturesAreAllocationFree) {
  net::Simulator sim;
  std::uint64_t sum = 0;
  const std::string instance = "server";  // short enough to copy in place
  net::Ticker ticker;
  ticker.start(sim, 1, [&sum] {
    ++sum;
    return net::SimTime{1};
  });
  const auto schedule_round = [&] {
    for (std::uint32_t i = 0; i < 256; ++i) {
      auto delivery = [&sum, i] { sum += i; };
      auto ack = [&sum, uid = std::uint64_t{i}, stream = std::uint64_t{7},
                  seq = std::uint64_t{i} * 3] { sum += uid + stream + seq; };
      auto wake = [&sum, name = instance] { sum += name.size(); };
      static_assert(sizeof(delivery) == 16 && sizeof(ack) == 32 &&
                    sizeof(wake) == 40);
      sim.schedule_after(i % 7, std::move(delivery));
      sim.schedule_after(i % 5, std::move(ack));
      sim.schedule_after(i % 11, std::move(wake));
    }
    // The round's events, with the ticker's runs among and after them.
    const net::SimTime end = sim.now() + 16;
    while (sim.now() < end) (void)sim.step();
  };
  schedule_round();  // grows the heap, the slot table and the free list
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  schedule_round();
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  ticker.stop();
  (void)sim.run();  // the stopped ticker's pending run, a no-op
  EXPECT_TRUE(sim.idle());
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(after - before, 0u)
      << "allocations over 768 events and the ticker's runs";
}

}  // namespace
}  // namespace surgeon
