// Exact state-fidelity integration tests on the deterministic counter app:
// the client's observed replies must be bit-identical whether or not the
// server is replaced/migrated mid-run, because the server's entire process
// state (global accumulator + AR stack mid-recursion) moves with it.
#include <gtest/gtest.h>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "minic/parser.hpp"
#include "minic/sema.hpp"
#include "reconfig/scripts.hpp"

namespace surgeon {
namespace {

using app::Runtime;

std::unique_ptr<Runtime> make_counter(int requests) {
  auto rt = std::make_unique<Runtime>(3);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  rt->load_application(config, "counter",
                       [&](const cfg::ModuleSpec& spec) {
                         if (spec.name == "client") {
                           return app::samples::counter_client_source(
                               requests);
                         }
                         return app::samples::counter_server_source();
                       });
  return rt;
}

std::vector<std::string> run_plain(int requests) {
  auto rt = make_counter(requests);
  EXPECT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  return rt->machine_of("client")->output();
}

TEST(Counter, BaselineCompletesWithExpectedTotals) {
  auto output = run_plain(5);
  ASSERT_EQ(output.size(), 6u);
  // total after request j = sum_{i<=j} i(i+1)/2 running accumulation:
  // replies: 1, 4, 10, 20, 35.
  EXPECT_EQ(output[0], "reply 1 1");
  EXPECT_EQ(output[1], "reply 2 4");
  EXPECT_EQ(output[2], "reply 3 10");
  EXPECT_EQ(output[3], "reply 4 20");
  EXPECT_EQ(output[4], "reply 5 35");
  EXPECT_EQ(output[5], "client-done");
}

TEST(Counter, ReplacementPreservesExactOutputs) {
  const int requests = 12;
  auto reference = run_plain(requests);

  auto rt = make_counter(requests);
  // Let a few requests through, then replace the server mid-run.
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 4; },
      10'000'000));
  auto report = reconfig::replace_module(*rt, "server");
  EXPECT_GT(report.state_frames, 0u);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  EXPECT_EQ(rt->machine_of("client")->output(), reference);
}

TEST(Counter, CrossMachineMigrationPreservesExactOutputs) {
  const int requests = 10;
  auto reference = run_plain(requests);

  auto rt = make_counter(requests);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 3; },
      10'000'000));
  auto report = reconfig::move_module(*rt, "server", "sparc");
  EXPECT_EQ(rt->bus().module_info(report.new_instance).machine, "sparc");
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  EXPECT_EQ(rt->machine_of("client")->output(), reference);
}

TEST(Counter, ChainedReplacementsPreserveExactOutputs) {
  const int requests = 15;
  auto reference = run_plain(requests);

  auto rt = make_counter(requests);
  std::string server = "server";
  for (std::size_t after : {3u, 6u, 9u}) {
    ASSERT_TRUE(rt->run_until(
        [&] { return rt->machine_of("client")->output().size() >= after; },
        10'000'000));
    auto report = reconfig::replace_module(
        *rt, server,
        reconfig::ReplaceOptions{
            server == "server" ? "sparc" : "vax", nullptr, 1'000'000,
            10'000, true});
    server = report.new_instance;
  }
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  EXPECT_EQ(rt->machine_of("client")->output(), reference);
}

TEST(Counter, UpdateToCompatibleV2ChangesBehaviourButKeepsState) {
  // Software maintenance: v2 replies with the total TIMES TEN after the
  // update, but continues from v1's accumulated state. The reconfiguration
  // graph shape and captured layouts are identical, so v1 frames install
  // cleanly in v2 code.
  const int requests = 8;
  auto rt = make_counter(requests);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 4; },
      10'000'000));

  // v2: same shape as counter_server_source, different reply statement.
  const std::string v2_src = R"(
int total = 0;

void bump(int k, int *out)
{
  if (k <= 0) { return; }
  bump(k - 1, out);
RP:
  total = total + k;
  *out = total * 10;
}

void main()
{
  int k;
  int result;
  while (1) {
    mh_read("req", "i", &k);
    bump(k, &result);
    mh_write("req", "i", result);
  }
}
)";
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  minic::Program v2 = minic::parse_program(v2_src);
  minic::analyze(v2);
  xform::prepare_module(v2, config.find_module("server")->reconfig_points);
  auto v2_prog = std::make_shared<const vm::CompiledProgram>(vm::compile(v2));

  auto report = reconfig::update_module(*rt, "server", v2_prog);
  (void)report;
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  const auto& output = rt->machine_of("client")->output();
  ASSERT_EQ(output.size(), static_cast<std::size_t>(requests) + 1);
  // Pre-update replies follow v1 (total), post-update v2 (total * 10), and
  // the totals themselves continue seamlessly: reply j ~ T(j) or 10*T(j)
  // where T(j) = sum_{i<=j} i(i+1)/2.
  auto triangular_sum = [](int j) {
    long long t = 0;
    for (int i = 1; i <= j; ++i) t += 1LL * i * (i + 1) / 2;
    return t;
  };
  int v2_replies = 0;
  for (int j = 1; j <= requests; ++j) {
    const std::string& line = output[static_cast<std::size_t>(j - 1)];
    long long value = std::stoll(line.substr(line.rfind(' ') + 1));
    long long v1_expect = triangular_sum(j);
    if (value == v1_expect) continue;
    EXPECT_EQ(value, v1_expect * 10) << "request " << j;
    ++v2_replies;
  }
  EXPECT_GT(v2_replies, 0) << "update never took effect";
}

TEST(Counter, ReplicationInstallsSameStateTwice) {
  const int requests = 10;
  auto rt = make_counter(requests);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 3; },
      10'000'000));
  auto report = reconfig::replicate_module(*rt, "server", "sparc");
  ASSERT_TRUE(rt->bus().has_module(report.new_instance));
  ASSERT_TRUE(rt->bus().has_module(report.clones[1]));
  EXPECT_EQ(rt->bus().module_info(report.clones[1]).machine, "sparc");
  // Both clones decoded the same state buffer.
  EXPECT_EQ(rt->machine_of(report.new_instance)->decode_count(), 1u);
  EXPECT_EQ(rt->machine_of(report.clones[1])->decode_count(), 1u);
  // The primary continues serving the client to completion.
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
}

TEST(Counter, LivenessModeFullApplicationFidelity) {
  // The liveness-refined transformation (per-edge frames, peek-based
  // restore) drives the full application with exact output fidelity too.
  const int requests = 10;
  auto reference = run_plain(requests);

  auto rt = std::make_unique<Runtime>(3);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  xform::XformOptions xopts;
  xopts.use_liveness = true;
  rt->load_application(config, "counter",
                       [&](const cfg::ModuleSpec& spec) {
                         if (spec.name == "client") {
                           return app::samples::counter_client_source(
                               requests);
                         }
                         return app::samples::counter_server_source();
                       },
                       xopts);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 4; },
      10'000'000));
  (void)reconfig::move_module(*rt, "server", "sparc");
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  EXPECT_EQ(rt->machine_of("client")->output(), reference);
}

TEST(Counter, OptimizedBuildFullApplicationFidelity) {
  // The optimizer (the machine's "optimizing compiler") composes with the
  // transformation in the full application.
  const int requests = 10;
  auto reference = run_plain(requests);

  auto rt = std::make_unique<Runtime>(3);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::counter_config_text());
  rt->load_application(config, "counter",
                       [&](const cfg::ModuleSpec& spec) {
                         if (spec.name == "client") {
                           return app::samples::counter_client_source(
                               requests);
                         }
                         return app::samples::counter_server_source();
                       },
                       {}, /*optimize=*/true);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->machine_of("client")->output().size() >= 4; },
      10'000'000));
  (void)reconfig::replace_module(*rt, "server", {});
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  EXPECT_EQ(rt->machine_of("client")->output(), reference);
}

TEST(Counter, ReplaceBeforeAnyTraffic) {
  // Edge case: reconfigure before the first request. The server is parked
  // in mh_read; the signal is delivered, and the capture happens when the
  // first request drives execution through RP.
  const int requests = 6;
  auto reference = run_plain(requests);
  auto rt = make_counter(requests);
  auto report = reconfig::replace_module(*rt, "server");
  EXPECT_GE(report.state_frames, 1u);
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("client"); }, 10'000'000));
  rt->check_faults();
  EXPECT_EQ(rt->machine_of("client")->output(), reference);
}

}  // namespace
}  // namespace surgeon
