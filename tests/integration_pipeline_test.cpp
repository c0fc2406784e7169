// Pipeline integration: a three-stage stream where the middle stage is
// replaced under load. Queued and in-flight messages must survive the
// rebind (the "cap"/"rmq" commands of Figure 5 plus the drain window), and
// the stage's sequence counter must continue without a gap.
#include <gtest/gtest.h>

#include <set>

#include "app/runtime.hpp"
#include "app/samples.hpp"
#include "cfg/parser.hpp"
#include "reconfig/scripts.hpp"

namespace surgeon {
namespace {

using app::Runtime;

std::unique_ptr<Runtime> make_pipeline(int items, std::uint64_t seed = 5) {
  auto rt = std::make_unique<Runtime>(seed);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  net::LatencyModel model;
  model.local_us = 15;
  model.remote_us = 2500;
  rt->simulator().set_latency_model(model);
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::pipeline_config_text());
  rt->load_application(config, "pipeline",
                       [&](const cfg::ModuleSpec& spec) {
                         if (spec.name == "feeder") {
                           return app::samples::pipeline_source_source(items);
                         }
                         if (spec.name == "filter") {
                           return app::samples::pipeline_filter_source();
                         }
                         return app::samples::pipeline_sink_source();
                       });
  return rt;
}

std::vector<std::string> sink_output(Runtime& rt) {
  return rt.machine_of("sink")->output();
}

void expect_complete_stream(const std::vector<std::string>& lines,
                            int items) {
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(items));
  std::set<int> values;
  std::set<int> seqs;
  for (const auto& line : lines) {
    int value = 0, seq = 0;
    ASSERT_EQ(sscanf(line.c_str(), "item %d %d", &value, &seq), 2) << line;
    values.insert(value);
    seqs.insert(seq);
  }
  // Every item came through exactly once (doubled by the filter), and the
  // filter's sequence numbers form 1..items with no gap: its `seen`
  // counter survived the replacement.
  for (int i = 1; i <= items; ++i) {
    EXPECT_TRUE(values.contains(2 * i)) << "missing item " << i;
    EXPECT_TRUE(seqs.contains(i)) << "sequence gap at " << i;
  }
}

TEST(Pipeline, AllItemsFlowWithoutReconfiguration) {
  const int items = 40;
  auto rt = make_pipeline(items);
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= static_cast<std::size_t>(items); },
      10'000'000));
  rt->check_faults();
  expect_complete_stream(sink_output(*rt), items);
  EXPECT_EQ(rt->bus().stats().messages_dropped_unbound, 0u);
}

TEST(Pipeline, MigrateFilterUnderLoadLosesNothing) {
  const int items = 60;
  auto rt = make_pipeline(items);
  // Let roughly a third through, then migrate the filter cross-machine
  // while the feeder keeps pushing.
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= 20; }, 10'000'000));
  auto report = reconfig::move_module(*rt, "filter", "sparc");
  EXPECT_EQ(rt->bus().module_info(report.new_instance).machine, "sparc");
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= static_cast<std::size_t>(items); },
      10'000'000));
  rt->check_faults();
  expect_complete_stream(sink_output(*rt), items);
}

TEST(Pipeline, QueuedBacklogMovesWithTheModule) {
  // A feeder that fires bursts of 10 with a pause between them: when the
  // filter is replaced a couple of items into a burst, the rest of the
  // burst is queued at (or in flight toward) the old instance and must be
  // swept to the clone -- the "cap" commands plus the drain window.
  const int items = 30;
  auto rt = std::make_unique<Runtime>(5);
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::pipeline_config_text());
  rt->load_application(
      config, "pipeline", [&](const cfg::ModuleSpec& spec) -> std::string {
        if (spec.name == "feeder") {
          return R"(
void main() {
  int i;
  i = 1;
  while (i <= )" + std::to_string(items) + R"() {
    mh_write("out", "i", i);
    if (i % 10 == 0) { sleep(2); }
    i = i + 1;
  }
  print("feeder-done");
}
)";
        }
        if (spec.name == "filter") {
          return app::samples::pipeline_filter_source();
        }
        return app::samples::pipeline_sink_source();
      });
  // Slow the scheduler down so the replacement lands inside a burst: wait
  // until the sink saw the first couple of items of burst one.
  rt->set_slice(60);
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= 2; }, 10'000'000));
  auto report = reconfig::replace_module(*rt, "filter");
  EXPECT_GT(report.queued_messages_moved, 0u);
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= static_cast<std::size_t>(items); },
      10'000'000));
  rt->check_faults();
  expect_complete_stream(sink_output(*rt), items);
}

TEST(Pipeline, BackToBackReplacements) {
  const int items = 50;
  auto rt = make_pipeline(items);
  std::string filter = "filter";
  for (std::size_t threshold : {10u, 20u, 30u}) {
    ASSERT_TRUE(rt->run_until(
        [&] { return sink_output(*rt).size() >= threshold; }, 10'000'000));
    auto report = reconfig::move_module(
        *rt, filter,
        rt->bus().module_info(filter).machine == "vax" ? "sparc" : "vax");
    filter = report.new_instance;
  }
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= static_cast<std::size_t>(items); },
      10'000'000));
  rt->check_faults();
  expect_complete_stream(sink_output(*rt), items);
}

class PipelineJitterSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineJitterSweep, MigrationUnderJitterLosesNothing) {
  // Network jitter reorders deliveries relative to the no-jitter schedule;
  // the migration must still lose nothing, for any seed.
  const int items = 40;
  auto rt = std::make_unique<Runtime>(GetParam());
  rt->add_machine("vax", net::arch_vax());
  rt->add_machine("sparc", net::arch_sparc());
  net::LatencyModel model;
  model.local_us = 15;
  model.remote_us = 2500;
  model.remote_jitter_us = 2000;
  rt->simulator().set_latency_model(model);
  cfg::ConfigFile config =
      cfg::parse_config(app::samples::pipeline_config_text());
  rt->load_application(config, "pipeline",
                       [&](const cfg::ModuleSpec& spec) {
                         if (spec.name == "feeder") {
                           return app::samples::pipeline_source_source(items);
                         }
                         if (spec.name == "filter") {
                           return app::samples::pipeline_filter_source();
                         }
                         return app::samples::pipeline_sink_source();
                       });
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= 10; }, 10'000'000));
  auto report = reconfig::move_module(*rt, "filter", "sparc");
  (void)report;
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= static_cast<std::size_t>(items); },
      10'000'000));
  rt->check_faults();
  expect_complete_stream(sink_output(*rt), items);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineJitterSweep,
                         ::testing::Range<std::uint64_t>(50, 60));

TEST(Pipeline, ReplicaSeesTrafficAfterReplication) {
  const int items = 40;
  auto rt = make_pipeline(items);
  ASSERT_TRUE(rt->run_until(
      [&] { return sink_output(*rt).size() >= 10; }, 10'000'000));
  auto report = reconfig::replicate_module(*rt, "filter", "sparc");
  EXPECT_GT(rt->machine_of(report.clones[1])->decode_count(), 0u);
  // Drain the whole stream: run until the feeder finished and every queue
  // emptied (both filters fan out to the sink, so line counts exceed
  // `items`; only full drainage gives a stable picture).
  ASSERT_TRUE(rt->run_until(
      [&] { return rt->module_finished("feeder"); }, 20'000'000));
  rt->run_until_idle(20'000'000);
  rt->check_faults();
  // The sink now receives duplicates (two filters); every original value
  // must still be present.
  std::set<int> values;
  for (const auto& line : sink_output(*rt)) {
    int value = 0, seq = 0;
    ASSERT_EQ(sscanf(line.c_str(), "item %d %d", &value, &seq), 2);
    values.insert(value);
  }
  for (int i = 1; i <= items; ++i) {
    EXPECT_TRUE(values.contains(2 * i)) << "missing item " << i;
  }
}

}  // namespace
}  // namespace surgeon
