// Unit tests of the observability subsystem: counter/gauge/histogram
// semantics, label canonicalization, span recording over the virtual
// clock, the exporters (including the Prometheus golden file), the bus
// instrumentation hooks, and mh_stats.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "bus/bus.hpp"
#include "bus/client.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "support/diag.hpp"

namespace surgeon::obs {
namespace {

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  reg.counter("c").inc(41);
  EXPECT_EQ(reg.counter_value("c"), 42u);
  EXPECT_EQ(reg.counter_value("never_touched"), 0u);

  reg.gauge("g").set(7);
  reg.gauge("g").add(-10);
  EXPECT_EQ(reg.gauge_value("g"), -3);
}

TEST(Metrics, LabelsAreCanonicalized) {
  MetricsRegistry reg;
  // The same label set in any order names the same series.
  reg.counter("c", {{"b", "2"}, {"a", "1"}}).inc();
  reg.counter("c", {{"a", "1"}, {"b", "2"}}).inc();
  EXPECT_EQ(reg.counter_value("c", {{"a", "1"}, {"b", "2"}}), 2u);
  // A different value is a different series.
  EXPECT_EQ(reg.counter_value("c", {{"a", "1"}, {"b", "3"}}), 0u);
}

TEST(Metrics, HistogramBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {}, {10, 100, 1000});
  h.observe(5);     // <= 10
  h.observe(10);    // <= 10 (bounds are inclusive)
  h.observe(50);    // <= 100
  h.observe(5000);  // +Inf
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 0u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5065u);
  // Repeated lookup returns the same histogram (bounds ignored after the
  // first call).
  EXPECT_EQ(&reg.histogram("h", {}, {1}), &h);
}

TEST(Metrics, QuantileInterpolatesInsideTheTargetBucket) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("q", {}, {10, 100, 1000});
  // 10 observations in [0,10], 10 in (10,100]: the CDF is piecewise linear
  // with a knee at rank 10 / value 10.
  for (int i = 0; i < 10; ++i) h.observe(1);
  for (int i = 0; i < 10; ++i) h.observe(50);
  // Rank 10 is the upper edge of the first bucket...
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 10.0);
  // ...and ranks above it interpolate linearly across (10, 100]:
  // rank 15 is halfway through the second bucket's 10 observations.
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 55.0);
  // rank 5 is halfway through the first bucket, whose lower edge is 0.
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
  // q clamps to [0, 1]; q=1 is the last populated bucket's upper edge.
  EXPECT_DOUBLE_EQ(h.quantile(1.5), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), 0.0);
}

TEST(Metrics, QuantileEdgeCases) {
  MetricsRegistry reg;
  // Empty histogram: no rank to find.
  EXPECT_DOUBLE_EQ(reg.histogram("empty", {}, {10}).quantile(0.5), 0.0);
  // Everything in the +Inf bucket clamps to the largest finite bound, the
  // same convention Prometheus' histogram_quantile uses.
  Histogram& inf = reg.histogram("inf", {}, {10, 100});
  inf.observe(5000);
  inf.observe(9000);
  EXPECT_DOUBLE_EQ(inf.quantile(0.5), 100.0);
  // Skips empty buckets: with only the third bucket populated, every
  // quantile interpolates inside (100, 1000].
  Histogram& sparse = reg.histogram("sparse", {}, {10, 100, 1000});
  for (int i = 0; i < 4; ++i) sparse.observe(500);
  EXPECT_DOUBLE_EQ(sparse.quantile(0.25), 325.0);   // rank 1 of 4
  EXPECT_DOUBLE_EQ(sparse.quantile(1.0), 1000.0);   // rank 4 of 4
  // The static form matches the member form given the same buckets.
  EXPECT_DOUBLE_EQ(Histogram::quantile_from_buckets(
                       sparse.upper_bounds(), sparse.bucket_counts(),
                       sparse.count(), 0.25),
                   sparse.quantile(0.25));
}

TEST(Metrics, HistogramDefaultsToTimeBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("t");
  EXPECT_EQ(h.upper_bounds(), default_time_buckets());
}

TEST(Metrics, SpanRecordsVirtualTime) {
  MetricsRegistry reg;
  std::uint64_t now = 100;
  reg.set_clock([&] { return now; });
  reg.set_enabled(true);
  {
    Span span(&reg, "rebind", "compute");
    now = 150;
  }
  ASSERT_EQ(reg.spans().size(), 1u);
  const SpanRecord& s = reg.spans()[0];
  EXPECT_EQ(s.name, "rebind");
  EXPECT_EQ(s.scope, "compute");
  EXPECT_EQ(s.begin_us, 100u);
  EXPECT_EQ(s.end_us, 150u);
  EXPECT_EQ(s.duration_us(), 50u);
  // The duration also lands in the per-step histogram.
  Histogram& h = reg.histogram("surgeon_reconfig_step_us",
                               {{"step", "rebind"}});
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 50u);
}

TEST(Metrics, DisabledRegistryIsANoOpForSpans) {
  MetricsRegistry reg;  // starts disabled
  { Span span(&reg, "rebind", "compute"); }
  { Span span(nullptr, "rebind", "compute"); }
  EXPECT_TRUE(reg.spans().empty());
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(Export, PrometheusGolden) {
  // The exact exposition format, byte for byte. Regenerate the golden file
  // by copying the EXPECT_EQ failure output after an intentional change.
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter("surgeon_bus_messages_sent_total",
              {{"module", "p"}, {"iface", "out"}})
      .inc(3);
  reg.counter("surgeon_bus_messages_sent_total",
              {{"module", "c"}, {"iface", "in"}})
      .inc(1);
  // A label value exercising every escape the exposition format defines:
  // double quote, backslash, and newline.
  reg.counter("surgeon_chaos_note_total",
              {{"detail", "line1\nline2 \"q\" back\\slash"}})
      .inc();
  reg.gauge("surgeon_bus_queue_depth", {{"module", "c"}, {"iface", "in"}})
      .set(2);
  Histogram& h = reg.histogram("surgeon_reconfig_step_us",
                               {{"step", "rebind"}}, {10, 100, 1000});
  h.observe(5);
  h.observe(50);
  h.observe(51);
  h.observe(5000);

  std::ifstream in(std::string(SURGEON_GOLDEN_DIR) + "/obs_prometheus.txt");
  ASSERT_TRUE(in.good()) << "golden file missing";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(to_prometheus(reg), golden.str());
}

TEST(Export, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("c", {{"k", "a\"b\\c\nd"}}).inc();
  EXPECT_NE(to_prometheus(reg).find("c{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos);
}

TEST(Export, JsonEscapesControlCharacters) {
  // support::quote (diagnostics) stops at newline; the JSON export must
  // escape every control character or the document fails to parse.
  MetricsRegistry reg;
  reg.counter("c", {{"k", "a\tb\rc\x01" "d\"e\\f\ng"}}).inc();
  std::string json = to_json(reg);
  EXPECT_NE(json.find("\"a\\tb\\rc\\u0001d\\\"e\\\\f\\ng\""),
            std::string::npos);
}

TEST(Export, JsonCarriesSeriesAndSpans) {
  MetricsRegistry reg;
  std::uint64_t now = 7;
  reg.set_clock([&] { return now; });
  reg.set_enabled(true);
  reg.counter("c", {{"module", "m"}}).inc(2);
  reg.gauge("g").set(-4);
  {
    Span span(&reg, "obj_cap", "server");
    now = 9;
  }
  std::string json = to_json(reg);
  EXPECT_NE(json.find("\"name\":\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"module\":\"m\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":2"), std::string::npos);
  EXPECT_NE(json.find("\"value\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obj_cap\",\"scope\":\"server\","
                      "\"begin_us\":7,\"end_us\":9,\"seq\":0"),
            std::string::npos);
}

// --- bus instrumentation ---------------------------------------------------

struct InstrumentedBus {
  net::Simulator sim{1};
  bus::Bus bus{sim};
  MetricsRegistry reg;

  InstrumentedBus() {
    sim.add_machine("m", net::arch_vax());
    reg.set_clock([this] { return sim.now(); });
    reg.set_enabled(true);
    bus.set_metrics(&reg);
    bus::ModuleInfo producer;
    producer.name = "p";
    producer.machine = "m";
    producer.interfaces = {
        bus::InterfaceSpec{"out", bus::IfaceRole::kDefine, "i", ""}};
    bus.add_module(producer);
    bus::ModuleInfo consumer;
    consumer.name = "c";
    consumer.machine = "m";
    consumer.interfaces = {
        bus::InterfaceSpec{"in", bus::IfaceRole::kUse, "i", ""}};
    bus.add_module(consumer);
    bus.add_binding({"p", "out"}, {"c", "in"});
  }
};

TEST(BusMetrics, SendDeliverReceiveCounters) {
  InstrumentedBus f;
  f.bus.send("p", "out", {ser::Value(std::int64_t{1})});
  f.bus.send("p", "out", {ser::Value(std::int64_t{2})});
  f.sim.run();
  obs::Labels out{{"module", "p"}, {"iface", "out"}};
  obs::Labels in{{"module", "c"}, {"iface", "in"}};
  EXPECT_EQ(f.reg.counter_value("surgeon_bus_messages_sent_total", out), 2u);
  EXPECT_EQ(f.reg.counter_value("surgeon_bus_messages_delivered_total", in),
            2u);
  EXPECT_EQ(f.reg.gauge_value("surgeon_bus_queue_depth", in), 2);
  (void)f.bus.receive("c", "in");
  EXPECT_EQ(f.reg.gauge_value("surgeon_bus_queue_depth", in), 1);
  (void)f.bus.receive("c", "in");
  EXPECT_EQ(f.reg.gauge_value("surgeon_bus_queue_depth", in), 0);
}

TEST(BusMetrics, UnboundSendCountsAsDrop) {
  InstrumentedBus f;
  f.bus.del_binding({"p", "out"}, {"c", "in"});
  f.bus.send("p", "out", {ser::Value(std::int64_t{1})});
  EXPECT_EQ(f.reg.counter_value("surgeon_bus_messages_dropped_total",
                                {{"module", "p"}, {"iface", "out"}}),
            1u);
  EXPECT_EQ(f.reg.counter_value("surgeon_bus_rebinds_total"), 2u);
}

TEST(BusMetrics, DisabledRegistryRecordsNothing) {
  InstrumentedBus f;
  f.reg.set_enabled(false);
  f.bus.send("p", "out", {ser::Value(std::int64_t{1})});
  f.sim.run();
  EXPECT_EQ(f.reg.counter_value("surgeon_bus_messages_sent_total",
                                {{"module", "p"}, {"iface", "out"}}),
            0u);
  // The plain BusStats keep counting regardless.
  EXPECT_EQ(f.bus.stats().messages_sent, 1u);
}

TEST(BusMetrics, MhStatsExportsThroughTheClient) {
  InstrumentedBus f;
  f.bus.send("p", "out", {ser::Value(std::int64_t{1})});
  f.sim.run();
  bus::Client client(f.bus, "c");
  std::string prom = client.mh_stats();
  EXPECT_NE(prom.find("surgeon_bus_messages_sent_total"), std::string::npos);
  std::string json = client.mh_stats("json");
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_THROW((void)client.mh_stats("xml"), support::BusError);
}

TEST(BusMetrics, MhStatsWithoutRegistryIsEmpty) {
  net::Simulator sim(1);
  bus::Bus bus(sim);
  sim.add_machine("m", net::arch_vax());
  bus::ModuleInfo info;
  info.name = "solo";
  info.machine = "m";
  bus.add_module(info);
  bus::Client client(bus, "solo");
  EXPECT_EQ(client.mh_stats(), "");
  EXPECT_EQ(client.mh_stats("json"),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[],\"spans\":[]}");
}

}  // namespace
}  // namespace surgeon::obs
