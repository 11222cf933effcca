#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace ibwan::sim {
namespace {

TEST(Metrics, ScopedNamesFormHierarchicalPaths) {
  MetricsRegistry m;
  m.counter("node3/ib.rc", "msgs_sent", MetricUnit::kMessages);
  m.gauge("wan-a2b/net.link", "queued_bytes", MetricUnit::kBytes);
  m.histogram("node3/ib.rc", "ack_ns", MetricUnit::kNanoseconds);

  const auto inv = m.inventory();
  ASSERT_EQ(inv.size(), 3u);
  // Inventory is sorted by full path.
  EXPECT_EQ(inv[0].path, "node3/ib.rc/ack_ns");
  EXPECT_EQ(inv[0].kind, MetricKind::kHistogram);
  EXPECT_EQ(inv[1].path, "node3/ib.rc/msgs_sent");
  EXPECT_EQ(inv[1].unit, MetricUnit::kMessages);
  EXPECT_EQ(inv[2].path, "wan-a2b/net.link/queued_bytes");
}

TEST(Metrics, ReRegistrationReturnsTheSameInstrument) {
  MetricsRegistry m;
  m.set_enabled(true);
  Counter& a = m.counter("node0/tcp", "segs_sent", MetricUnit::kPackets);
  Counter& b = m.counter("node0/tcp", "segs_sent", MetricUnit::kPackets);
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(m.inventory().size(), 1u);
}

TEST(Metrics, DisabledModeHasZeroSideEffects) {
  MetricsRegistry m;
  ASSERT_FALSE(m.enabled());  // disabled is the default
  Counter& c = m.counter("n/l", "c");
  Gauge& g = m.gauge("n/l", "g");
  Histogram& h = m.histogram("n/l", "h", MetricUnit::kNanoseconds);

  c.add(7);
  g.set(42);
  g.add(5);
  h.observe(1000);

  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
  EXPECT_EQ(h.count(), 0u);
  // A snapshot of a disabled registry is empty, even though the
  // instruments are registered (the schema dump relies on that).
  EXPECT_TRUE(m.snapshot().empty());
  EXPECT_EQ(m.inventory().size(), 3u);
}

TEST(Metrics, SnapshotIsAnIsolatedValueCopy) {
  MetricsRegistry m;
  m.set_enabled(true);
  Counter& c = m.counter("n/l", "c");
  Gauge& g = m.gauge("n/l", "g");
  Histogram& h = m.histogram("n/l", "h");
  c.add(10);
  g.set(4);
  g.set(2);  // high-watermark stays at 4
  h.observe(8);

  const MetricsSnapshot snap = m.snapshot();
  // Mutations after the snapshot must not leak into it.
  c.add(100);
  g.set(99);
  h.observe(1 << 20);

  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].path, "n/l/c");
  EXPECT_EQ(snap.counters[0].value, 10u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, 2);
  EXPECT_EQ(snap.gauges[0].max, 4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].mean, 8.0);
}

TEST(Metrics, MergeSumsCountersMaxesGaugesAddsBins) {
  MetricsRegistry m1, m2;
  m1.set_enabled(true);
  m2.set_enabled(true);
  m1.counter("a/l", "c").add(3);
  m2.counter("a/l", "c").add(4);
  m2.counter("b/l", "only_in_second").add(1);
  m1.gauge("a/l", "g").set(10);
  m2.gauge("a/l", "g").set(7);
  m1.histogram("a/l", "h").observe(100);
  m2.histogram("a/l", "h").observe(300);

  MetricsSnapshot snap = m1.snapshot();
  snap.merge(m2.snapshot());

  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].path, "a/l/c");
  EXPECT_EQ(snap.counters[0].value, 7u);
  EXPECT_EQ(snap.counters[1].path, "b/l/only_in_second");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].max, 10);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].mean, 200.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].min, 100.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].max, 300.0);
  // Merged quantiles read the summed bins, as if one histogram had
  // seen both samples.
  LogHistogram both;
  both.add(100);
  both.add(300);
  EXPECT_EQ(snap.histograms[0].p50, both.quantile(0.50));
  EXPECT_EQ(snap.histograms[0].p99, both.quantile(0.99));
}

TEST(Metrics, KindOrUnitNamesMatchTheDocumentedSchema) {
  EXPECT_STREQ(metric_kind_name(MetricKind::kCounter), "counter");
  EXPECT_STREQ(metric_kind_name(MetricKind::kGauge), "gauge");
  EXPECT_STREQ(metric_kind_name(MetricKind::kHistogram), "histogram");
  EXPECT_STREQ(metric_unit_name(MetricUnit::kCount), "count");
  EXPECT_STREQ(metric_unit_name(MetricUnit::kPackets), "packets");
  EXPECT_STREQ(metric_unit_name(MetricUnit::kBytes), "bytes");
  EXPECT_STREQ(metric_unit_name(MetricUnit::kMessages), "messages");
  EXPECT_STREQ(metric_unit_name(MetricUnit::kNanoseconds), "ns");
}

std::string slurp(std::FILE* f) {
  std::string out;
  std::rewind(f);
  char buf[512];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  return out;
}

TEST(Metrics, JsonExportCarriesSchemaIdAndRows) {
  MetricsRegistry m;
  m.set_enabled(true);
  m.counter("node0/ib.rc", "msgs_sent", MetricUnit::kMessages).add(5);
  m.histogram("node0/ib.rc", "ack_ns", MetricUnit::kNanoseconds)
      .observe(4096);

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  m.snapshot().write_json(f);
  const std::string json = slurp(f);
  std::fclose(f);

  EXPECT_NE(json.find("\"schema\": \"ibwan.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"node0/ib.rc/msgs_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\": \"messages\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Metrics, CsvExportHasTheDocumentedHeader) {
  MetricsRegistry m;
  m.set_enabled(true);
  m.counter("n/l", "c").add(1);
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  m.snapshot().write_csv(f);
  const std::string csv = slurp(f);
  std::fclose(f);
  EXPECT_EQ(csv.rfind("name,kind,unit,value,max,count,min,mean,p50,p99\n", 0),
            0u);
  EXPECT_NE(csv.find("n/l/c,counter,count,1"), std::string::npos);
}

TEST(Metrics, AggregatorAbsorbsAcrossRegistries) {
  auto& agg = MetricsAggregator::global();
  agg.reset();
  EXPECT_FALSE(agg.active());
  agg.activate();
  ASSERT_TRUE(agg.active());

  for (int run = 0; run < 2; ++run) {
    MetricsRegistry m;
    m.set_enabled(true);
    m.counter("n/l", "c").add(static_cast<std::uint64_t>(run) + 1);
    agg.absorb(m.snapshot());
  }
  const MetricsSnapshot merged = agg.merged();
  ASSERT_EQ(merged.counters.size(), 1u);
  EXPECT_EQ(merged.counters[0].value, 3u);

  agg.reset();
  EXPECT_FALSE(agg.active());
  EXPECT_TRUE(agg.merged().empty());
}

}  // namespace
}  // namespace ibwan::sim
