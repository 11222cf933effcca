#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

namespace ibwan::sim {
namespace {

TEST(Metrics, ScopedNamesFormHierarchicalPaths) {
  MetricsRegistry m;
  std::uint64_t msgs = 0;
  CounterExports exports(m);
  exports.counter("node3/ib.rc", "msgs_sent", MetricUnit::kMessages, &msgs);
  m.gauge("wan-a2b/net.link", "queued_bytes", MetricUnit::kBytes);
  m.histogram("node3/ib.rc", "ack_ns", MetricUnit::kNanoseconds);

  const auto inv = m.inventory();
  ASSERT_EQ(inv.size(), 3u);
  // Inventory is sorted by full path.
  EXPECT_EQ(inv[0].path, "node3/ib.rc/ack_ns");
  EXPECT_EQ(inv[0].kind, MetricKind::kHistogram);
  EXPECT_EQ(inv[1].path, "node3/ib.rc/msgs_sent");
  EXPECT_EQ(inv[1].kind, MetricKind::kCounter);
  EXPECT_EQ(inv[1].unit, MetricUnit::kMessages);
  EXPECT_EQ(inv[2].path, "wan-a2b/net.link/queued_bytes");
}

TEST(Metrics, ReRegistrationReturnsTheSameInstrument) {
  // Two components on one node (say two QPs) bind their own fields to
  // one path: one instrument, whose value is the sum of both fields.
  MetricsRegistry m;
  m.set_enabled(true);
  std::uint64_t a = 0, b = 0;
  CounterExports ea(m), eb(m);
  ea.counter("node0/tcp", "segs_sent", MetricUnit::kPackets, &a);
  eb.counter("node0/tcp", "segs_sent", MetricUnit::kPackets, &b);
  a += 2;
  b += 3;
  EXPECT_EQ(m.inventory().size(), 1u);
  const MetricsSnapshot snap = m.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 5u);
  EXPECT_EQ(&m.gauge("n/l", "g"), &m.gauge("n/l", "g"));
}

TEST(Metrics, DestroyedBindingStillCounts) {
  // Objects often die before the snapshot (bench-local QPs, RPC
  // objects): destroying the exports folds their final values in.
  MetricsRegistry m;
  m.set_enabled(true);
  std::uint64_t live = 4;
  CounterExports keep(m);
  keep.counter("n/l", "c", MetricUnit::kCount, &live);
  for (std::uint64_t n : {10u, 20u}) {
    std::uint64_t field = n;
    CounterExports gone(m);
    gone.counter("n/l", "c", MetricUnit::kCount, &field);
    gone.counter("n/l", "d", MetricUnit::kCount, &field);
  }
  live = 5;
  const MetricsSnapshot snap = m.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].path, "n/l/c");
  EXPECT_EQ(snap.counters[0].value, 35u);
  EXPECT_EQ(snap.counters[1].path, "n/l/d");
  EXPECT_EQ(snap.counters[1].value, 30u);
}

TEST(Metrics, KindOrUnitMismatchAbortsInEveryBuild) {
  // Handing back the entry would alias another kind's instrument at the
  // same index, so the check must not compile out with NDEBUG.
  EXPECT_DEATH(
      {
        MetricsRegistry m;
        std::uint64_t x = 0;
        CounterExports e(m);
        e.counter("n/l", "x", MetricUnit::kCount, &x);
        m.histogram("n/l", "h");
        m.histogram("n/l", "x");
      },
      "metric n/l/x is registered as counter \\(count\\) but requested "
      "as histogram \\(count\\)");
  EXPECT_DEATH(
      {
        MetricsRegistry m;
        std::uint64_t x = 0;
        CounterExports e(m);
        e.counter("n/l", "x", MetricUnit::kCount, &x);
        e.counter("n/l", "x", MetricUnit::kBytes, &x);
      },
      "metric n/l/x is registered as counter \\(count\\) but requested "
      "as counter \\(bytes\\)");
}

TEST(Metrics, DisabledModeHasZeroSideEffects) {
  MetricsRegistry m;
  ASSERT_FALSE(m.enabled());  // disabled is the default
  std::uint64_t field = 0;
  CounterExports exports(m);
  exports.counter("n/l", "c", MetricUnit::kCount, &field);
  Gauge& g = m.gauge("n/l", "g");
  Histogram& h = m.histogram("n/l", "h", MetricUnit::kNanoseconds);

  field += 7;
  g.set(42);
  g.add(5);
  h.observe(1000);

  EXPECT_EQ(field, 7u);  // a counter is the component's field: it counts
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
  std::uint64_t c = 0;
  CounterExports exports(m);
  exports.counter("n/l", "c", MetricUnit::kCount, &c);
  Gauge& g = m.gauge("n/l", "g");
  Histogram& h = m.histogram("n/l", "h");
  c += 10;
  g.set(4);
  g.set(2);  // high-watermark stays at 4
  h.observe(8);

  const MetricsSnapshot snap = m.snapshot();
  // Mutations after the snapshot must not leak into it.
  c += 100;
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
  std::uint64_t c1 = 3, c2 = 4, only = 1;
  CounterExports e1(m1), e2(m2);
  e1.counter("a/l", "c", MetricUnit::kCount, &c1);
  e2.counter("a/l", "c", MetricUnit::kCount, &c2);
  e2.counter("b/l", "only_in_second", MetricUnit::kCount, &only);
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
  std::uint64_t msgs = 5;
  CounterExports exports(m);
  exports.counter("node0/ib.rc", "msgs_sent", MetricUnit::kMessages, &msgs);
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
  std::uint64_t c = 1;
  CounterExports exports(m);
  exports.counter("n/l", "c", MetricUnit::kCount, &c);
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
    const std::uint64_t c = static_cast<std::uint64_t>(run) + 1;
    CounterExports exports(m);
    exports.counter("n/l", "c", MetricUnit::kCount, &c);
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
