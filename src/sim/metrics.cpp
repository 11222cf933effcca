#include "sim/metrics.hpp"

#include <algorithm>
#include <cstdlib>

namespace ibwan::sim {

namespace {

void json_string(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', out);
    std::fputc(c, out);
  }
  std::fputc('"', out);
}

// Merge two path-sorted row vectors; `combine(dst, src)` folds a
// same-path row, new paths copy over.
template <typename Row, typename Combine>
void merge_rows(std::vector<Row>& dst, const std::vector<Row>& src,
                Combine combine) {
  std::vector<Row> out;
  out.reserve(dst.size() + src.size());
  std::size_t i = 0, j = 0;
  while (i < dst.size() || j < src.size()) {
    if (j >= src.size() || (i < dst.size() && dst[i].path < src[j].path)) {
      out.push_back(std::move(dst[i++]));
    } else if (i >= dst.size() || src[j].path < dst[i].path) {
      out.push_back(src[j++]);
    } else {
      combine(dst[i], src[j]);
      out.push_back(std::move(dst[i]));
      ++i;
      ++j;
    }
  }
  dst = std::move(out);
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const char* metric_unit_name(MetricUnit unit) {
  switch (unit) {
    case MetricUnit::kCount: return "count";
    case MetricUnit::kPackets: return "packets";
    case MetricUnit::kBytes: return "bytes";
    case MetricUnit::kMessages: return "messages";
    case MetricUnit::kNanoseconds: return "ns";
  }
  return "?";
}

MetricsRegistry::Entry& MetricsRegistry::lookup(std::string_view scope,
                                                std::string_view name,
                                                MetricKind kind,
                                                MetricUnit unit) {
  std::string path;
  path.reserve(scope.size() + 1 + name.size());
  path.append(scope);
  path.push_back('/');
  path.append(name);
  auto it = entries_.find(path);
  if (it != entries_.end()) {
    const Entry& e = it->second;
    if (e.kind != kind || e.unit != unit) {
      // Handing back the entry would read another kind's instrument at
      // the same index, so a mismatch is fatal in every build type.
      std::fprintf(stderr,
                   "metric %s is registered as %s (%s) but requested as "
                   "%s (%s)\n",
                   path.c_str(), metric_kind_name(e.kind),
                   metric_unit_name(e.unit), metric_kind_name(kind),
                   metric_unit_name(unit));
      std::abort();
    }
    return it->second;
  }
  std::size_t index = 0;
  switch (kind) {
    case MetricKind::kCounter:
      index = folded_.size();
      folded_.push_back(0);
      break;
    case MetricKind::kGauge:
      index = gauges_.size();
      gauges_.push_back(Gauge(&enabled_));
      break;
    case MetricKind::kHistogram:
      index = histograms_.size();
      histograms_.push_back(Histogram(&enabled_));
      break;
  }
  return entries_.emplace(std::move(path), Entry{kind, unit, index})
      .first->second;
}

std::uint32_t MetricsRegistry::bind(std::string_view scope,
                                    std::string_view name, MetricUnit unit,
                                    const std::uint64_t* field,
                                    std::uint32_t prev) {
  const std::size_t counter =
      lookup(scope, name, MetricKind::kCounter, unit).index;
  bindings_.push_back(
      Binding{field, static_cast<std::uint32_t>(counter), prev});
  return static_cast<std::uint32_t>(bindings_.size() - 1);
}

void MetricsRegistry::fold(std::uint32_t last) {
  for (std::uint32_t row = last; row != kNoRow; row = bindings_[row].prev) {
    Binding& b = bindings_[row];
    folded_[b.counter] += *b.field;
    b.field = nullptr;
  }
}

Gauge& MetricsRegistry::gauge(std::string_view scope, std::string_view name,
                              MetricUnit unit) {
  return gauges_[lookup(scope, name, MetricKind::kGauge, unit).index];
}

Histogram& MetricsRegistry::histogram(std::string_view scope,
                                      std::string_view name,
                                      MetricUnit unit) {
  return histograms_[lookup(scope, name, MetricKind::kHistogram, unit).index];
}

std::vector<MetricsRegistry::Info> MetricsRegistry::inventory() const {
  std::vector<Info> out;
  out.reserve(entries_.size());
  for (const auto& [path, entry] : entries_)
    out.push_back(Info{path, entry.kind, entry.unit});
  return out;  // std::map iteration is already path-sorted
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  if (!enabled_) return snap;
  std::vector<std::uint64_t> totals = folded_;
  for (const Binding& b : bindings_) {
    if (b.field != nullptr) totals[b.counter] += *b.field;
  }
  for (const auto& [path, entry] : entries_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.counters.push_back({path, entry.unit, totals[entry.index]});
        break;
      case MetricKind::kGauge: {
        const Gauge& g = gauges_[entry.index];
        snap.gauges.push_back({path, entry.unit, g.value(), g.max()});
        break;
      }
      case MetricKind::kHistogram: {
        const Histogram& h = histograms_[entry.index];
        snap.histograms.push_back(
            {path, entry.unit, h.count(), h.stats().min(), h.stats().max(),
             h.stats().mean(), h.stats().sum(), h.bins().quantile(0.50),
             h.bins().quantile(0.99), h.bins().bins()});
        break;
      }
    }
  }
  return snap;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  merge_rows(counters, other.counters,
             [](CounterRow& a, const CounterRow& b) { a.value += b.value; });
  merge_rows(gauges, other.gauges, [](GaugeRow& a, const GaugeRow& b) {
    a.value = std::max(a.value, b.value);
    a.max = std::max(a.max, b.max);
  });
  merge_rows(histograms, other.histograms,
             [](HistogramRow& a, const HistogramRow& b) {
               if (b.count == 0) return;
               if (a.count == 0) {
                 a.min = b.min;
                 a.max = b.max;
               } else {
                 a.min = std::min(a.min, b.min);
                 a.max = std::max(a.max, b.max);
               }
               a.sum += b.sum;
               a.count += b.count;
               a.mean = a.sum / static_cast<double>(a.count);
               if (b.bins.size() > a.bins.size()) a.bins.resize(b.bins.size(), 0);
               for (std::size_t i = 0; i < b.bins.size(); ++i)
                 a.bins[i] += b.bins[i];
               a.p50 = LogHistogram::quantile(a.bins, a.count, 0.50);
               a.p99 = LogHistogram::quantile(a.bins, a.count, 0.99);
             });
}

void MetricsSnapshot::write_json(std::FILE* out) const {
  std::fputs("{\n  \"schema\": \"ibwan.metrics.v1\",\n  \"counters\": [", out);
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const auto& r = counters[i];
    std::fputs(i ? ",\n    " : "\n    ", out);
    std::fputs("{\"name\": ", out);
    json_string(out, r.path);
    std::fprintf(out, ", \"unit\": \"%s\", \"value\": %llu}",
                 metric_unit_name(r.unit),
                 static_cast<unsigned long long>(r.value));
  }
  std::fputs(counters.empty() ? "],\n" : "\n  ],\n", out);
  std::fputs("  \"gauges\": [", out);
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    const auto& r = gauges[i];
    std::fputs(i ? ",\n    " : "\n    ", out);
    std::fputs("{\"name\": ", out);
    json_string(out, r.path);
    std::fprintf(out, ", \"unit\": \"%s\", \"value\": %lld, \"max\": %lld}",
                 metric_unit_name(r.unit), static_cast<long long>(r.value),
                 static_cast<long long>(r.max));
  }
  std::fputs(gauges.empty() ? "],\n" : "\n  ],\n", out);
  std::fputs("  \"histograms\": [", out);
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& r = histograms[i];
    std::fputs(i ? ",\n    " : "\n    ", out);
    std::fputs("{\"name\": ", out);
    json_string(out, r.path);
    std::fprintf(out,
                 ", \"unit\": \"%s\", \"count\": %llu, \"min\": %.9g, "
                 "\"max\": %.9g, \"mean\": %.9g, \"sum\": %.9g, \"p50\": "
                 "%llu, \"p99\": %llu, \"bins\": [",
                 metric_unit_name(r.unit),
                 static_cast<unsigned long long>(r.count), r.min, r.max,
                 r.mean, r.sum, static_cast<unsigned long long>(r.p50),
                 static_cast<unsigned long long>(r.p99));
    for (std::size_t b = 0; b < r.bins.size(); ++b)
      std::fprintf(out, "%s%llu", b ? ", " : "",
                   static_cast<unsigned long long>(r.bins[b]));
    std::fputs("]}", out);
  }
  std::fputs(histograms.empty() ? "]\n}\n" : "\n  ]\n}\n", out);
}

bool MetricsSnapshot::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  write_json(f);
  std::fclose(f);
  return true;
}

void MetricsSnapshot::write_csv(std::FILE* out) const {
  std::fputs("name,kind,unit,value,max,count,min,mean,p50,p99\n", out);
  for (const auto& r : counters)
    std::fprintf(out, "%s,counter,%s,%llu,,,,,,\n", r.path.c_str(),
                 metric_unit_name(r.unit),
                 static_cast<unsigned long long>(r.value));
  for (const auto& r : gauges)
    std::fprintf(out, "%s,gauge,%s,%lld,%lld,,,,,\n", r.path.c_str(),
                 metric_unit_name(r.unit), static_cast<long long>(r.value),
                 static_cast<long long>(r.max));
  for (const auto& r : histograms)
    std::fprintf(out, "%s,histogram,%s,,%.9g,%llu,%.9g,%.9g,%llu,%llu\n",
                 r.path.c_str(), metric_unit_name(r.unit), r.max,
                 static_cast<unsigned long long>(r.count), r.min, r.mean,
                 static_cast<unsigned long long>(r.p50),
                 static_cast<unsigned long long>(r.p99));
}

bool MetricsSnapshot::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  write_csv(f);
  std::fclose(f);
  return true;
}

MetricsAggregator& MetricsAggregator::global() {
  // NOLINT-IBWAN(CONC003): export-time aggregator; merged after the
  // engine has joined its site threads (mutex-guarded internally)
  static MetricsAggregator agg;
  return agg;
}

void MetricsAggregator::activate() {
  std::lock_guard<std::mutex> lock(mu_);
  active_ = true;
}

bool MetricsAggregator::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_;
}

void MetricsAggregator::absorb(const MetricsSnapshot& snap) {
  std::lock_guard<std::mutex> lock(mu_);
  merged_.merge(snap);
}

MetricsSnapshot MetricsAggregator::merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return merged_;
}

void MetricsAggregator::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  active_ = false;
  merged_ = MetricsSnapshot{};
}

}  // namespace ibwan::sim
