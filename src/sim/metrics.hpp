// Per-simulator metrics registry: named counters, gauges, and
// histograms with hierarchical `<instance>/<layer>/<metric>` paths.
//
// Design constraints (see docs/METRICS.md for the full schema):
//  * One count per event. A counter is a component's own std::uint64_t
//    field (usually a member of its Stats), bound to a path through
//    CounterExports; the registry stores no second tally, and a
//    snapshot sums every field bound to a path.
//  * Near-zero cost when disabled. Instruments are registered eagerly
//    in layer constructors; gauge and histogram mutations and
//    snapshots are gated on a single bool owned by the registry, so a
//    disabled run pays one predicted branch per tick and allocates
//    nothing beyond registration.
//  * One registry per Simulator. Sweeps run one simulator per grid
//    point on a thread pool; keeping the registry inside the
//    simulator keeps ticks unsynchronised. Cross-run aggregation goes
//    through the mutex-protected MetricsAggregator instead.
//  * Deterministic export: snapshots are sorted by path, so two runs
//    with identical seeds produce identical JSON/CSV bytes.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hpp"

namespace ibwan::sim {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Unit tags exported alongside every metric; docs/METRICS.md keys its
/// inventory on (path, kind, unit).
enum class MetricUnit {
  kCount,        // dimensionless event count
  kPackets,      // wire packets / datagrams / segments
  kBytes,        // payload or wire bytes
  kMessages,     // application-level messages / RPC calls / NFS ops
  kNanoseconds,  // simulated time
};

const char* metric_kind_name(MetricKind kind);
const char* metric_unit_name(MetricUnit unit);

/// Instantaneous level with a high-watermark. `set`/`add` are no-ops
/// while the owning registry is disabled.
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!*enabled_) return;
    value_ = v;
    if (v > max_) max_ = v;
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  std::int64_t value() const { return value_; }
  std::int64_t max() const { return max_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  std::int64_t value_ = 0;
  std::int64_t max_ = 0;
};

/// Distribution instrument: Welford running stats plus power-of-two
/// bins (for quantiles). `observe` is a no-op while disabled.
class Histogram {
 public:
  void observe(std::uint64_t v) {
    if (!*enabled_) return;
    stats_.add(static_cast<double>(v));
    bins_.add(v);
  }
  std::uint64_t count() const { return bins_.total(); }
  const OnlineStats& stats() const { return stats_; }
  const LogHistogram& bins() const { return bins_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(const bool* enabled) : enabled_(enabled) {}
  const bool* enabled_;
  OnlineStats stats_;
  LogHistogram bins_;
};

/// Value copy of a registry at a point in simulated time. Rows are
/// sorted by path; a snapshot taken while the registry is disabled is
/// empty. Snapshots from different simulators merge (counters sum,
/// gauges take the max, histogram bins add).
struct MetricsSnapshot {
  struct CounterRow {
    std::string path;
    MetricUnit unit;
    std::uint64_t value;
  };
  struct GaugeRow {
    std::string path;
    MetricUnit unit;
    std::int64_t value;  // last set; after merge: max of last values
    std::int64_t max;    // high-watermark
  };
  struct HistogramRow {
    std::string path;
    MetricUnit unit;
    std::uint64_t count;
    double min, max, mean, sum;
    std::uint64_t p50, p99;  // lower bin edges, recomputed after merge
    std::vector<std::uint64_t> bins;  // power-of-two bins, bin 0 = values <= 1
  };

  std::vector<CounterRow> counters;
  std::vector<GaugeRow> gauges;
  std::vector<HistogramRow> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Fold `other` into this snapshot (same-path rows combine; new
  /// paths are inserted keeping sort order).
  void merge(const MetricsSnapshot& other);

  /// "ibwan.metrics.v1" JSON document (docs/METRICS.md §export).
  void write_json(std::FILE* out) const;
  bool write_json(const std::string& path) const;

  /// Flat CSV: name,kind,unit,value,max,count,min,mean,p50,p99.
  void write_csv(std::FILE* out) const;
  bool write_csv(const std::string& path) const;
};

/// Registry of instruments for one simulator. Disabled by default;
/// instruments registered while disabled still exist (registration is
/// how the schema dump enumerates the namespace). Gauges and histograms
/// never mutate while disabled; counters are component fields and
/// always count.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Get-or-register. `scope` is `<instance>/<layer>` (e.g.
  /// "node3/ib.rc"), `name` the metric leaf. Returned references stay
  /// valid for the registry's lifetime. Re-registering an existing
  /// path returns the same instrument; a kind or unit that differs
  /// from the first registration's aborts. Counters register through
  /// CounterExports.
  Gauge& gauge(std::string_view scope, std::string_view name,
               MetricUnit unit = MetricUnit::kCount);
  Histogram& histogram(std::string_view scope, std::string_view name,
                       MetricUnit unit = MetricUnit::kCount);

  /// Registered paths with kind/unit, sorted by path — the machine
  /// half of the docs/METRICS.md inventory check.
  struct Info {
    std::string path;
    MetricKind kind;
    MetricUnit unit;
  };
  std::vector<Info> inventory() const;

  /// Sorted value copy; empty while disabled. A counter's value is
  /// the sum of its live bound fields and of every folded binding.
  MetricsSnapshot snapshot() const;

 private:
  friend class CounterExports;
  struct Entry {
    MetricKind kind;
    MetricUnit unit;
    std::size_t index;  // into folded_ or the kind-specific deque
  };
  /// A field bound to counter `counter`; `prev` is the row the same
  /// CounterExports bound before it (kNoRow ends the chain).
  struct Binding {
    const std::uint64_t* field;  // nullptr once folded
    std::uint32_t counter;
    std::uint32_t prev;
  };
  static constexpr std::uint32_t kNoRow = ~std::uint32_t{0};

  Entry& lookup(std::string_view scope, std::string_view name,
                MetricKind kind, MetricUnit unit);
  /// Appends a binding row chained to `prev`; returns its index.
  std::uint32_t bind(std::string_view scope, std::string_view name,
                     MetricUnit unit, const std::uint64_t* field,
                     std::uint32_t prev);
  /// Folds the chain ending at `last` into folded_.
  void fold(std::uint32_t last);

  bool enabled_ = false;
  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<std::uint64_t> folded_;  // per counter: destroyed bindings
  std::deque<Binding> bindings_;
  // Deques: stable addresses as instruments are added.
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

/// One component's exported counters. Each `counter()` call binds one
/// of the component's own fields to `<scope>/<name>`; the field keeps
/// counting whether or not the registry is enabled. Destruction folds
/// the fields' final values into the registry, so a component that
/// dies before the snapshot still counts. Declare the exports after
/// the fields they bind, so the fold reads live members.
class CounterExports {
 public:
  explicit CounterExports(MetricsRegistry& m) : m_(m) {}
  ~CounterExports() { m_.fold(last_); }
  CounterExports(const CounterExports&) = delete;
  CounterExports& operator=(const CounterExports&) = delete;

  void counter(std::string_view scope, std::string_view name,
               MetricUnit unit, const std::uint64_t* field) {
    last_ = m_.bind(scope, name, unit, field, last_);
  }

 private:
  MetricsRegistry& m_;
  // Newest binding row; each row chains to the one bound before it.
  std::uint32_t last_ = MetricsRegistry::kNoRow;
};

/// Process-wide sink for cross-simulator aggregation (bench --metrics).
/// Inactive by default; when active, core::Testbed enables each new
/// simulator's registry and absorbs its snapshot on teardown.
class MetricsAggregator {
 public:
  static MetricsAggregator& global();

  void activate();
  bool active() const;
  void absorb(const MetricsSnapshot& snap);
  MetricsSnapshot merged() const;
  void reset();  // deactivate and drop accumulated rows (tests)

 private:
  mutable std::mutex mu_;
  bool active_ = false;
  MetricsSnapshot merged_;
};

}  // namespace ibwan::sim
