// Shared bench scaffolding: the paper's delay grid, scaling control,
// CSV output location, and the threaded sweep runner.
//
// Each bench binary regenerates one table or figure of the paper. By
// default the per-point transfer volumes are sized for quick runs;
// setting IBWAN_FULL=1 in the environment multiplies the measured
// volume (more iterations, tighter statistics, same shapes).
//
// Sweeps fan out across a thread pool (SweepRunner). Every grid point
// owns its own Simulator seeded identically to a serial run, and rows
// are merged back in grid order, so the CSVs are bit-for-bit identical
// at any thread count — threading only changes wall-clock time. Set
// IBWAN_THREADS to override the pool size (IBWAN_THREADS=1 forces a
// serial sweep).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "check/oracles.hpp"
#include "check/selfcheck.hpp"
#include "core/calibration.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/seed.hpp"
#include "net/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"

namespace ibwan::bench {

namespace detail {
/// Destination of the merged metrics export; empty when --metrics was
/// not given.
inline std::string g_metrics_path;  // NOLINT: bench-process singleton
/// --selfcheck: run the analytic-oracle audit alongside the measurement.
inline bool g_selfcheck = false;  // NOLINT: bench-process singleton
}  // namespace detail

/// Bench entry hook: parses `--metrics <out.json>` (or
/// `--metrics=<out.json>`). When present, activates the process-wide
/// MetricsAggregator — every core::Testbed built afterwards enables its
/// registry and feeds the aggregator on teardown — and arranges for the
/// merged "ibwan.metrics.v1" JSON document to be written at exit.
/// Without the flag this is a no-op and the bench output (including the
/// CSV bytes) is identical to a build without metrics at all.
///
/// Also parses `--faults <plan.json>` (or `--faults=<plan.json>`): the
/// fault plan (see src/net/faults.hpp for the format) is installed
/// process-wide, and every Testbed built afterwards attaches it to its
/// WAN links. The plan is set once before any sweep worker starts and
/// is read-only thereafter, so threaded sweeps stay deterministic.
///
/// Any other argument, or one of these flags without its value, exits
/// 2 with a message before anything runs.
inline void init(int argc, char** argv) {
  // IBWAN_SEED=N re-runs the whole bench under a different master seed
  // (default 42, the seed the committed CSVs were generated with).
  // Read once here, before any Testbed or sweep worker exists, so the
  // override is part of the declared run input. (getenv is legal in
  // bench::init by DET001's allowlist — this is where env knobs live.)
  if (const char* env = std::getenv("IBWAN_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0') {
      std::fprintf(stderr, "bad IBWAN_SEED '%s': not an integer\n", env);
      std::exit(2);
    }
    core::set_default_seed(v);
    if (v != 42) std::printf("  [seed: %llu]\n", v);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Reads the value of `--name <v>` or `--name=<v>` into `out`. A
    // flag without a value is a usage error: running on without it
    // would, for a trailing --faults, silently measure a fault-free run.
    const auto flag = [&](std::string_view name, std::string* out) {
      if (arg == name && i + 1 < argc) {
        *out = argv[++i];
      } else if (arg.rfind(name, 0) == 0 && arg.size() > name.size() &&
                 arg[name.size()] == '=') {
        *out = std::string(arg.substr(name.size() + 1));
      } else if (arg != name) {
        return false;
      }
      if (out->empty()) {
        std::fprintf(stderr, "%.*s needs a value\n",
                     static_cast<int>(name.size()), name.data());
        std::exit(2);
      }
      return true;
    };
    std::string value;
    // --par-sites N requests site-parallel execution (one logical
    // process per topology site, DESIGN.md §13). The knob is a pure
    // wall-clock optimization: every CSV and metrics byte is identical
    // to the sequential run.
    if (flag("--par-sites", &value)) {
      const int n = std::atoi(value.c_str());
      if (n < 1) {
        std::fprintf(stderr, "bad --par-sites '%s': want >= 1\n",
                     value.c_str());
        std::exit(2);
      }
      core::set_par_sites(n);
      continue;
    }
    if (arg == "--selfcheck") {
      detail::g_selfcheck = true;
      // The conservation audit in selfcheck_exit() reads the merged
      // end-of-run snapshot, so every testbed must feed the aggregator
      // (no JSON is written unless --metrics also asked for one).
      sim::MetricsAggregator::global().activate();
      std::printf("  [selfcheck: on]\n");
      continue;
    }
    if (flag("--faults", &value)) {
      net::FaultPlanConfig plan;
      std::string err;
      if (!net::load_fault_plan(value, &plan, &err)) {
        std::fprintf(stderr, "bad fault plan %s: %s\n", value.c_str(),
                     err.c_str());
        std::exit(2);
      }
      net::set_global_fault_plan(plan);
      std::printf("  [faults: %s]\n", value.c_str());
      continue;
    }
    if (!flag("--metrics", &value)) {
      std::fprintf(stderr,
                   "unknown argument '%s' (accepted: --metrics <out.json>, "
                   "--faults <plan.json>, --par-sites <n>, --selfcheck)\n",
                   argv[i]);
      std::exit(2);
    }
    detail::g_metrics_path = value;
    sim::MetricsAggregator::global().activate();
    std::atexit([] {
      const sim::MetricsSnapshot snap =
          sim::MetricsAggregator::global().merged();
      if (snap.write_json(detail::g_metrics_path)) {
        std::printf("  [metrics: %s]\n", detail::g_metrics_path.c_str());
      } else {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     detail::g_metrics_path.c_str());
      }
    });
  }
  if (core::par_sites() > 1) {
    std::printf("  [par-sites: %d]\n", core::par_sites());
  }
}

/// The emulated one-way delays the paper sweeps (Table 1 distances).
inline std::vector<sim::Duration> delay_grid() {
  return {0, 10'000, 100'000, 1'000'000, 10'000'000};
}

inline std::string delay_label(sim::Duration d) {
  if (d == 0) return "no-delay";
  return std::to_string(d / 1000) + "us-delay";
}

/// Volume multiplier: 1 for quick runs, larger with IBWAN_FULL=1.
inline int scale() {
  // NOLINT-IBWAN(DET001): explicit user knob, read once before sweeps start
  const char* full = std::getenv("IBWAN_FULL");
  return (full != nullptr && full[0] == '1') ? 8 : 1;
}

/// One (series, x, y) measurement produced inside a sweep worker.
struct Row {
  std::string series;
  double x;
  double y;
};
using Rows = std::vector<Row>;

/// Fans independent measurement points across a std::thread pool.
///
/// Determinism: workers never touch shared state — each point builds its
/// own Testbed/Simulator — and map() stores result i in slot i, so the
/// merged output is identical to a serial run regardless of thread count
/// or completion order.
class SweepRunner {
 public:
  explicit SweepRunner(int threads = default_threads()) : threads_(threads) {}

  /// Pool size: IBWAN_THREADS if set, else hardware concurrency. It
  /// never affects CSV bytes: rows merge in grid order.
  static int default_threads() {
    if (const int n = core::pdes_threads(); n > 0) return n;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? static_cast<int>(hw) : 1;
  }

  /// Runs fn(i) for each i in [0, n), distributing i across the pool.
  template <class Fn>
  void for_each(std::size_t n, Fn&& fn) const {
    const std::size_t workers =
        std::min<std::size_t>(static_cast<std::size_t>(threads_), n);
    if (workers <= 1) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    std::atomic<std::size_t> next{0};
    auto work = [&] {
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        fn(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(work);
    work();
    for (auto& th : pool) th.join();
  }

  /// Maps points to fn(point) concurrently, preserving input order.
  template <class T, class Fn>
  auto map(const std::vector<T>& points, Fn&& fn) const {
    using R = std::invoke_result_t<Fn&, const T&>;
    std::vector<R> out(points.size());
    for_each(points.size(), [&](std::size_t i) { out[i] = fn(points[i]); });
    return out;
  }

 private:
  int threads_;
};

/// A (delay, seed) sweep point for multi-seed repetitions of the grid.
struct SweepPoint {
  sim::Duration delay;
  std::uint64_t seed;
};

/// The delay grid crossed with `seeds` repetition seeds counting up
/// from the master seed (42, 43, ... by default; IBWAN_SEED shifts the
/// base), delay-major so merged output groups repetitions per delay.
inline std::vector<SweepPoint> delay_seed_grid(
    int seeds = 1, std::uint64_t first_seed = core::default_seed()) {
  std::vector<SweepPoint> points;
  for (sim::Duration d : delay_grid()) {
    for (int s = 0; s < seeds; ++s) {
      points.push_back({d, first_seed + static_cast<std::uint64_t>(s)});
    }
  }
  return points;
}

/// Appends per-point row batches to `table` in grid order.
inline void add_rows(core::Table& table, const std::vector<Rows>& per_point) {
  for (const auto& rows : per_point) {
    for (const auto& r : rows) table.add(r.series, r.x, r.y);
  }
}

/// Maps each point to a Rows batch on the pool, then fills the table in
/// deterministic grid order.
template <class T, class Fn>
void sweep_into(core::Table& table, const std::vector<T>& points, Fn&& fn) {
  SweepRunner runner;
  add_rows(table, runner.map(points, std::forward<Fn>(fn)));
}

/// True when the bench ran with --selfcheck; per-figure oracle blocks
/// gate on this (and usually on no --faults plan being active, since
/// value oracles assume clean runs).
inline bool selfcheck_enabled() { return detail::g_selfcheck; }

/// Writes the CSV next to the binary's working directory. Under
/// --selfcheck every emitted point is also audited for the generic
/// invariants no figure may violate: finite, non-negative values.
inline void finish(core::Table& table, const std::string& csv_name) {
  table.print();
  const std::string path = csv_name + ".csv";
  if (table.write_csv(path)) {
    std::printf("  [csv: %s]\n", path.c_str());
  }
  if (!detail::g_selfcheck) return;
  auto& report = check::selfcheck_report();
  for (const auto& s : table.all_series()) {
    for (const auto& [x, y] : s.points) {
      report.expect_true(
          "table-sane", csv_name + " " + s.name + " x=" + std::to_string(x),
          std::isfinite(y) && y >= 0.0, "y=" + std::to_string(y));
    }
  }
}

/// Bench epilogue under --selfcheck: folds the conservation audit over
/// the merged metrics snapshot into the process report, prints the
/// verdict, and returns the bench's exit code (1 on any failed check).
/// A no-op returning 0 when --selfcheck was not given.
inline int selfcheck_exit() {
  if (!detail::g_selfcheck) return 0;
  auto& report = check::selfcheck_report();
  // Link conservation is exact even under a fault plan (drops are
  // accounted); exact WQE accounting is not (error flushes race the
  // snapshot against retransmit state), so it stays one-sided here.
  check::ConservationOptions copt;
  check::check_conservation(report, "merged",
                            sim::MetricsAggregator::global().merged(), copt);
  std::printf("  [selfcheck] %s\n", report.summary().c_str());
  if (!report.ok()) {
    std::fputs(report.failure_log().c_str(), stderr);
    return 1;
  }
  return 0;
}

}  // namespace ibwan::bench
