// The experiment testbed: the paper's two clusters joined by an Obsidian
// Longbow XR pair (Figure 2), with the delay knob exposed in both
// microseconds and kilometres.
#pragma once

#include <algorithm>
#include <memory>

#include "core/calibration.hpp"
#include "core/parallel.hpp"
#include "core/seed.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"

namespace ibwan::core {

/// Owns a fresh Simulator and Fabric per measurement (experiments are
/// independent runs, as on real hardware after a reboot).
///
/// When the process-wide MetricsAggregator is active (a bench ran with
/// --metrics), each testbed enables its simulator's registry up front
/// and folds the final snapshot into the aggregator on teardown, so a
/// sweep's merged export covers every grid point.
/// Per-testbed construction knobs. The harness in src/check/ builds
/// many testbeds with scenario-local fault plans and metrics, so the
/// process-global channels (bench --faults / --metrics) are optional
/// here: an explicit `faults` plan takes precedence over the global
/// one, and `metrics` force-enables the registry without requiring an
/// active aggregator.
struct TestbedOptions {
  int nodes_a = 1;
  int nodes_b = 1;
  /// N-site topology graph (DESIGN.md §15). When set it overrides
  /// nodes_a/nodes_b entirely — the fabric is built from this graph —
  /// and a parallel run gets one LP per site of this graph instead of
  /// 2. Must outlive the Testbed.
  const net::TopologyConfig* topology = nullptr;
  sim::Duration wan_delay = 0;
  std::uint64_t seed = default_seed();
  /// Fault plan for the WAN links; nullptr falls back to the global
  /// plan (bench --faults). Must outlive the Testbed.
  const net::FaultPlanConfig* faults = nullptr;
  /// Enable this simulator's MetricsRegistry even when no process-wide
  /// aggregator is active (read the snapshot via sim().metrics()).
  bool metrics = false;
  /// Logical processes for site-parallel execution (DESIGN.md §13):
  /// 0 falls back to the process-wide knob (core::par_sites, bench
  /// --par-sites), 1 forces the sequential engine, any larger value
  /// partitions fully — one LP per topology site (2 for the classic
  /// two-cluster testbed), since a partial partition cannot preserve
  /// byte-identity. IBWAN_THREADS=1 always collapses to 1 (the
  /// differential oracle); either way the outputs are byte-identical.
  int par_sites = 0;
};

class Testbed {
 public:
  explicit Testbed(int nodes_per_cluster = 1,
                   sim::Duration wan_delay = 0,
                   std::uint64_t seed = default_seed())
      : Testbed(nodes_per_cluster, nodes_per_cluster, wan_delay, seed) {}

  Testbed(int nodes_a, int nodes_b, sim::Duration wan_delay,
          std::uint64_t seed = default_seed())
      : Testbed(TestbedOptions{.nodes_a = nodes_a,
                               .nodes_b = nodes_b,
                               .wan_delay = wan_delay,
                               .seed = seed}) {}

  explicit Testbed(const TestbedOptions& opt)
      : engine_(effective_sites(opt), pdes_threads()),
        fabric_(opt.topology != nullptr
                    ? std::make_unique<net::Fabric>(engine_, *opt.topology)
                    : std::make_unique<net::Fabric>(
                          engine_,
                          fabric_defaults(opt.nodes_a, opt.nodes_b))) {
    engine_.seed(opt.seed);
    fabric_->set_wan_delay(opt.wan_delay);
    // A fault plan (per-testbed, else the process-wide bench --faults
    // one) attaches to every WAN edge; seeding first keeps the fault
    // RNG streams (keyed by per-edge link names) tied to this run's
    // seed.
    const net::FaultPlanConfig* fp =
        opt.faults != nullptr ? opt.faults : net::global_fault_plan();
    if (fp != nullptr) {
      for (int e = 0; e < fabric_->wan_edge_count(); ++e) {
        fabric_->wan_pair(e).apply_faults(*fp);
      }
    }
    if (opt.metrics || sim::MetricsAggregator::global().active()) {
      for (int i = 0; i < engine_.sites(); ++i) {
        engine_.site(i).metrics().set_enabled(true);
      }
    }
  }

  ~Testbed() {
    auto& agg = sim::MetricsAggregator::global();
    if (!agg.active()) return;
    // Instrument scopes are per-instance names, so per-site snapshots
    // cover disjoint path sets and the merged export is byte-identical
    // to a sequential run's single-registry snapshot.
    for (int i = 0; i < engine_.sites(); ++i) {
      agg.absorb(engine_.site(i).metrics().snapshot());
    }
  }

  /// Site 0's simulator (the only one when running sequentially).
  /// Partition-sensitive code should use sim_a()/sim_b()/sim_for().
  sim::Simulator& sim() { return fabric_->sim(); }
  net::Fabric& fabric() { return *fabric_; }
  sim::SiteEngine& engine() { return engine_; }

  sim::Simulator& sim_a() { return fabric_->sim_of(net::Cluster::kA); }
  sim::Simulator& sim_b() { return fabric_->sim_of(net::Cluster::kB); }
  sim::Simulator& sim_for(net::NodeId id) { return fabric_->sim_of_node(id); }

  /// Runs the simulation to drain (all sites, all channels).
  void run() { fabric_->run_all(); }
  /// Simulated end time after run(): max over site clocks, equal to the
  /// sequential run's final now().
  sim::Time now() const { return fabric_->max_now(); }

  /// Merged metrics across sites (equals sim().metrics().snapshot()
  /// when sequential).
  sim::MetricsSnapshot metrics_snapshot() {
    sim::MetricsSnapshot snap = engine_.site(0).metrics().snapshot();
    for (int i = 1; i < engine_.sites(); ++i) {
      snap.merge(engine_.site(i).metrics().snapshot());
    }
    return snap;
  }

  void set_wan_delay(sim::Duration d) { fabric_->set_wan_delay(d); }
  void set_distance_km(double km) { fabric_->set_wan_delay(delay_for_km(km)); }
  sim::Duration wan_delay() const { return fabric_->wan_delay(); }

  /// First host of cluster A / cluster B (the WAN-facing test nodes).
  net::NodeId node_a(int i = 0) {
    return fabric_->node_id(net::Cluster::kA, i);
  }
  net::NodeId node_b(int i = 0) {
    return fabric_->node_id(net::Cluster::kB, i);
  }
  /// First host of an arbitrary topology site.
  net::NodeId node_at(int site, int i = 0) {
    return fabric_->node_id(site, i);
  }

 private:
  /// Sites actually constructed: any parallel request partitions fully
  /// (one LP per topology site — the only partition that preserves
  /// byte-identity, see Fabric), with IBWAN_THREADS=1 forcing the
  /// sequential oracle.
  static int effective_sites(const TestbedOptions& opt) {
    int req = opt.par_sites > 0 ? opt.par_sites : par_sites();
    const int max_sites =
        opt.topology != nullptr
            ? static_cast<int>(opt.topology->sites.size())
            : 2;  // the classic testbed is one LP per cluster
    if (req > 1) req = max_sites;
    if (req > 1 && pdes_threads() == 1) req = 1;
    // A back-to-back fabric has no WAN to partition at (the fabric
    // would fall back anyway; keep the engine in sync).
    if (opt.topology != nullptr && opt.topology->back_to_back) req = 1;
    return req < 1 ? 1 : req;
  }

  sim::SiteEngine engine_;
  std::unique_ptr<net::Fabric> fabric_;
};

}  // namespace ibwan::core
