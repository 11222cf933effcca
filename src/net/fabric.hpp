// Topology-graph fabric builder (DESIGN.md §15).
//
// A Fabric realizes a TopologyConfig: N sites (DDR stars or small
// fat-trees around their switches) joined by a WAN graph of Obsidian
// Longbow pairs, with per-destination static routes computed at build
// time by a shortest-path pass over the WAN graph. The paper's testbed
// (Figure 2) — two clusters and one Longbow pair — is the two-site
// special case, kept available through the FabricConfig wrapper below;
// a back-to-back mode (two hosts, one cable) provides the Figure 3
// baseline.
//
// Node ids are assigned site-major: site 0 gets 0..n0-1, site 1 the
// next n1 ids, and so on. Ids double as IB LIDs.
#pragma once

#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "net/wan.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace ibwan::net {

/// Two-site compatibility view: site 0 is cluster A, every other site
/// is cluster B. The MPI layer and the original benches address the
/// paper's testbed through this enum.
enum class Cluster { kA, kB };

/// The classic two-cluster description (Figure 2), now a thin wrapper:
/// the fabric converts it to a two-site TopologyConfig and builds
/// through the same graph path, producing byte-identical wiring,
/// instrument names, and event order.
struct FabricConfig {
  int nodes_a = 2;
  int nodes_b = 2;
  /// Host and switch link data rate, bytes/ns (IB DDR payload = 2.0).
  double lan_rate = 2.0;
  /// Host-to-switch cable propagation.
  sim::Duration host_link_prop = 100;
  /// Switch cut-through latency per hop.
  sim::Duration switch_latency = 200;
  /// Back-to-back mode: exactly two nodes and one cable, no switches or
  /// Longbows (latency baseline).
  bool back_to_back = false;
  LongbowPair::Config longbow{};
};

/// The two-site TopologyConfig a FabricConfig denotes.
TopologyConfig to_topology(const FabricConfig& config);

class Fabric {
 public:
  Fabric(sim::Simulator& sim, const FabricConfig& config);
  Fabric(sim::Simulator& sim, const TopologyConfig& topo);

  /// Site-partitioned construction (DESIGN.md §13): each topology site
  /// becomes a logical process and every WAN edge gets a pair of
  /// channels (one per direction). The conservative lookahead is the
  /// minimum one-way latency any cross-LP WAN edge can impose. The
  /// partition must be exact — one engine site per topology site.
  /// Configs the partition cannot support — a mismatched engine size or
  /// back-to-back — land entirely on engine site 0 and run_all()
  /// degenerates to the sequential path. Flat WAN loss partitions like
  /// any other config: each link draws from its own `<link>/loss`
  /// stream.
  Fabric(sim::SiteEngine& engine, const FabricConfig& config);
  Fabric(sim::SiteEngine& engine, const TopologyConfig& topo);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  int node_count() const { return static_cast<int>(nodes_.size()); }
  Node& node(NodeId id) { return *nodes_.at(id); }

  // --- Topology-graph view ------------------------------------------

  const TopologyConfig& topology() const { return topo_; }
  int site_count() const { return static_cast<int>(topo_.sites.size()); }
  int site_of(NodeId id) const;
  /// Node id for the i-th host of a site.
  NodeId node_id(int site, int index) const;
  /// WAN edges crossed on the routed path between two sites; -1 when
  /// unreachable, 0 for the same site.
  int wan_hops(int site_a, int site_b) const;

  int wan_edge_count() const { return static_cast<int>(wan_pairs_.size()); }
  /// The Longbow pair realizing WAN edge e (TopologyConfig::wan order).
  LongbowPair& wan_pair(int e) { return *wan_pairs_.at(std::size_t(e)); }
  /// A site's WAN-facing switch (the spine in a fat-tree site).
  Switch& site_switch(int site) { return *wan_switch_.at(std::size_t(site)); }

  // --- Two-site compatibility view ----------------------------------

  /// Node id for the i-th host of a cluster.
  NodeId node_id(Cluster c, int index) const {
    return node_id(c == Cluster::kA ? 0 : 1, index);
  }
  Cluster cluster_of(NodeId id) const {
    return site_of(id) == 0 ? Cluster::kA : Cluster::kB;
  }

  /// True when src→dst traffic crosses any WAN link.
  bool crosses_wan(NodeId src, NodeId dst) const {
    return !topo_.back_to_back && site_of(src) != site_of(dst);
  }

  /// Distance-emulation knob: applies to every WAN edge (no-op in
  /// back-to-back mode). The per-edge overload emulates asymmetric
  /// distances.
  void set_wan_delay(sim::Duration oneway);
  void set_wan_delay(int edge, sim::Duration oneway);
  sim::Duration wan_delay() const;

  /// First WAN pair — the only one in two-site fabrics; nullptr in
  /// back-to-back mode. Multi-edge topologies use wan_pair(e).
  LongbowPair* longbows() {
    return wan_pairs_.empty() ? nullptr : wan_pairs_.front().get();
  }
  /// Site 0's simulator (the only one in sequential mode). Prefer
  /// sim_of_site()/node().sim() in code that must be partition-correct.
  sim::Simulator& sim() { return sim_; }

  /// The simulator a site's components live on. Same object for every
  /// site unless the fabric was built partitioned.
  sim::Simulator& sim_of_site(int site) {
    return *site_sims_.at(std::size_t(site));
  }
  sim::Simulator& sim_of(Cluster c) {
    return sim_of_site(c == Cluster::kA ? 0 : (site_count() > 1 ? 1 : 0));
  }
  sim::Simulator& sim_of_node(NodeId id) { return sim_of_site(site_of(id)); }

  /// True when at least two sites run as separate logical processes.
  bool partitioned() const;
  sim::SiteEngine* engine() { return engine_; }

  /// Drives the whole simulation to drain: the engine's windowed loop
  /// when partitioned, plain Simulator::run() otherwise.
  void run_all();

  /// Max over site clocks — equals sim().now() in sequential mode and
  /// the sequential run's final clock in partitioned mode.
  sim::Time max_now() const;

 private:
  void init_sites(bool partitionable_now);
  void build_back_to_back();
  void build_topology();
  void update_lookahead();
  Link* make_link(sim::Simulator& sim, const Link::Config& cfg,
                  std::string name);

  sim::SiteEngine* engine_ = nullptr;
  sim::Simulator& sim_;  // site 0
  TopologyConfig topo_;
  WanRoutes routes_;
  std::vector<int> site_base_;  // first node id per site, total appended
  std::vector<int> site_lp_;    // engine site per topology site
  std::vector<sim::Simulator*> site_sims_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<Switch*> wan_switch_;
  std::vector<std::unique_ptr<LongbowPair>> wan_pairs_;
  /// Egress port on site_switch(site) toward each incident WAN edge.
  std::vector<std::vector<std::pair<int, int>>> wan_ports_;  // (edge, port)
};

}  // namespace ibwan::net
