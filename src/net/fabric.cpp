#include "net/fabric.hpp"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace ibwan::net {

namespace {

bool partitionable(const sim::SiteEngine& engine, const TopologyConfig& topo) {
  if (!engine.parallel() || topo.back_to_back) return false;
  // The partition is exactly one logical process per topology site. A
  // smaller engine would have to co-locate sites, and a co-located
  // site's WAN deliveries are ordinary local events — at a same-instant
  // arrival tie with a channel merge they would fire in slot order, not
  // the sequential engine's schedule order, breaking byte-identity.
  return engine.sites() == static_cast<int>(topo.sites.size());
}

std::string site_letter(int site) {
  if (site < 26) return std::string(1, static_cast<char>('a' + site));
  // Not `"s" + std::to_string(site)`: GCC 12 flags that inlined
  // insert with a false-positive -Wrestrict, which breaks -Werror builds.
  return std::string("s").append(std::to_string(site));
}

void check_topology(const TopologyConfig& topo) {
  const std::string err = validate_topology(topo);
  if (!err.empty()) {
    std::fprintf(stderr, "Fabric: %s\n", err.c_str());
    std::abort();
  }
}

}  // namespace

TopologyConfig to_topology(const FabricConfig& config) {
  TopologyConfig topo;
  topo.sites = {SiteConfig{.nodes = config.nodes_a},
                SiteConfig{.nodes = config.nodes_b}};
  if (!config.back_to_back) {
    topo.wan = {
        WanEdgeConfig{.site_a = 0, .site_b = 1, .longbow = config.longbow}};
  }
  topo.lan_rate = config.lan_rate;
  topo.host_link_prop = config.host_link_prop;
  topo.switch_latency = config.switch_latency;
  topo.back_to_back = config.back_to_back;
  return topo;
}

Fabric::Fabric(sim::Simulator& sim, const FabricConfig& config)
    : Fabric(sim, to_topology(config)) {}

Fabric::Fabric(sim::SiteEngine& engine, const FabricConfig& config)
    : Fabric(engine, to_topology(config)) {}

Fabric::Fabric(sim::Simulator& sim, const TopologyConfig& topo)
    : sim_(sim), topo_(topo) {
  check_topology(topo_);
  init_sites(false);
  routes_ = compute_wan_routes(topo_);
  if (topo_.back_to_back) {
    build_back_to_back();
  } else {
    build_topology();
  }
}

Fabric::Fabric(sim::SiteEngine& engine, const TopologyConfig& topo)
    : engine_(&engine), sim_(engine.site(0)), topo_(topo) {
  check_topology(topo_);
  init_sites(partitionable(engine, topo_));
  routes_ = compute_wan_routes(topo_);
  if (topo_.back_to_back) {
    build_back_to_back();
    return;
  }
  build_topology();
  if (partitioned()) {
    // WAN edges crossing LP boundaries deliver via engine channels, and
    // the safe horizon derives from the minimum one-way latency any of
    // those links can impose.
    for (std::size_t e = 0; e < wan_pairs_.size(); ++e) {
      const WanEdgeConfig& we = topo_.wan[e];
      const int lx = site_lp_[std::size_t(we.site_a)];
      const int ly = site_lp_[std::size_t(we.site_b)];
      if (lx == ly) continue;
      wan_pairs_[e]->wan_link_a_to_b().set_channel(
          &engine_->make_channel(lx, ly));
      wan_pairs_[e]->wan_link_b_to_a().set_channel(
          &engine_->make_channel(ly, lx));
    }
    update_lookahead();
  }
}

void Fabric::init_sites(bool partitionable_now) {
  const int n = site_count();
  site_base_.assign(std::size_t(n) + 1, 0);
  for (int s = 0; s < n; ++s) {
    site_base_[std::size_t(s) + 1] =
        site_base_[std::size_t(s)] + topo_.sites[std::size_t(s)].nodes;
  }
  site_lp_.assign(std::size_t(n), 0);
  site_sims_.assign(std::size_t(n), &sim_);
  if (partitionable_now) {
    // One logical process per site (partitionable() guarantees the
    // engine matches the topology exactly).
    for (int s = 0; s < n; ++s) {
      site_lp_[std::size_t(s)] = s;
      site_sims_[std::size_t(s)] = &engine_->site(s);
    }
  }
}

bool Fabric::partitioned() const {
  for (sim::Simulator* s : site_sims_) {
    if (s != site_sims_.front()) return true;
  }
  return false;
}

void Fabric::run_all() {
  if (engine_ != nullptr && partitioned()) {
    engine_->run();
  } else {
    sim_.run();
  }
}

sim::Time Fabric::max_now() const {
  if (engine_ != nullptr) return engine_->now();
  return sim_.now();
}

int Fabric::site_of(NodeId id) const {
  const int n = site_count();
  for (int s = 0; s + 1 < n; ++s) {
    if (static_cast<int>(id) < site_base_[std::size_t(s) + 1]) return s;
  }
  return n - 1;
}

NodeId Fabric::node_id(int site, int index) const {
  assert(site >= 0 && site < site_count());
  assert(index >= 0 && index < topo_.sites[std::size_t(site)].nodes);
  return static_cast<NodeId>(site_base_[std::size_t(site)] + index);
}

int Fabric::wan_hops(int site_a, int site_b) const {
  if (site_a == site_b) return 0;
  return routes_.hops[std::size_t(site_a)][std::size_t(site_b)];
}

void Fabric::set_wan_delay(sim::Duration oneway) {
  for (auto& pair : wan_pairs_) pair->set_oneway_delay(oneway);
  if (partitioned()) update_lookahead();
}

void Fabric::set_wan_delay(int edge, sim::Duration oneway) {
  wan_pairs_.at(std::size_t(edge))->set_oneway_delay(oneway);
  if (partitioned()) update_lookahead();
}

sim::Duration Fabric::wan_delay() const {
  return wan_pairs_.empty() ? 0 : wan_pairs_.front()->oneway_delay();
}

void Fabric::update_lookahead() {
  // The emulated distance raises the minimum cross-site latency, so the
  // conservative horizon may stretch with it: lookahead is the smallest
  // cross-LP WAN edge's propagation plus its emulated one-way delay
  // (jitter only ever adds on top).
  sim::Duration min_l = 0;
  bool any = false;
  for (std::size_t e = 0; e < wan_pairs_.size(); ++e) {
    const WanEdgeConfig& we = topo_.wan[e];
    if (site_lp_[std::size_t(we.site_a)] == site_lp_[std::size_t(we.site_b)]) {
      continue;
    }
    const sim::Duration l =
        we.longbow.base_propagation + wan_pairs_[e]->oneway_delay();
    if (!any || l < min_l) {
      min_l = l;
      any = true;
    }
  }
  if (any) engine_->set_lookahead(min_l);
}

Link* Fabric::make_link(sim::Simulator& sim, const Link::Config& cfg,
                        std::string name) {
  links_.push_back(std::make_unique<Link>(sim, cfg, std::move(name)));
  return links_.back().get();
}

void Fabric::build_back_to_back() {
  nodes_.push_back(std::make_unique<Node>(sim_, 0));
  nodes_.push_back(std::make_unique<Node>(sim_, 1));
  const Link::Config cable{.bytes_per_ns = topo_.lan_rate,
                           .propagation = topo_.host_link_prop};
  Link* a2b = make_link(sim_, cable, "cable-0to1");
  Link* b2a = make_link(sim_, cable, "cable-1to0");
  a2b->set_sink([this](Packet&& p) { nodes_[1]->deliver(std::move(p)); });
  b2a->set_sink([this](Packet&& p) { nodes_[0]->deliver(std::move(p)); });
  nodes_[0]->attach_uplink(a2b);
  nodes_[1]->attach_uplink(b2a);
}

void Fabric::build_topology() {
  // Everything site-local — hosts, star links, switches, Longbow
  // routers, and outbound WAN links — is built on that site's simulator
  // (all sites share one in sequential mode).
  const int n_sites = site_count();
  const int total = site_base_[std::size_t(n_sites)];

  // WAN degree decides Longbow naming and default routes.
  std::vector<int> degree(std::size_t(n_sites), 0);
  for (const WanEdgeConfig& e : topo_.wan) {
    ++degree[std::size_t(e.site_a)];
    ++degree[std::size_t(e.site_b)];
  }

  for (int i = 0; i < total; ++i) {
    const auto id = static_cast<NodeId>(i);
    nodes_.push_back(std::make_unique<Node>(sim_of_node(id), id));
  }

  // Per-site switches: one star switch, or leaves plus a spine for
  // fat-tree sites. The spine (or the star switch) faces the WAN.
  std::vector<std::vector<Switch*>> leaves;
  leaves.resize(std::size_t(n_sites));
  wan_switch_.assign(std::size_t(n_sites), nullptr);
  for (int s = 0; s < n_sites; ++s) {
    const std::string ls = site_letter(s);
    const int nl = topo_.sites[std::size_t(s)].leaf_switches;
    if (nl <= 1) {
      switches_.push_back(std::make_unique<Switch>(
          sim_of_site(s), "switch-" + ls, topo_.switch_latency));
      wan_switch_[std::size_t(s)] = switches_.back().get();
      continue;
    }
    for (int k = 0; k < nl; ++k) {
      switches_.push_back(std::make_unique<Switch>(
          sim_of_site(s), "switch-" + ls + "-leaf" + std::to_string(k),
          topo_.switch_latency));
      leaves[std::size_t(s)].push_back(switches_.back().get());
    }
    switches_.push_back(std::make_unique<Switch>(
        sim_of_site(s), "switch-" + ls + "-spine", topo_.switch_latency));
    wan_switch_[std::size_t(s)] = switches_.back().get();
  }

  const Link::Config host_link{.bytes_per_ns = topo_.lan_rate,
                               .propagation = topo_.host_link_prop};

  // Host <-> attachment-switch star, all hosts in id order. Fat-tree
  // hosts round-robin across their site's leaves.
  for (int i = 0; i < total; ++i) {
    Node* n = nodes_[std::size_t(i)].get();
    const int s = site_of(static_cast<NodeId>(i));
    const auto& site_leaves = leaves[std::size_t(s)];
    Switch* sw =
        site_leaves.empty()
            ? wan_switch_[std::size_t(s)]
            : site_leaves[std::size_t(i - site_base_[std::size_t(s)]) %
                          site_leaves.size()];
    sim::Simulator& site = sim_of_site(s);
    const std::string tag = "host" + std::to_string(i);
    Link* up = make_link(site, host_link, tag + "-up");
    Link* down = make_link(site, host_link, tag + "-down");
    up->set_sink([sw](Packet&& p) { sw->receive(std::move(p)); });
    down->set_sink([n](Packet&& p) { n->deliver(std::move(p)); });
    n->attach_uplink(up);
    const int port = sw->add_port(down);
    sw->set_route(n->id(), port);
  }

  // Fat-tree sites: leaf <-> spine trunks. A leaf's default route is
  // its only uplink; the spine learns which leaf owns each local host.
  for (int s = 0; s < n_sites; ++s) {
    if (leaves[std::size_t(s)].empty()) continue;
    const std::string ls = site_letter(s);
    Switch* spine = wan_switch_[std::size_t(s)];
    std::vector<int> spine_port;
    for (std::size_t k = 0; k < leaves[std::size_t(s)].size(); ++k) {
      Switch* leaf = leaves[std::size_t(s)][k];
      const std::string kk = std::to_string(k);
      // NOLINT-IBWAN(CONC001): construction-time wiring, engine not started
      Link* up = make_link(sim_of_site(s), host_link,
                           "sw" + ls + "-leaf" + kk + "-to-spine");
      // NOLINT-IBWAN(CONC001): construction-time wiring, engine not started
      Link* down = make_link(sim_of_site(s), host_link,
                             "sw" + ls + "-spine-to-leaf" + kk);
      up->set_sink([spine](Packet&& p) { spine->receive(std::move(p)); });
      down->set_sink([leaf](Packet&& p) { leaf->receive(std::move(p)); });
      leaf->set_default_route(leaf->add_port(up));
      spine_port.push_back(spine->add_port(down));
    }
    for (int i = site_base_[std::size_t(s)]; i < site_base_[std::size_t(s) + 1];
         ++i) {
      const std::size_t local = std::size_t(i - site_base_[std::size_t(s)]);
      spine->set_route(static_cast<NodeId>(i),
                       spine_port[local % spine_port.size()]);
    }
  }

  // WAN edges, in config order: the Longbow pair, then each side's LAN
  // attachment. Tags keep the classic two-cluster names when a site has
  // a single WAN uplink ("longbow-a", "wan-a2b", "swa-to-lba", ...) and
  // append the peer's letter otherwise ("longbow-ab", "wan-ab2b", ...).
  // A degree-1 site also keeps the classic default route out its only
  // uplink; explicit per-destination routes are installed below either
  // way.
  wan_ports_.assign(std::size_t(n_sites), {});
  for (std::size_t e = 0; e < topo_.wan.size(); ++e) {
    const WanEdgeConfig& we = topo_.wan[e];
    const int x = we.site_a;
    const int y = we.site_b;
    const std::string lx = site_letter(x);
    const std::string ly = site_letter(y);
    const std::string tx = degree[std::size_t(x)] == 1 ? lx : lx + ly;
    const std::string ty = degree[std::size_t(y)] == 1 ? ly : ly + lx;
    wan_pairs_.push_back(std::make_unique<LongbowPair>(
        sim_of_site(x), sim_of_site(y), we.longbow,
        LongbowPair::Names{.side_a = "longbow-" + tx,
                           .side_b = "longbow-" + ty,
                           .wan_a2b = "wan-" + tx + "2" + ty,
                           .wan_b2a = "wan-" + ty + "2" + tx}));
    LongbowPair* pair = wan_pairs_.back().get();
    const auto attach = [&](int site, const std::string& ls,
                            const std::string& ts, Longbow* lb) {
      Switch* sw = wan_switch_[std::size_t(site)];
      Link* sw_to_lb =
          // NOLINT-IBWAN(CONC001): construction-time wiring, engine idle
          make_link(sim_of_site(site), host_link, "sw" + ls + "-to-lb" + ts);
      Link* lb_to_sw =
          // NOLINT-IBWAN(CONC001): construction-time wiring, engine idle
          make_link(sim_of_site(site), host_link, "lb" + ts + "-to-sw" + ls);
      sw_to_lb->set_sink(
          [lb](Packet&& p) { lb->receive_from_lan(std::move(p)); });
      // Switches with several WAN attachments take WAN ingress through
      // the same-instant demux (Switch::receive_wan) so cross-edge
      // arrival ties serialize in edge order under both engines. A
      // degree-1 site (every two-cluster fabric) keeps the direct path
      // and the classic event schedule.
      if (degree[std::size_t(site)] > 1) {
        const int edge_ord = static_cast<int>(e);
        lb_to_sw->set_sink([sw, edge_ord](Packet&& p) {
          sw->receive_wan(edge_ord, std::move(p));
        });
      } else {
        lb_to_sw->set_sink([sw](Packet&& p) { sw->receive(std::move(p)); });
      }
      lb->set_lan_tx(lb_to_sw);
      const int port = sw->add_port(sw_to_lb);
      if (degree[std::size_t(site)] == 1) sw->set_default_route(port);
      wan_ports_[std::size_t(site)].push_back({static_cast<int>(e), port});
    };
    attach(x, lx, tx, &pair->side_a());
    attach(y, ly, ty, &pair->side_b());
  }

  // Static remote routes: every site's WAN-facing switch learns, for
  // each remote host, the egress port toward the shortest-path edge.
  // Unreachable destinations get no route and count as no-route drops.
  for (int s = 0; s < n_sites; ++s) {
    Switch* sw = wan_switch_[std::size_t(s)];
    for (int d = 0; d < n_sites; ++d) {
      if (d == s) continue;
      const int e = routes_.next_edge[std::size_t(s)][std::size_t(d)];
      if (e < 0) continue;
      int port = -1;
      for (const auto& [edge, p] : wan_ports_[std::size_t(s)]) {
        if (edge == e) {
          port = p;
          break;
        }
      }
      assert(port >= 0 && "routed edge must be attached to the site switch");
      for (int i = site_base_[std::size_t(d)];
           i < site_base_[std::size_t(d) + 1]; ++i) {
        sw->set_route(static_cast<NodeId>(i), port);
      }
    }
  }
}

}  // namespace ibwan::net
