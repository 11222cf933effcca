// Obsidian Longbow XR model.
//
// A Longbow pair extends an InfiniBand subnet across a WAN: each router
// bridges its local (DDR) fabric onto a long-haul SDR-rate link. In the
// paper's "basic switch mode" the pair is transparent to IB except for
// added latency. The routers expose the paper's key knob: a configurable
// packet delay that emulates wire distance (5 us per km).
#pragma once

#include <memory>
#include <string>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace ibwan::net {

class FaultPlan;
struct FaultPlanConfig;

/// One Longbow router: two-port store-and-forward bridge with a fixed
/// pipeline latency per traversal.
class Longbow {
 public:
  Longbow(sim::Simulator& sim, std::string name,
          sim::Duration pipeline_latency)
      : sim_(sim),
        lane_(sim.make_lane()),
        name_(std::move(name)),
        latency_(pipeline_latency) {
    const std::string scope = name_ + "/net.wan";
    using enum sim::MetricUnit;
    exports_.counter(scope, "pkts_forwarded", kPackets, &pkts_forwarded_);
    exports_.counter(scope, "drops_no_port", kPackets, &drops_no_port_);
  }

  Longbow(const Longbow&) = delete;
  Longbow& operator=(const Longbow&) = delete;

  void set_lan_tx(Link* l) { lan_tx_ = l; }
  void set_wan_tx(Link* l) { wan_tx_ = l; }

  void receive_from_lan(Packet&& p) { forward(std::move(p), wan_tx_); }
  void receive_from_wan(Packet&& p) { forward(std::move(p), lan_tx_); }

  const std::string& name() const { return name_; }

  /// Packets that arrived for an unconnected port (misconfiguration or a
  /// chaos plan that severed the topology) — never dropped silently.
  std::uint64_t drops_no_port() const { return drops_no_port_; }

 private:
  void forward(Packet&& p, Link* out);

  sim::Simulator& sim_;
  sim::Simulator::Lane& lane_;  // fixed pipeline latency: monotone
  std::string name_;
  sim::Duration latency_;
  PacketPool pkt_pool_{64};
  Link* lan_tx_ = nullptr;
  Link* wan_tx_ = nullptr;
  // Not `forwarded_`: INV001 keys conserved counters by bare name, and
  // Switch::forwarded_ is one.
  std::uint64_t pkts_forwarded_ = 0;
  std::uint64_t drops_no_port_ = 0;
  sim::CounterExports exports_{sim_.metrics()};
};

/// The deployed unit: two Longbows and the long-haul fiber between them.
/// set_oneway_delay() is the paper's distance-emulation web knob.
class LongbowPair {
 public:
  struct Config {
    /// WAN data rate in bytes/ns; IB SDR payload rate is 8 Gb/s = 1.0.
    double wan_rate = 1.0;
    /// Fixed pipeline latency of each router.
    sim::Duration pipeline_latency = 1'700;
    /// Propagation of the physical WAN fiber at zero emulated distance.
    sim::Duration base_propagation = 500;
    /// WAN-side buffering per direction; 0 = unbounded.
    std::uint64_t buffer_bytes = 0;
    /// WAN loss probability (failure injection).
    double loss_rate = 0.0;
  };

  /// Instance names for the routers and long-haul links — metric scopes
  /// and fault RNG stream identities derive from them, so a fabric with
  /// several pairs (an N-site topology graph) must hand every pair a
  /// distinct set. The defaults are the classic two-cluster names.
  struct Names {
    std::string side_a = "longbow-a";
    std::string side_b = "longbow-b";
    std::string wan_a2b = "wan-a2b";
    std::string wan_b2a = "wan-b2a";
  };

  LongbowPair(sim::Simulator& sim, const Config& config)
      : LongbowPair(sim, sim, config) {}

  /// Site-partitioned construction (DESIGN.md §13): side A and the
  /// a→b long-haul link live on `sim_a`, side B and b→a on `sim_b`.
  /// With two distinct simulators the caller must also attach PDES
  /// channels to both WAN links (Link::set_channel) — the fabric does.
  LongbowPair(sim::Simulator& sim_a, sim::Simulator& sim_b,
              const Config& config);
  LongbowPair(sim::Simulator& sim_a, sim::Simulator& sim_b,
              const Config& config, const Names& names);
  ~LongbowPair();

  Longbow& side_a() { return *a_; }
  Longbow& side_b() { return *b_; }

  /// Attaches a fault plan to both WAN directions (net/faults.hpp).
  /// Call after Simulator::seed() so the fault RNG streams derive from
  /// the run seed. Replaces any previously applied plan's RNG-driven
  /// models; scheduled windows from an earlier plan still fire.
  void apply_faults(const FaultPlanConfig& cfg);

  /// The raw long-haul links, exposed so tests and chaos harnesses can
  /// install targeted fault hooks (Link::set_loss_model and friends).
  Link& wan_link_a_to_b() { return *a_to_b_; }
  Link& wan_link_b_to_a() { return *b_to_a_; }

  /// Emulated one-way wire delay (Table 1: 5 us of delay per km).
  void set_oneway_delay(sim::Duration d) {
    a_to_b_->set_extra_delay(d);
    b_to_a_->set_extra_delay(d);
  }
  sim::Duration oneway_delay() const { return a_to_b_->extra_delay(); }

  /// Traffic counters for the long-haul link (used by tests asserting,
  /// e.g., that a hierarchical broadcast crosses the WAN exactly once).
  const Link::Stats& wan_stats_a_to_b() const { return a_to_b_->stats(); }
  const Link::Stats& wan_stats_b_to_a() const { return b_to_a_->stats(); }

 private:
  sim::Simulator& sim_;    // side A's simulator
  sim::Simulator& sim_b_;  // side B's simulator (== sim_ when sequential)
  std::unique_ptr<Longbow> a_;
  std::unique_ptr<Longbow> b_;
  std::unique_ptr<Link> a_to_b_;
  std::unique_ptr<Link> b_to_a_;
  std::unique_ptr<FaultPlan> faults_a_to_b_;
  std::unique_ptr<FaultPlan> faults_b_to_a_;
};

}  // namespace ibwan::net
