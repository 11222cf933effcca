// Cut-through crossbar switch with static destination routing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace ibwan::net {

class Switch {
 public:
  Switch(sim::Simulator& sim, std::string name, sim::Duration hop_latency)
      : sim_(sim),
        hop_lane_(sim.make_lane()),
        name_(std::move(name)),
        hop_latency_(hop_latency) {
    const std::string scope = name_ + "/net.switch";
    using enum sim::MetricUnit;
    exports_.counter(scope, "pkts_forwarded", kPackets, &forwarded_);
    exports_.counter(scope, "drops_no_route", kPackets, &drops_no_route_);
  }

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Registers an egress link; returns the port index.
  int add_port(Link* tx) {
    ports_.push_back(tx);
    return static_cast<int>(ports_.size()) - 1;
  }

  /// Static route: packets for `dst` leave via `port`.
  void set_route(NodeId dst, int port) { routes_[dst] = port; }

  /// Fallback port for unknown destinations (the WAN uplink of a site
  /// with a single WAN attachment, or a leaf's spine uplink).
  void set_default_route(int port) { default_port_ = port; }

  /// Ingress from any attached link.
  void receive(Packet&& p);

  /// Ingress from WAN edge attachment `edge`, used on switches with
  /// more than one WAN attachment. Same-instant arrivals from
  /// different edges are buffered and forwarded at the end of the
  /// instant in edge order: without the demux, cross-edge ties fire in
  /// engine-dependent schedule order (the sequential engine breaks
  /// them by global event sequence, which the site-parallel merge
  /// cannot reconstruct), and the first shared egress queue would
  /// serialize them differently. Forwarding still happens in the same
  /// nanosecond, so the demux shifts no timing — only the tie order
  /// (DESIGN.md §13).
  void receive_wan(int edge, Packet&& p);

  const std::string& name() const { return name_; }
  std::uint64_t forwarded() const { return forwarded_; }
  /// Packets dropped for lack of a usable route.
  std::uint64_t drops_no_route() const { return drops_no_route_; }

 private:
  void flush_wan();

  sim::Simulator& sim_;
  sim::Simulator::Lane& hop_lane_;  // fixed hop latency: monotone
  std::string name_;
  sim::Duration hop_latency_;
  std::vector<Link*> ports_;
  std::unordered_map<NodeId, int> routes_;
  int default_port_ = -1;
  // Conservation: forwarded_ + drops_no_route_ == packets received
  // (receive + receive_wan); written only by switch.cpp (INV001).
  std::uint64_t forwarded_ = 0;       // lint:conserved
  std::uint64_t drops_no_route_ = 0;  // lint:conserved
  /// Switch hops are always site-local, so unlike Link there is no
  /// channel-mode exclusion.
  PacketPool pkt_pool_{64};
  /// Same-instant WAN ingress buffer (receive_wan): drained by a flush
  /// event scheduled at the arrival instant.
  std::vector<std::pair<int, Packet>> wan_buf_;
  bool wan_flush_pending_ = false;
  sim::CounterExports exports_{sim_.metrics()};
};

}  // namespace ibwan::net
