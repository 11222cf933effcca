// Switch routing and Longbow behaviour edge cases.
#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace ibwan::net {
namespace {

using sim::Simulator;
using sim::Time;
using namespace ibwan::sim::literals;

TEST(Switch, DropsUnroutableWithoutDefault) {
  Simulator sim;
  Switch sw(sim, "sw", 100);
  Link out(sim, {.bytes_per_ns = 1.0}, "out");
  int delivered = 0;
  out.set_sink([&](Packet&&) { ++delivered; });
  const int port = sw.add_port(&out);
  sw.set_route(7, port);
  Packet known;
  known.dst = 7;
  known.wire_size = 10;
  sw.receive(std::move(known));
  Packet unknown;
  unknown.dst = 8;
  unknown.wire_size = 10;
  sw.receive(std::move(unknown));
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(sw.forwarded(), 1u);
}

TEST(Switch, RouteHitBeatsDefaultRoute) {
  Simulator sim;
  Switch sw(sim, "sw", 100);
  Link routed(sim, {.bytes_per_ns = 1.0}, "routed");
  Link fallback(sim, {.bytes_per_ns = 1.0}, "fallback");
  int via_routed = 0;
  int via_fallback = 0;
  routed.set_sink([&](Packet&&) { ++via_routed; });
  fallback.set_sink([&](Packet&&) { ++via_fallback; });
  sw.set_route(3, sw.add_port(&routed));
  sw.set_default_route(sw.add_port(&fallback));
  Packet hit;
  hit.dst = 3;
  hit.wire_size = 10;
  sw.receive(std::move(hit));
  Packet miss;
  miss.dst = 9;
  miss.wire_size = 10;
  sw.receive(std::move(miss));
  sim.run();
  EXPECT_EQ(via_routed, 1);
  EXPECT_EQ(via_fallback, 1);
  EXPECT_EQ(sw.forwarded(), 2u);
  EXPECT_EQ(sw.drops_no_route(), 0u);
}

TEST(Switch, NoRouteDropCounterStaysExactPastWarnLimit) {
  Simulator sim;
  Switch sw(sim, "sw", 100);
  Link out(sim, {.bytes_per_ns = 1.0}, "out");
  out.set_sink([](Packet&&) {});
  sw.set_route(1, sw.add_port(&out));
  // A misrouted burst: the counter records every drop, not a sample.
  constexpr int kDrops = 100;
  for (int i = 0; i < kDrops; ++i) {
    Packet p;
    p.dst = 42;
    p.wire_size = 10;
    sw.receive(std::move(p));
  }
  sim.run();
  EXPECT_EQ(sw.drops_no_route(), static_cast<std::uint64_t>(kDrops));
  EXPECT_EQ(sw.forwarded(), 0u);
}

TEST(Switch, OutOfRangePortDropsInsteadOfForwarding) {
  Simulator sim;
  Switch sw(sim, "sw", 100);
  Link out(sim, {.bytes_per_ns = 1.0}, "out");
  int delivered = 0;
  out.set_sink([&](Packet&&) { ++delivered; });
  sw.add_port(&out);
  sw.set_route(5, 7);          // beyond the one registered port
  sw.set_default_route(-3);    // nonsense fallback
  Packet p;
  p.dst = 5;
  p.wire_size = 10;
  sw.receive(std::move(p));
  Packet q;
  q.dst = 6;
  q.wire_size = 10;
  sw.receive(std::move(q));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(sw.drops_no_route(), 2u);
}

TEST(Switch, WanIngressTieBreaksByEdgeOrder) {
  Simulator sim;
  Switch sw(sim, "sw", 100);
  Link out(sim, {.bytes_per_ns = 1.0}, "out");
  std::vector<std::uint32_t> order;
  out.set_sink([&](Packet&& p) { order.push_back(p.src); });
  sw.set_default_route(sw.add_port(&out));
  // Two same-instant WAN arrivals, enqueued in descending edge order:
  // the demux must still forward edge 0 first, so the shared egress
  // link serializes in topology order rather than arrival-call order.
  Packet from_edge2;
  from_edge2.src = 2;
  from_edge2.dst = 1;
  from_edge2.wire_size = 10;
  sw.receive_wan(2, std::move(from_edge2));
  Packet from_edge0;
  from_edge0.src = 0;
  from_edge0.dst = 1;
  from_edge0.wire_size = 10;
  sw.receive_wan(0, std::move(from_edge0));
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(sw.forwarded(), 2u);
}

TEST(Switch, HopLatencyAppliesPerPacket) {
  Simulator sim;
  Switch sw(sim, "sw", 250);
  Link out(sim, {.bytes_per_ns = 1.0}, "out");
  Time arrival = 0;
  out.set_sink([&](Packet&&) { arrival = sim.now(); });
  sw.set_default_route(sw.add_port(&out));
  Packet p;
  p.dst = 1;
  p.wire_size = 100;
  sw.receive(std::move(p));
  sim.run();
  EXPECT_EQ(arrival, 250u + 100u);  // hop latency + serialization
}

TEST(Longbow, DelayChangeAppliesToSubsequentPackets) {
  Simulator sim;
  Fabric f(sim, {.nodes_a = 1, .nodes_b = 1});
  std::vector<Time> arrivals;
  f.node(1).set_receiver([&](Packet&&) { arrivals.push_back(sim.now()); });

  Packet p1;
  p1.dst = 1;
  p1.wire_size = 100;
  f.node(0).send(std::move(p1));
  sim.run();

  f.set_wan_delay(500_us);
  const Time t0 = sim.now();
  Packet p2;
  p2.dst = 1;
  p2.wire_size = 100;
  f.node(0).send(std::move(p2));
  sim.run();

  ASSERT_EQ(arrivals.size(), 2u);
  const Time base = arrivals[0];
  EXPECT_NEAR(static_cast<double>(arrivals[1] - t0),
              static_cast<double>(base + 500_us), 1000.0);
}

TEST(Longbow, WanStatsCountPerDirection) {
  Simulator sim;
  Fabric f(sim, {.nodes_a = 1, .nodes_b = 1});
  f.node(0).set_receiver([](Packet&&) {});
  f.node(1).set_receiver([](Packet&&) {});
  for (int i = 0; i < 3; ++i) {
    Packet p;
    p.dst = 1;
    p.wire_size = 100;
    f.node(0).send(std::move(p));
  }
  Packet back;
  back.dst = 0;
  back.wire_size = 50;
  f.node(1).send(std::move(back));
  sim.run();
  EXPECT_EQ(f.longbows()->wan_stats_a_to_b().packets_sent, 3u);
  EXPECT_EQ(f.longbows()->wan_stats_b_to_a().packets_sent, 1u);
  EXPECT_EQ(f.longbows()->wan_stats_a_to_b().bytes_sent, 300u);
}

TEST(Longbow, ControlPacketsBypassDataQueue) {
  // A control packet enqueued behind a deep data backlog on the WAN
  // link must serialize ahead of the remaining data.
  Simulator sim;
  Fabric f(sim, {.nodes_a = 1, .nodes_b = 1});
  std::vector<std::pair<bool, Time>> arrivals;
  f.node(1).set_receiver([&](Packet&& p) {
    arrivals.emplace_back(p.control, sim.now());
  });
  for (int i = 0; i < 20; ++i) {
    Packet p;
    p.dst = 1;
    p.wire_size = 2048;
    f.node(0).send(std::move(p));
  }
  Packet ctrl;
  ctrl.dst = 1;
  ctrl.wire_size = 30;
  ctrl.control = true;
  f.node(0).send(std::move(ctrl));
  sim.run();
  // The control packet must not be last.
  ASSERT_EQ(arrivals.size(), 21u);
  int ctrl_index = -1;
  for (int i = 0; i < 21; ++i) {
    if (arrivals[i].first) ctrl_index = i;
  }
  ASSERT_GE(ctrl_index, 0);
  EXPECT_LT(ctrl_index, 20);
}

TEST(Fabric, AsymmetricClusterSizes) {
  Simulator sim;
  Fabric f(sim, {.nodes_a = 5, .nodes_b = 2});
  EXPECT_EQ(f.node_count(), 7);
  int got = 0;
  f.node(6).set_receiver([&](Packet&&) { ++got; });
  for (NodeId src : {0u, 4u, 5u}) {
    Packet p;
    p.dst = 6;
    p.wire_size = 64;
    f.node(src).send(std::move(p));
  }
  sim.run();
  EXPECT_EQ(got, 3);
}

}  // namespace
}  // namespace ibwan::net
