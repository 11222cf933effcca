// Extension: N-site incast over the WAN — RC vs SDR into one hub
// (DESIGN.md §15).
//
// The paper's testbed stops at two clusters; the topology-graph fabric
// lets us ask the next question a multi-site deployment poses: what
// happens when N spoke sites stream into one hub concurrently? Each
// spoke owns a private Longbow pair into the hub (a hub/spoke WAN
// graph), so the WAN is not shared — the contention point is the hub's
// DDR edge and the per-flow reliability protocol's reaction to the
// bandwidth-delay product.
//
// Sweeps aggregate delivered goodput at the hub for RC (hand-rolled
// concurrent verbs flows, one QP pair per spoke) against SDR (rs FEC,
// one endpoint per spoke into a single hub endpoint): (a) over one-way
// delay at a fixed spoke count, (b) over spoke count at a fixed 10 ms
// delay, clean and under an embedded Gilbert-Elliott bursty-loss plan
// on every WAN edge; plus (c) spoke-to-spoke ping-pong latency — the
// first committed curve whose path crosses two WAN hops and a transit
// site's switch, audited against the multi-hop propagation floor
// (check::topology_oneway_floor_us).
//
// Expected shape: at low delay RC and SDR both fill the hub edge and
// goodput grows with spoke count until the hub link saturates. As
// delay grows, RC's bounded per-flow window caps each spoke at
// window/RTT while SDR's chunk pipeline keeps streaming, so the
// aggregate RC curve decays the same way Figure 5 does — incast
// parallelism does not buy back the BDP the window cannot cover. Under
// bursty loss the gap widens (go-back-N per flow vs local FEC repair).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/testbed.hpp"
#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/perftest.hpp"
#include "ib/qp.hpp"
#include "sdr/sdr.hpp"

using namespace ibwan;
using ib::perftest::Transport;

namespace {

constexpr std::uint64_t kMsgBytes = 1ull << 20;
constexpr int kFixedSpokes = 4;
constexpr sim::Duration kFixedDelay = 10'000'000;  // 10 ms one-way

/// Delay grid for the incast sweeps: LAN range to the paper's longest
/// emulated distance.
std::vector<sim::Duration> incast_delay_grid() {
  return {0, 1'000'000, 10'000'000, 20'000'000};
}

std::vector<int> spoke_grid() { return {2, 4, 8}; }

/// Bytes each spoke streams into the hub. Under an external --faults
/// plan (the chaos CI determinism check) the volume shrinks: the run's
/// only purpose there is the sequential-vs-par-sites byte comparison,
/// and RC's go-back-N under WAN jitter costs a BDP per reorder.
std::uint64_t per_spoke_volume() {
  if (net::global_fault_plan() != nullptr) return 2ull << 20;
  return (8ull << 20) * static_cast<std::uint64_t>(bench::scale());
}

struct IncastOutcome {
  double goodput = 0;  // aggregate delivered MB/s at the hub
  std::uint64_t hub_noroute = 0;  // hub switch drops_no_route after run
};

/// Concurrent RC incast: one hand-rolled verbs flow per spoke (own HCA,
/// CQs, and RC QP on both ends — ib::perftest::run_bandwidth drains the
/// whole fabric per flow, so concurrency needs the flows started before
/// a single run). Aggregate goodput is total bytes over the last
/// receive completion at the hub.
IncastOutcome run_rc_incast(int spokes, sim::Duration delay,
                            const net::FaultPlanConfig* plan) {
  net::TopologyConfig topo = net::TopologyConfig::hub_spoke(spokes, 1);
  core::Testbed tb(core::TestbedOptions{
      .topology = &topo, .wan_delay = delay, .faults = plan});
  net::Fabric& fabric = tb.fabric();

  const int iters = ib::perftest::iters_for_bytes(
      per_spoke_volume(), kMsgBytes, 2, 4096);
  const int window = 16;

  net::Node& hub_node = fabric.node(tb.node_at(0));
  ib::Hca hub_hca(hub_node, {});
  ib::Cq hub_scq(hub_node.sim());
  ib::Cq hub_rcq(hub_node.sim());

  struct SpokeFlow {
    std::unique_ptr<ib::Hca> hca;
    std::unique_ptr<ib::Cq> scq;
    std::unique_ptr<ib::Cq> rcq;
    ib::RcQp* qp = nullptr;
    int posted = 0;
  };
  std::vector<std::unique_ptr<SpokeFlow>> flows;

  int received = 0;
  sim::Time last_arrival = 0;
  hub_rcq.set_callback([&](const ib::Cqe&) {
    ++received;
    if (received == spokes * iters) last_arrival = hub_node.sim().now();
  });

  for (int s = 0; s < spokes; ++s) {
    auto flow = std::make_unique<SpokeFlow>();
    net::Node& sp_node = fabric.node(tb.node_at(s + 1));
    flow->hca = std::make_unique<ib::Hca>(sp_node, ib::HcaConfig{});
    flow->scq = std::make_unique<ib::Cq>(sp_node.sim());
    flow->rcq = std::make_unique<ib::Cq>(sp_node.sim());
    flow->qp = &flow->hca->create_rc_qp(*flow->scq, *flow->rcq);
    ib::RcQp& hub_qp = hub_hca.create_rc_qp(hub_scq, hub_rcq);
    flow->qp->connect(hub_hca.lid(), hub_qp.qpn());
    hub_qp.connect(flow->hca->lid(), flow->qp->qpn());
    for (int i = 0; i < iters; ++i) {
      hub_qp.post_recv(ib::RecvWr{.max_length = kMsgBytes});
    }
    flows.push_back(std::move(flow));
  }

  // Each spoke posts a bounded window and chains the rest off its send
  // completions, like perftest's Streamer.
  for (auto& flow : flows) {
    SpokeFlow* f = flow.get();
    auto post_one = [f]() {
      ++f->posted;
      f->qp->post_send(ib::SendWr{
          .wr_id = static_cast<std::uint64_t>(f->posted),
          .length = kMsgBytes});
    };
    f->scq->set_callback([f, post_one, iters](const ib::Cqe&) {
      if (f->posted < iters) post_one();
    });
    const int burst = std::min(window, iters);
    for (int i = 0; i < burst; ++i) post_one();
  }

  tb.run();

  IncastOutcome out;
  out.hub_noroute = fabric.site_switch(0).drops_no_route();
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(received) * kMsgBytes;
  if (last_arrival > 0) {
    out.goodput =
        static_cast<double>(bytes) / static_cast<double>(last_arrival) * 1e3;
  }
  return out;
}

/// Concurrent SDR incast: one endpoint per spoke streaming rs-coded
/// messages into a single hub endpoint (SDR demuxes receive state per
/// source). Makespan is the last sender-confirmed completion.
IncastOutcome run_sdr_incast(int spokes, sim::Duration delay,
                             const net::FaultPlanConfig* plan) {
  net::TopologyConfig topo = net::TopologyConfig::hub_spoke(spokes, 1);
  core::Testbed tb(core::TestbedOptions{
      .topology = &topo, .wan_delay = delay, .faults = plan});
  net::Fabric& fabric = tb.fabric();

  // The whole per-spoke budget is issued up front — SDR's chunk queue
  // paces the wire across message boundaries, so the measurement is
  // protocol-limited, not issue-limited.
  const int msgs_per_spoke =
      static_cast<int>(per_spoke_volume() / kMsgBytes);
  const int window = msgs_per_spoke;

  ib::Hca hub_hca(fabric.node(tb.node_at(0)), {});
  sdr::SdrConfig cfg;
  cfg.scheme = sdr::Scheme::kRs;
  cfg.parity_per_group = 4;
  sdr::SdrEndpoint hub(hub_hca, cfg);

  struct SpokeTx {
    std::unique_ptr<ib::Hca> hca;
    std::unique_ptr<sdr::SdrEndpoint> ep;
    int issued = 0;
    std::function<void()> issue_next;
  };
  std::vector<std::unique_ptr<SpokeTx>> txs;
  sim::Time last_done = 0;

  for (int s = 0; s < spokes; ++s) {
    auto tx = std::make_unique<SpokeTx>();
    tx->hca = std::make_unique<ib::Hca>(fabric.node(tb.node_at(s + 1)),
                                        ib::HcaConfig{});
    tx->ep = std::make_unique<sdr::SdrEndpoint>(*tx->hca, cfg);
    SpokeTx* t = tx.get();
    tx->issue_next = [t, &hub, &last_done, msgs_per_spoke]() {
      if (t->issued == msgs_per_spoke) return;
      ++t->issued;
      t->ep->send(hub.dest(), kMsgBytes, [t, &last_done](bool ok) {
        if (ok) last_done = std::max(last_done, t->hca->sim().now());
        t->issue_next();
      });
    };
    txs.push_back(std::move(tx));
  }
  for (auto& tx : txs) {
    for (int i = 0; i < window; ++i) tx->issue_next();
  }

  tb.run();

  IncastOutcome out;
  out.hub_noroute = fabric.site_switch(0).drops_no_route();
  if (last_done > 0) {
    out.goodput = static_cast<double>(hub.stats().msg_bytes_delivered) /
                  static_cast<double>(last_done) * 1e3;
  }
  return out;
}

/// Spoke-to-spoke ping-pong: node on site 1 to node on site 2, routed
/// through the hub — two WAN hops plus a transit through the hub's
/// switch, exercising the multi-hop routing tables end to end.
ib::perftest::LatencyResult run_spoke_latency(sim::Duration delay) {
  net::TopologyConfig topo =
      net::TopologyConfig::hub_spoke(kFixedSpokes, 1);
  core::Testbed tb(
      core::TestbedOptions{.topology = &topo, .wan_delay = delay});
  const int iters = net::global_fault_plan() != nullptr ? 50 : 200;
  return ib::perftest::run_latency(
      tb.fabric(), tb.node_at(1), tb.node_at(2), Transport::kRc,
      ib::perftest::Op::kSendRecv,
      {.msg_size = 2, .iterations = iters, .warmup = 5});
}

}  // namespace

int main(int argc, char** argv) {
  ibwan::bench::init(argc, argv);
  core::banner(
      "Extension: N-site incast — RC vs SDR into one hub over a "
      "hub/spoke WAN graph (MillionBytes/s)");

  // (a)+(b) goodput vs one-way delay at 4 spokes, clean and bursty.
  // Workers never touch shared state (SweepRunner runs them on a
  // pool); the hub's no-route drop counts ride back in the results.
  struct DelayPoint {
    bench::Rows clean, bursty;
    std::uint64_t noroute = 0;
  };
  bench::SweepRunner runner;
  const auto by_delay =
      runner.map(incast_delay_grid(), [](sim::Duration delay) {
        DelayPoint r;
        const double x = static_cast<double>(delay) / 1e6;  // ms one-way
        const net::FaultPlanConfig plan = net::bursty_loss_plan();
        for (const bool lossy : {false, true}) {
          const net::FaultPlanConfig* p = lossy ? &plan : nullptr;
          const IncastOutcome rc = run_rc_incast(kFixedSpokes, delay, p);
          const IncastOutcome sdr = run_sdr_incast(kFixedSpokes, delay, p);
          (lossy ? r.bursty : r.clean).push_back({"rc", x, rc.goodput});
          (lossy ? r.bursty : r.clean).push_back({"sdr-rs", x, sdr.goodput});
          r.noroute += rc.hub_noroute + sdr.hub_noroute;
        }
        return r;
      });

  // (c) goodput vs spoke count at 10 ms, clean and bursty.
  struct SpokePoint {
    bench::Rows clean, bursty;
    std::uint64_t noroute = 0;
  };
  const auto by_spokes = runner.map(spoke_grid(), [](int spokes) {
    SpokePoint r;
    const double x = spokes;
    const net::FaultPlanConfig plan = net::bursty_loss_plan();
    for (const bool lossy : {false, true}) {
      const net::FaultPlanConfig* p = lossy ? &plan : nullptr;
      const IncastOutcome rc = run_rc_incast(spokes, kFixedDelay, p);
      const IncastOutcome sdr = run_sdr_incast(spokes, kFixedDelay, p);
      (lossy ? r.bursty : r.clean).push_back({"rc", x, rc.goodput});
      (lossy ? r.bursty : r.clean).push_back({"sdr-rs", x, sdr.goodput});
      r.noroute += rc.hub_noroute + sdr.hub_noroute;
    }
    return r;
  });
  std::uint64_t noroute_total = 0;
  for (const auto& r : by_delay) noroute_total += r.noroute;
  for (const auto& r : by_spokes) noroute_total += r.noroute;

  // (d) spoke->spoke half-RTT through the hub (two WAN hops).
  struct LatPoint {
    bench::Rows rows;
    double min_us = 0;
  };
  const auto lat_points =
      runner.map(incast_delay_grid(), [](sim::Duration delay) {
        LatPoint r;
        const double x = static_cast<double>(delay) / 1e6;
        const ib::perftest::LatencyResult res = run_spoke_latency(delay);
        r.rows.push_back({"rc-2hop", x, res.avg_us});
        r.min_us = res.min_us;
        return r;
      });

  core::Table vs_delay("(a) aggregate goodput vs delay, 4 spokes, clean",
                       "oneway_ms");
  core::Table vs_delay_loss(
      "(b) aggregate goodput vs delay, 4 spokes, bursty loss", "oneway_ms");
  for (const auto& r : by_delay) {
    for (const auto& row : r.clean) vs_delay.add(row.series, row.x, row.y);
    for (const auto& row : r.bursty) {
      vs_delay_loss.add(row.series, row.x, row.y);
    }
  }
  core::Table vs_spokes("(c) aggregate goodput vs spoke count at 10 ms",
                        "spokes");
  for (const auto& r : by_spokes) {
    for (const auto& row : r.clean) vs_spokes.add(row.series, row.x, row.y);
    for (const auto& row : r.bursty) {
      vs_spokes.add(row.series + std::string("-bursty"), row.x, row.y);
    }
  }
  core::Table lat("(d) spoke-to-spoke half-RTT through the hub",
                  "oneway_ms");
  for (const auto& r : lat_points) {
    for (const auto& row : r.rows) lat.add(row.series, row.x, row.y);
  }

  bench::finish(vs_delay, "ext_incast_goodput");
  bench::finish(vs_delay_loss, "ext_incast_goodput_bursty");
  bench::finish(vs_spokes, "ext_incast_spokes");
  bench::finish(lat, "ext_incast_latency");

  // Oracle audit: the multi-hop propagation floor, conservation of the
  // incast traffic, and the hub's routing tables (no no-route drops).
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    const net::TopologyConfig topo =
        net::TopologyConfig::hub_spoke(kFixedSpokes, 1);
    const auto grid = incast_delay_grid();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const double floor =
          check::topology_oneway_floor_us(topo, 1, 2, grid[i]);
      report.expect_ge(
          "incast-2hop-floor",
          "oneway_ms=" + std::to_string(grid[i] / 1'000'000),
          lat_points[i].min_us, floor);
    }
    // Aggregate goodput can never beat the hub's DDR edge nor the sum
    // of the spokes' SDR WAN pipes (raw rates — a strict bound).
    const double hub_edge_mbps = topo.lan_rate * 1e3;
    for (const auto* tbl : {&vs_delay, &vs_spokes}) {
      for (const auto& s : tbl->all_series()) {
        for (const auto& [x, y] : s.points) {
          const double spokes =
              tbl == &vs_spokes ? x : static_cast<double>(kFixedSpokes);
          const double bound = std::min(hub_edge_mbps, spokes * 1e3);
          report.expect_le("incast-wire-bound",
                           s.name + " x=" + std::to_string(x), y, bound,
                           0.02);
        }
      }
    }
    report.expect_true("incast-no-route-drops", "all committed runs",
                       noroute_total == 0,
                       "drops_no_route=" + std::to_string(noroute_total));
    // Exact conservation on a dedicated clean 3-spoke run.
    {
      net::TopologyConfig t3 = net::TopologyConfig::hub_spoke(3, 1);
      core::Testbed tb(core::TestbedOptions{
          .topology = &t3, .wan_delay = kFixedDelay, .metrics = true});
      ib::Hca hub_hca(tb.fabric().node(tb.node_at(0)), {});
      sdr::SdrEndpoint hub(hub_hca, {});
      std::vector<std::unique_ptr<ib::Hca>> hcas;
      std::vector<std::unique_ptr<sdr::SdrEndpoint>> eps;
      for (int s = 1; s <= 3; ++s) {
        hcas.push_back(std::make_unique<ib::Hca>(
            tb.fabric().node(tb.node_at(s)), ib::HcaConfig{}));
        eps.push_back(
            std::make_unique<sdr::SdrEndpoint>(*hcas.back(), sdr::SdrConfig{}));
        for (int i = 0; i < 2; ++i) eps.back()->send(hub.dest(), kMsgBytes);
      }
      tb.run();
      check::ConservationOptions copt;
      copt.exact_sdr = true;
      check::check_conservation(report, "incast-3spoke",
                                tb.metrics_snapshot(), copt);
    }
  }
  return bench::selfcheck_exit();
}
