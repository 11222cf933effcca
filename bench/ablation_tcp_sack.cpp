// Ablation: TCP selective acknowledgment on a lossy WAN. The paper's
// IPoIB measurements ran on the era's default (no-SACK-equivalent)
// recovery; this quantifies how much loss resilience SACK buys over
// go-back-N as the loss rate and delay grow.
#include "bench_common.hpp"
#include "core/tcp_bench.hpp"
#include "core/testbed.hpp"

using namespace ibwan;
using namespace ibwan::sim::literals;

namespace {

double throughput(bool sack, double loss, sim::Duration delay,
                  std::uint64_t bytes, std::uint64_t seed) {
  // Loss injection is a fabric-build parameter, so the testbed is built
  // from the loss-carrying two-site topology.
  net::FabricConfig fc = core::fabric_defaults(1, 1);
  fc.longbow.loss_rate = loss;
  const net::TopologyConfig topo = net::to_topology(fc);
  core::Testbed tb({.topology = &topo, .wan_delay = delay, .seed = seed});
  ib::Hca hca_a(tb.fabric().node(tb.node_a()), {});
  ib::Hca hca_b(tb.fabric().node(tb.node_b()), {});
  ipoib::IpoibDevice dev_a(hca_a, {});
  ipoib::IpoibDevice dev_b(hca_b, {});
  ipoib::IpoibDevice::link(dev_a, dev_b);
  tcp::TcpConfig cfg = core::tcp_window();
  cfg.sack = sack;
  tcp::TcpStack client(dev_a, cfg);
  tcp::TcpStack server(dev_b, cfg);
  server.listen(5001, [](tcp::TcpConnection&) {});
  tcp::TcpConnection& c = client.connect(tb.node_b(), 5001);
  c.send(bytes);
  sim::Time done = 0;
  sim::Simulator& client_sim = tb.sim_a();
  c.set_on_acked([&](std::uint64_t acked) {
    if (acked == bytes) done = client_sim.now();
  });
  tb.run();
  return static_cast<double>(bytes) / sim::to_seconds(done) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  ibwan::bench::init(argc, argv);
  core::banner(
      "Ablation: TCP SACK vs go-back-N on a lossy WAN link "
      "(IPoIB-UD, 100 us delay, MillionBytes/s)");

  const std::uint64_t bytes = (16ull << 20) * bench::scale();
  const std::vector<double> losses = {0.0, 0.001, 0.005, 0.01, 0.02};

  core::Table table("throughput by loss rate", "loss_pct");
  bench::sweep_into(table, losses, [&](double loss) {
    double gbn = 0, sack = 0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      gbn += throughput(false, loss, 100_us, bytes, seed) / 3.0;
      sack += throughput(true, loss, 100_us, bytes, seed) / 3.0;
    }
    bench::Rows rows;
    rows.push_back({"go-back-N", loss * 100.0, gbn});
    rows.push_back({"SACK", loss * 100.0, sack});
    return rows;
  });
  bench::finish(table, "ablation_tcp_sack");

  // Oracle audit: goodput never exceeds the WAN wire rate at any loss
  // rate, and selective acknowledgment never loses to go-back-N (the
  // loss injection is seed-averaged, so allow a little wiggle).
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    const net::FabricConfig fc = core::fabric_defaults(1, 1);
    const double wire = 1000.0 * check::cross_wan_path(fc).wan_rate;
    const check::Tolerances tol;
    for (double loss : losses) {
      const double x = loss * 100.0;
      const std::string ctx =
          "ablation_tcp_sack loss=" + std::to_string(loss);
      const double gbn = table.series("go-back-N").at(x);
      const double sack_bw = table.series("SACK").at(x);
      report.expect_le("tcp-bw-bound", ctx, gbn, wire, tol.bound_slack);
      report.expect_le("tcp-bw-bound", ctx, sack_bw, wire, tol.bound_slack);
      report.expect_ge("sack-no-regression", ctx, sack_bw, gbn, 0.05);
    }
  }
  return bench::selfcheck_exit();
}
