// Extension: software-defined reliability (SDR) over the WAN — FEC vs
// retransmission at high bandwidth-delay product (docs/TRANSPORTS.md,
// DESIGN.md §14).
//
// Sweeps goodput, redundancy overhead, and message latency for the SDR
// transport (none / xor / rs / adaptive) head-to-head against RC and
// TCP, on a delay grid extended to 40 ms one-way (8000 km — four times
// the paper's longest emulated distance), under a clean WAN and under
// an embedded Gilbert-Elliott bursty-loss plan; plus goodput vs loss
// severity at the 8000 km point.
//
// Expected shape: on a clean pipe RC leads at LAN range, but from
// ~10 ms out SDR's deep chunk pipeline hides the BDP that RC's bounded
// window cannot; parity and chunk headers stay pure overhead when
// nothing is lost (rs trails none on every clean point). Under bursty
// loss at high BDP the gap blows open — RC's go-back-N and bounded
// window collapse, while SDR repairs losses locally from parity and
// NACKs only the holes, so its goodput stays near the wire rate. The
// --selfcheck audit pins the inversion: SDR(rs) must beat RC at
// >= 8000 km under the bursty plan.
#include <functional>
#include <memory>

#include "bench_common.hpp"
#include "core/tcp_bench.hpp"
#include "core/testbed.hpp"
#include "ib/hca.hpp"
#include "ib/perftest.hpp"
#include "sdr/sdr.hpp"

using namespace ibwan;
using ib::perftest::Transport;

namespace {

/// Delay grid: the paper's top two points plus 4000/8000 km.
std::vector<sim::Duration> fec_delay_grid() {
  return {0, 1'000'000, 10'000'000, 20'000'000, 40'000'000};
}

struct SdrOutcome {
  double goodput = 0;       // delivered MB/s over the whole run
  double overhead_pct = 0;  // (parity + retrans) / data chunks, %
  double msg_ms = 0;        // mean completed-message latency
};

constexpr std::uint64_t kMsgBytes = 2ull << 20;

SdrOutcome run_sdr(sim::Duration delay, const net::FaultPlanConfig* plan,
                   sdr::Scheme scheme, int parity, bool adaptive) {
  core::Testbed tb(core::TestbedOptions{
      .nodes_a = 1, .nodes_b = 1, .wan_delay = delay, .faults = plan});
  ib::Hca hca_a(tb.fabric().node(tb.node_a()), {});
  ib::Hca hca_b(tb.fabric().node(tb.node_b()), {});
  sdr::SdrConfig cfg;
  cfg.scheme = scheme;
  cfg.parity_per_group = parity;
  cfg.adaptive = adaptive;
  sdr::SdrEndpoint src(hca_a, cfg);
  sdr::SdrEndpoint dst(hca_b, cfg);

  // A full window of messages is issued up front — the transport's
  // chunk queue keeps the wire saturated across message boundaries (no
  // per-message round-trip serialization), which is what lets FEC hide
  // the BDP — and each completion chains the next message, so the
  // adaptive policy's loss EWMA (fed by completions) informs the parity
  // level of the second half of the transfer.
  const int window = 16;
  const int total_msgs = 32 * bench::scale();
  int issued = 0;
  sim::Time last_done = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t completed = 0;
  std::function<void()> issue_next = [&]() {
    if (issued == total_msgs) return;
    ++issued;
    const sim::Time t0 = hca_a.sim().now();
    src.send(dst.dest(), kMsgBytes, [&, t0](bool ok) {
      if (ok) {
        last_done = hca_a.sim().now();
        total_ns += static_cast<std::uint64_t>(last_done - t0);
        ++completed;
      }
      issue_next();
    });
  };
  for (int i = 0; i < window; ++i) issue_next();
  tb.run();

  SdrOutcome out;
  const sdr::SdrStats& rx = dst.stats();
  const sdr::SdrStats& tx = src.stats();
  if (last_done > 0) {
    out.goodput = static_cast<double>(rx.msg_bytes_delivered) /
                  static_cast<double>(last_done) * 1e3;
  }
  if (tx.data_chunks_sent > 0) {
    out.overhead_pct =
        100.0 *
        static_cast<double>(tx.parity_chunks_sent + tx.retrans_chunks_sent) /
        static_cast<double>(tx.data_chunks_sent);
  }
  if (completed > 0) {
    out.msg_ms = static_cast<double>(total_ns) /
                 static_cast<double>(completed) / 1e6;
  }
  return out;
}

/// Transfer volume for the RC/TCP comparison legs. Under an external
/// --faults plan (the chaos CI determinism check) the legs shrink:
/// plan jitter reorders the WAN, and RC reads out-of-order PSNs as
/// loss, so go-back-N re-sends a BDP per "loss" — full volume at 40 ms
/// costs minutes of wall clock for a run whose only purpose is the
/// sequential-vs-par-sites byte comparison, not the committed curves.
std::uint64_t comparison_volume() {
  if (net::global_fault_plan() != nullptr) return 4ull << 20;
  return (32ull << 20) * static_cast<std::uint64_t>(bench::scale());
}

double run_rc(sim::Duration delay, const net::FaultPlanConfig* plan) {
  core::Testbed tb(core::TestbedOptions{
      .nodes_a = 1, .nodes_b = 1, .wan_delay = delay, .faults = plan});
  const int iters = ib::perftest::iters_for_bytes(comparison_volume(),
                                                  kMsgBytes, 2, 4096);
  return ib::perftest::run_bandwidth(
             tb.fabric(), tb.node_a(), tb.node_b(), Transport::kRc,
             {.msg_size = kMsgBytes, .iterations = iters})
      .mbytes_per_sec;
}

double run_tcp(sim::Duration delay, const net::FaultPlanConfig* plan) {
  core::Testbed tb(core::TestbedOptions{
      .nodes_a = 1, .nodes_b = 1, .wan_delay = delay, .faults = plan});
  return core::tcpbench::tcp_throughput(
      tb, {.streams = 1, .bytes_per_stream = comparison_volume()});
}

struct SdrSeries {
  const char* name;
  sdr::Scheme scheme;
  int parity;
  bool adaptive;
};

constexpr SdrSeries kSdrSeries[] = {
    {"sdr-none", sdr::Scheme::kNone, 0, false},
    {"sdr-xor", sdr::Scheme::kXor, 1, false},
    {"sdr-rs", sdr::Scheme::kRs, 4, false},
    {"sdr-adaptive", sdr::Scheme::kRs, 0, true},
};

}  // namespace

int main(int argc, char** argv) {
  ibwan::bench::init(argc, argv);
  core::banner(
      "Extension: SDR goodput under loss — FEC vs retransmission at high "
      "BDP (MillionBytes/s)");

  struct PointResult {
    bench::Rows clean, bursty, overhead, latency;
  };
  bench::SweepRunner runner;
  const auto results =
      runner.map(fec_delay_grid(), [&](sim::Duration delay) {
        PointResult r;
        const double x = static_cast<double>(delay) / 1e6;  // ms one-way
        const net::FaultPlanConfig plan = net::bursty_loss_plan();
        for (const SdrSeries& s : kSdrSeries) {
          const SdrOutcome clean =
              run_sdr(delay, nullptr, s.scheme, s.parity, s.adaptive);
          const SdrOutcome lossy =
              run_sdr(delay, &plan, s.scheme, s.parity, s.adaptive);
          r.clean.push_back({s.name, x, clean.goodput});
          r.bursty.push_back({s.name, x, lossy.goodput});
          r.overhead.push_back({s.name, x, lossy.overhead_pct});
          r.latency.push_back({s.name, x, clean.msg_ms});
        }
        r.clean.push_back({"rc", x, run_rc(delay, nullptr)});
        r.bursty.push_back({"rc", x, run_rc(delay, &plan)});
        r.clean.push_back({"tcp", x, run_tcp(delay, nullptr)});
        r.bursty.push_back({"tcp", x, run_tcp(delay, &plan)});
        return r;
      });

  core::Table clean("(a) goodput vs delay, clean WAN", "oneway_ms");
  core::Table bursty("(b) goodput vs delay, bursty loss", "oneway_ms");
  core::Table overhead("(c) redundancy overhead under bursty loss",
                       "oneway_ms");
  core::Table latency("(d) mean message latency, clean WAN", "oneway_ms");
  for (const auto& r : results) {
    for (const auto& row : r.clean) clean.add(row.series, row.x, row.y);
    for (const auto& row : r.bursty) bursty.add(row.series, row.x, row.y);
    for (const auto& row : r.overhead) {
      overhead.add(row.series, row.x, row.y);
    }
    for (const auto& row : r.latency) latency.add(row.series, row.x, row.y);
  }

  // (e) loss severity at the 8000 km point: how fast does each recovery
  // strategy degrade as the bad state gets worse?
  const std::vector<double> loss_grid = {0.05, 0.1, 0.2, 0.4};
  struct LossResult {
    bench::Rows rows;
  };
  const auto loss_results = runner.map(loss_grid, [&](double loss_bad) {
    LossResult r;
    const net::FaultPlanConfig plan = net::bursty_loss_plan(loss_bad);
    constexpr sim::Duration kFar = 40'000'000;
    r.rows.push_back(
        {"sdr-rs", loss_bad,
         run_sdr(kFar, &plan, sdr::Scheme::kRs, 4, false).goodput});
    r.rows.push_back(
        {"sdr-adaptive", loss_bad,
         run_sdr(kFar, &plan, sdr::Scheme::kRs, 0, true).goodput});
    r.rows.push_back({"rc", loss_bad, run_rc(kFar, &plan)});
    return r;
  });
  core::Table vs_loss("(e) goodput vs bad-state loss at 8000 km",
                      "loss_bad");
  for (const auto& r : loss_results) {
    for (const auto& row : r.rows) vs_loss.add(row.series, row.x, row.y);
  }

  bench::finish(clean, "ext_sdr_fec_clean");
  bench::finish(bursty, "ext_sdr_fec_bursty");
  bench::finish(overhead, "ext_sdr_fec_overhead");
  bench::finish(latency, "ext_sdr_fec_latency");
  bench::finish(vs_loss, "ext_sdr_fec_loss");

  // Oracle audit. The headline claim: at high BDP under bursty loss,
  // FEC + selective repeat strictly beats RC's go-back-N (the paper's
  // collapse, inverted). Clean SDR runs must also conserve exactly:
  // every chunk sent arrives, every delivered byte was decoded.
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    for (const auto& r : {results[3], results[4]}) {  // >= 4000 km
      double sdr_rs = 0, rc = 0, x = 0;
      for (const auto& row : r.bursty) {
        if (row.series == std::string("sdr-rs")) {
          sdr_rs = row.y;
          x = row.x;
        }
        if (row.series == std::string("rc")) rc = row.y;
      }
      report.expect_true(
          "sdr-beats-rc", "bursty oneway_ms=" + std::to_string(x),
          sdr_rs > rc,
          "sdr-rs=" + std::to_string(sdr_rs) + " rc=" + std::to_string(rc));
    }
    // Wire bound: no SDR goodput may exceed the wire's payload rate.
    const net::FabricConfig fc = core::fabric_defaults(1, 1);
    const ib::HcaConfig hca;
    for (const auto& s : clean.all_series()) {
      for (const auto& [x, y] : s.points) {
        report.expect_le(
            "sdr-wire-bound", s.name + " oneway_ms=" + std::to_string(x), y,
            check::ud_bw_model_mbps(fc, hca, hca.mtu), 0.02);
      }
    }
    // Exact conservation on dedicated clean runs (sequential, so the
    // report stays deterministic): one near, one at 8000 km.
    for (sim::Duration delay : {sim::Duration{0}, sim::Duration{40'000'000}}) {
      core::Testbed tb(core::TestbedOptions{.nodes_a = 1,
                                            .nodes_b = 1,
                                            .wan_delay = delay,
                                            .metrics = true});
      ib::Hca hca_a(tb.fabric().node(tb.node_a()), {});
      ib::Hca hca_b(tb.fabric().node(tb.node_b()), {});
      sdr::SdrEndpoint src(hca_a, {});
      sdr::SdrEndpoint dst(hca_b, {});
      for (int i = 0; i < 4; ++i) src.send(dst.dest(), kMsgBytes);
      tb.run();
      check::ConservationOptions copt;
      copt.exact_sdr = true;
      check::check_conservation(
          report, "sdr-clean " + bench::delay_label(delay),
          tb.metrics_snapshot(), copt);
    }
  }
  return bench::selfcheck_exit();
}
