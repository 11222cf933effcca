// Extension: an RDMA key-value service across the WAN — the
// "data-centers" future-work context from the paper's conclusions.
// Closed-loop GET-heavy workload on the quorum KV stack with a single
// replica (R = W = N = 1) over RPC/RC; latency tracks the round trip,
// and the paper's parallel-streams lesson reappears as client
// concurrency.
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/kv_replicas.hpp"
#include "core/testbed.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"

using namespace ibwan;

namespace {

constexpr std::uint64_t kKeySpace = 256;
/// Far above the slowest op (~75 ms mean at 10 ms one-way with 64 KB
/// values), so no cell measures the quorum retry ladder.
constexpr sim::Duration kOpTimeout = 10 * sim::kSecond;

/// `clients` closed-loop workers share `clients * ops_per_client` ops,
/// 90% GET over uniformly drawn keys, against one replica across the
/// WAN.
kv::SloReport run_kv(sim::Duration delay, int clients,
                     std::uint64_t value_bytes, int ops_per_client) {
  core::Testbed tb(1, delay);
  const net::NodeId client = tb.node_b();
  core::KvReplicas replicas(tb.fabric(), client, {tb.node_a()},
                            core::KvReplicas::Transport::kRc);
  replicas.preload(kKeySpace, value_bytes);
  kv::ReplicatedKv coord(
      tb.sim_for(client), client, replicas.channels(),
      {.read_quorum = 1, .write_quorum = 1, .op_timeout = kOpTimeout});
  kv::LoadGen gen(
      tb.sim_for(client), coord,
      {.concurrency = clients,
       .total_ops = static_cast<std::uint64_t>(clients * ops_per_client),
       .get_fraction = 0.9,
       .key_space = kKeySpace,
       .zipf_s = 0,
       .value_bytes = value_bytes});
  gen.start();
  tb.run();
  return kv::make_slo_report(gen.stats());
}

}  // namespace

int main(int argc, char** argv) {
  ibwan::bench::init(argc, argv);
  core::banner(
      "Extension: RDMA key-value service over IB WAN "
      "(90% GET, 4 KB values)");

  const int ops = 50 * bench::scale();

  core::Table lat("mean operation latency (us), 4 clients", "delay_us");
  core::Table thr("throughput (K ops/s) by client count", "delay_us");
  std::vector<std::pair<std::string, kv::SloReport>> cells;
  for (sim::Duration delay : bench::delay_grid()) {
    const double x = static_cast<double>(delay) / 1000.0;
    for (std::uint64_t vb : {128ull, 4096ull, 65536ull}) {
      const std::string series = std::to_string(vb) + "B-values";
      const auto r = run_kv(delay, 4, vb, ops);
      lat.add(series, x, r.mean_us);
      cells.emplace_back(series + " " + bench::delay_label(delay), r);
    }
    for (int clients : {1, 4, 16}) {
      const std::string series = std::to_string(clients) + "-clients";
      const auto r = run_kv(delay, clients, 4096, ops);
      thr.add(series, x, r.goodput_kops);
      cells.emplace_back(series + " " + bench::delay_label(delay), r);
    }
  }
  lat.print();
  lat.write_csv("ext_kv_latency.csv");
  bench::finish(thr, "ext_kv_throughput");

  // Every cell finished every op on its first quorum attempt: an op
  // that retried takes at least kOpTimeout, and the table would then
  // measure the retry ladder instead of the WAN.
  if (bench::selfcheck_enabled()) {
    auto& report = check::selfcheck_report();
    for (const auto& [ctx, r] : cells) {
      report.expect_eq_u64("kv-op-complete", ctx, r.completed, r.issued);
      report.expect_le("kv-first-attempt", ctx, r.max_us,
                       sim::to_microseconds(kOpTimeout));
    }
  }
  // Oracle audit: a closed-loop KV operation crosses the WAN twice
  // (request + response), so mean latency can't beat two one-way
  // propagation floors. The latency table bypasses finish(), so its
  // generic sanity sweep is replicated here.
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    const net::FabricConfig fc = core::fabric_defaults(1, 1);
    for (sim::Duration delay : bench::delay_grid()) {
      const double x = static_cast<double>(delay) / 1000.0;
      const double floor = 2.0 * check::oneway_floor_us(fc, delay);
      for (const auto& s : lat.all_series()) {
        const double y = s.at(x);
        const std::string ctx =
            "ext_kv_latency " + s.name + " " + bench::delay_label(delay);
        report.expect_true("table-sane", ctx, std::isfinite(y) && y >= 0.0,
                           "y=" + std::to_string(y));
        report.expect_ge("latency-floor", ctx, y, floor);
      }
    }
  }
  return bench::selfcheck_exit();
}
