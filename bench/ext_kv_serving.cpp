// Extension: production-serving scenarios — a replicated KV store with
// quorum reads/writes over an N-site WAN graph, driven to its SLO cliff
// (DESIGN.md §16).
//
// Three replicas live on distinct sites; a client-side coordinator
// (kv::ReplicatedKv) runs R=2/W=2 quorums over one RPC client per
// replica, on each of the three transports the repo models: RPC/RC
// (chunked RDMA, the paper's NFS/RDMA design), RPC/TCP (IPoIB), and
// RPC/SDR (FEC over UD). An open-loop Poisson generator sweeps offered
// load at fixed WAN delays, clean and under an embedded Gilbert-Elliott
// bursty-loss plan: open-loop arrivals do not slow down when the system
// does, so when a transport's capacity is crossed the latency tail
// jumps from ~RTT to the quorum timeout ladder — the SLO cliff. A
// closed-loop table on a 3-site full mesh (client colocated with one
// replica) gives the classic concurrency-scaling view.
//
// Expected shape: RC's bounded per-QP window caps each replica channel
// at window/RTT, so at 10 ms one-way its cliff sits near the bottom of
// the load grid and bursty loss (go-back-N per flow) drags it lower
// still. SDR keeps streaming through loss via local FEC repair, holding
// its cliff above RC's — the pinned oracle. TCP lands between them
// (larger window, loss-blind retransmission timer).
//
// Outputs: p99/goodput CSVs per (transport, delay, fault) series over
// offered load, the closed-loop mesh table, and one SLO JSON document
// ("ibwan.kv_slo.v1") with the full kv::SloReport of every run.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/kv_replicas.hpp"
#include "core/testbed.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"

using namespace ibwan;

namespace {

using core::KvReplicas;
using Transport = KvReplicas::Transport;

constexpr int kReplicas = 3;
constexpr std::uint64_t kValueBytes = 16384;
constexpr std::uint64_t kKeySpace = 256;
/// Quorum attempt deadline; ops that cross it resolve via the retry
/// ladder, so a saturated transport's p99 jumps to a multiple of this —
/// the cliff the SLO threshold below detects.
constexpr sim::Duration kOpTimeout = 250 * sim::kMillisecond;
constexpr double kSloP99Us = 200'000.0;  // p99 at/above this = cliff
constexpr double kSloTimeoutRate = 0.05;

std::vector<sim::Duration> serving_delay_grid() {
  return {1'000'000, 10'000'000};  // 1 ms, 10 ms one-way
}

/// Offered open-loop load grid (kops/s). Spans RC's window/RTT capacity
/// at both delays so the cliff lands inside the grid.
std::vector<double> load_grid() {
  if (net::global_fault_plan() != nullptr) return {0.2, 1.6};
  return {0.1, 0.2, 0.4, 0.8, 1.6, 3.2};
}

std::uint64_t total_ops() {
  // Under an external --faults plan (the chaos determinism job) the
  // run's only purpose is the sequential-vs-par-sites byte comparison.
  if (net::global_fault_plan() != nullptr) return 60;
  return 200 * static_cast<std::uint64_t>(bench::scale());
}

/// Wires one coordinator against one replica server per replica site
/// over the chosen transport and drives `load` to completion. The coordinator,
/// generator, and all RPC clients live on the client node's simulator;
/// replicas interact with it only through the wire (site-parallel safe).
kv::SloReport run_serving(Transport transport,
                          const net::TopologyConfig& topo, int client_site,
                          int client_idx,
                          const std::vector<int>& replica_sites,
                          sim::Duration delay,
                          const net::FaultPlanConfig* plan,
                          const kv::LoadGenConfig& load) {
  core::Testbed tb(core::TestbedOptions{
      .topology = &topo, .wan_delay = delay, .faults = plan});
  const net::NodeId client_node = tb.node_at(client_site, client_idx);
  std::vector<net::NodeId> replica_nodes;
  for (const int s : replica_sites) replica_nodes.push_back(tb.node_at(s));
  KvReplicas replicas(tb.fabric(), client_node, replica_nodes, transport);
  replicas.preload(kKeySpace, load.value_bytes);

  kv::QuorumConfig qc;
  qc.read_quorum = 2;
  qc.write_quorum = 2;
  qc.op_timeout = kOpTimeout;
  qc.max_retries = 1;
  kv::ReplicatedKv coord(tb.sim_for(client_node), client_node,
                         replicas.channels(), qc);
  kv::LoadGen gen(tb.sim_for(client_node), coord, load);
  gen.start();
  tb.run();
  return kv::make_slo_report(gen.stats());
}

/// One open-loop sweep cell (grid-ordered for deterministic output).
struct OpenRun {
  Transport transport = Transport::kRc;
  sim::Duration delay = 0;
  bool bursty = false;
  double kops = 0;
  kv::SloReport slo;
};

kv::LoadGenConfig open_load(double kops) {
  kv::LoadGenConfig load;
  load.mode = kv::ArrivalMode::kOpen;
  load.offered_kops = kops;
  load.total_ops = total_ops();
  load.get_fraction = 0.7;
  load.key_space = kKeySpace;
  load.zipf_s = 0.99;
  load.value_bytes = kValueBytes;
  return load;
}

/// First load-grid index at which the transport misses the SLO (p99 at
/// or above the threshold, or too many timeouts); loads.size() when the
/// whole grid stays healthy.
std::size_t cliff_index(const std::vector<const OpenRun*>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const kv::SloReport& s = runs[i]->slo;
    if (s.p99_us >= kSloP99Us || s.timeout_rate > kSloTimeoutRate) return i;
  }
  return runs.size();
}

}  // namespace

int main(int argc, char** argv) {
  ibwan::bench::init(argc, argv);
  core::banner(
      "Extension: replicated KV serving over an N-site WAN — quorum "
      "R=2/W=2, open/closed-loop load, SLO cliffs per transport");

  const net::TopologyConfig hub = net::TopologyConfig::hub_spoke(kReplicas, 1);

  // Open-loop sweep: transport x delay x {clean, bursty} x load.
  std::vector<OpenRun> points;
  for (const Transport t : {Transport::kRc, Transport::kTcp, Transport::kSdr}) {
    for (const sim::Duration d : serving_delay_grid()) {
      for (const bool bursty : {false, true}) {
        for (const double kops : load_grid()) {
          points.push_back(OpenRun{t, d, bursty, kops, {}});
        }
      }
    }
  }
  bench::SweepRunner runner;
  const auto open_runs = runner.map(points, [&hub](const OpenRun& p) {
    OpenRun r = p;
    const net::FaultPlanConfig plan = net::bursty_loss_plan();
    r.slo = run_serving(r.transport, hub, /*client_site=*/0, /*client_idx=*/0,
                        {1, 2, 3}, r.delay, r.bursty ? &plan : nullptr,
                        open_load(r.kops));
    return r;
  });

  core::Table p99("(a) open-loop p99 latency (us) vs offered load, hub-spoke",
                  "offered_kops");
  core::Table goodput("(b) open-loop goodput (kops/s) vs offered load",
                      "offered_kops");
  for (const OpenRun& r : open_runs) {
    const std::string series = std::string(KvReplicas::name(r.transport)) +
                               "-" + std::to_string(r.delay / 1'000'000) +
                               "ms" + (r.bursty ? "-bursty" : "");
    p99.add(series, r.kops, r.slo.p99_us);
    goodput.add(series, r.kops, r.slo.goodput_kops);
  }

  // Closed-loop mesh: client shares a site with replica 0, the other
  // two replicas are one WAN hop away — concurrency scaling at 10 ms.
  const net::TopologyConfig mesh = net::TopologyConfig::full_mesh(kReplicas, 2);
  struct ClosedRun {
    Transport transport = Transport::kRc;
    int concurrency = 1;
    kv::SloReport slo;
  };
  std::vector<ClosedRun> closed_points;
  for (const Transport t : {Transport::kRc, Transport::kTcp, Transport::kSdr}) {
    for (const int c : {1, 4, 16}) {
      closed_points.push_back(ClosedRun{t, c, {}});
    }
  }
  const auto closed_runs =
      runner.map(closed_points, [&mesh](const ClosedRun& p) {
        ClosedRun r = p;
        kv::LoadGenConfig load;
        load.mode = kv::ArrivalMode::kClosed;
        load.concurrency = r.concurrency;
        load.total_ops = total_ops();
        load.get_fraction = 0.7;
        load.key_space = kKeySpace;
        load.zipf_s = 0.99;
        load.value_bytes = kValueBytes;
        r.slo = run_serving(r.transport, mesh, /*client_site=*/0,
                            /*client_idx=*/1, {0, 1, 2}, 10'000'000, nullptr,
                            load);
        return r;
      });
  core::Table mesh_tbl("(c) closed-loop goodput (kops/s) vs concurrency, "
                       "3-site mesh at 10 ms",
                       "concurrency");
  for (const ClosedRun& r : closed_runs) {
    mesh_tbl.add(KvReplicas::name(r.transport), r.concurrency,
                 r.slo.goodput_kops);
  }

  bench::finish(p99, "ext_kv_serving_p99");
  bench::finish(goodput, "ext_kv_serving_goodput");
  bench::finish(mesh_tbl, "ext_kv_serving_mesh");

  // Per-run SLO reports, grid-ordered (byte-identical across runs and
  // --par-sites settings, like the CSVs).
  {
    FILE* f = std::fopen("ext_kv_serving_slo.json", "w");
    if (f != nullptr) {
      std::fprintf(f, "{\"version\":\"ibwan.kv_slo.v1\",\"runs\":[\n");
      bool first = true;
      for (const OpenRun& r : open_runs) {
        std::fprintf(
            f, "%s{\"mode\":\"open\",\"transport\":\"%s\",\"oneway_ms\":%llu,"
            "\"bursty\":%s,\"offered_kops\":%.3f,\"slo\":%s}",
            first ? "" : ",\n", KvReplicas::name(r.transport),
            static_cast<unsigned long long>(r.delay / 1'000'000),
            r.bursty ? "true" : "false", r.kops, kv::to_json(r.slo).c_str());
        first = false;
      }
      for (const ClosedRun& r : closed_runs) {
        std::fprintf(
            f, "%s{\"mode\":\"closed\",\"transport\":\"%s\",\"oneway_ms\":10,"
            "\"bursty\":false,\"concurrency\":%d,\"slo\":%s}",
            first ? "" : ",\n", KvReplicas::name(r.transport), r.concurrency,
            kv::to_json(r.slo).c_str());
        first = false;
      }
      std::fprintf(f, "\n]}\n");
      std::fclose(f);
      std::printf("  [slo: ext_kv_serving_slo.json]\n");
    }
  }

  // Oracle audit: op conservation per run, the quorum propagation
  // floor, and the pinned cliff ordering (RC cliffs before SDR under
  // bursty loss at 10 ms one-way).
  if (bench::selfcheck_enabled()) {
    auto& report = check::selfcheck_report();
    for (const OpenRun& r : open_runs) {
      const std::string ctx =
          std::string("open ") + KvReplicas::name(r.transport) + " " +
          std::to_string(r.delay / 1'000'000) + "ms" +
          (r.bursty ? " bursty" : "") + " kops=" + std::to_string(r.kops);
      report.expect_eq_u64("kv-op-accounting", ctx,
                           r.slo.completed + r.slo.timed_out + r.slo.aborted,
                           r.slo.issued);
    }
    for (const ClosedRun& r : closed_runs) {
      const std::string ctx = std::string("closed ") +
                              KvReplicas::name(r.transport) +
                              " c=" + std::to_string(r.concurrency);
      report.expect_eq_u64("kv-op-accounting", ctx,
                           r.slo.completed + r.slo.timed_out + r.slo.aborted,
                           r.slo.issued);
    }
  }
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    // Every quorum needs an ack from at least one WAN-remote replica
    // (hub-spoke: all three are remote), so no completed op can beat
    // two one-way propagation floors to the nearest spoke.
    for (const OpenRun& r : open_runs) {
      if (r.bursty || r.slo.completed == 0) continue;
      const double floor =
          2.0 * check::topology_oneway_floor_us(hub, 0, 1, r.delay);
      const std::string ctx =
          std::string("open ") + KvReplicas::name(r.transport) + " " +
          std::to_string(r.delay / 1'000'000) +
          "ms kops=" + std::to_string(r.kops);
      report.expect_ge("kv-quorum-floor", ctx, r.slo.min_us, floor);
    }
    // The pinned SLO-cliff ordering. Collect each transport's bursty
    // 10 ms series in load order and compare first-miss indices.
    const auto series_of = [&open_runs](Transport t) {
      std::vector<const OpenRun*> v;
      for (const OpenRun& r : open_runs) {
        if (r.transport == t && r.delay == 10'000'000 && r.bursty) {
          v.push_back(&r);
        }
      }
      return v;
    };
    const std::size_t rc_cliff = cliff_index(series_of(Transport::kRc));
    const std::size_t sdr_cliff = cliff_index(series_of(Transport::kSdr));
    const std::size_t nloads = load_grid().size();
    report.expect_true(
        "kv-slo-cliff", "rc cliffs within the grid at 10ms bursty",
        rc_cliff < nloads, "rc_cliff_index=" + std::to_string(rc_cliff));
    report.expect_true(
        "kv-slo-cliff", "sdr holds the SLO to higher load than rc",
        sdr_cliff > rc_cliff,
        "rc_cliff_index=" + std::to_string(rc_cliff) +
            " sdr_cliff_index=" + std::to_string(sdr_cliff));
  }
  return bench::selfcheck_exit();
}
