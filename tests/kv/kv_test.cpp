// The quorum KV stack on a single replica (R = W = N = 1): GET and PUT
// through the coordinator, WAN latency, and closed-loop LoadGen runs.
#include <gtest/gtest.h>

#include "core/kv_replicas.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace ibwan {
namespace {

using namespace ibwan::sim::literals;

/// One RC replica on node 0, the client on node 1, across the WAN.
struct KvWorld {
  explicit KvWorld(sim::Duration delay = 0)
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        replicas(fabric, 1, {0}, core::KvReplicas::Transport::kRc),
        coord(sim, 1, replicas.channels(),
              {.read_quorum = 1, .write_quorum = 1}) {
    fabric.set_wan_delay(delay);
  }
  kv::ReplicaServer& server() { return replicas.replica(0); }

  sim::Simulator sim;
  net::Fabric fabric;
  core::KvReplicas replicas;
  kv::ReplicatedKv coord;
};

/// Drains a closed loop of `workers` workers sharing `ops` ops over 64
/// uniformly drawn keys.
kv::SloReport run_closed(KvWorld& w, int workers, std::uint64_t ops,
                         double get_fraction, std::uint64_t value_bytes) {
  kv::LoadGen gen(w.sim, w.coord,
                  {.concurrency = workers,
                   .total_ops = ops,
                   .get_fraction = get_fraction,
                   .key_space = 64,
                   .zipf_s = 0,
                   .value_bytes = value_bytes});
  gen.start();
  w.sim.run();
  EXPECT_TRUE(gen.done());
  return kv::make_slo_report(gen.stats());
}

TEST(Kv, GetReturnsValueSizeAndMissReturnsZero) {
  KvWorld w;
  w.server().preload(5, 4096);
  kv::OpResult hit{}, miss{};
  [](KvWorld& kw, kv::OpResult* h, kv::OpResult* m) -> sim::Task {
    *h = co_await kw.coord.get(5);
    *m = co_await kw.coord.get(6);
  }(w, &hit, &miss);
  w.sim.run();
  EXPECT_EQ(hit.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(miss.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(hit.value_bytes, 4096u);
  EXPECT_EQ(miss.value_bytes, 0u);
  EXPECT_EQ(w.server().stats().reads_served, 2u);
  EXPECT_EQ(w.server().stats().read_misses, 1u);
}

TEST(Kv, PutStoresValue) {
  KvWorld w;
  [](KvWorld& kw) -> sim::Task {
    co_await kw.coord.put(9, 100'000);
  }(w);
  w.sim.run();
  EXPECT_EQ(w.server().value_size(9), 100'000u);
  EXPECT_EQ(w.server().stats().writes_applied, 1u);
}

TEST(Kv, GetLatencyTracksWanDelay) {
  auto latency_us = [](sim::Duration delay) {
    KvWorld w(delay);
    w.server().preload(1, 128);
    sim::Time t0 = 0, t1 = 0;
    [](KvWorld& kw, sim::Time* a, sim::Time* b) -> sim::Task {
      *a = kw.sim.now();
      co_await kw.coord.get(1);
      *b = kw.sim.now();
    }(w, &t0, &t1);
    w.sim.run();
    return sim::to_microseconds(t1 - t0);
  };
  const double lan = latency_us(0);
  const double wan = latency_us(1000_us);
  EXPECT_GT(wan, 2000.0);  // one RPC round trip
  EXPECT_LT(wan, 2100.0);
  EXPECT_LT(lan, 100.0);
}

TEST(Kv, WorkloadRunsAllOps) {
  KvWorld w(100_us);
  w.replicas.preload(64, 4096);
  const kv::SloReport r = run_closed(w, 4, 200, 0.8, 4096);
  EXPECT_EQ(r.issued, 200u);
  EXPECT_EQ(r.completed, 200u);
  EXPECT_GT(r.goodput_kops, 0.0);
  EXPECT_GT(r.mean_us, 200.0);  // at least the RTT
  const kv::ReplicaServer::Stats& st = w.server().stats();
  EXPECT_EQ(st.reads_served + st.writes_applied + st.writes_stale, 200u);
}

TEST(Kv, MoreClientsRaiseThroughputUnderDelay) {
  auto kops = [](int workers) {
    KvWorld w(1000_us);
    w.replicas.preload(64, 1024);
    return run_closed(w, workers, 40 * static_cast<std::uint64_t>(workers),
                      0.9, 1024)
        .goodput_kops;
  };
  EXPECT_GT(kops(8), 4.0 * kops(1));
}

}  // namespace
}  // namespace ibwan
