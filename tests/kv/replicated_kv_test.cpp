// Replicated KV quorum coordinator: config validation, quorum
// completion, read repair, monotone apply, and the failure edge cases —
// a replica down mid-quorum must not block completion, and all replicas
// unreachable must resolve to a clean timeout/abort instead of a hang.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/kv_replicas.hpp"
#include "kv/replicated.hpp"
#include "net/fabric.hpp"
#include "rpc/rpc.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace ibwan {
namespace {

using namespace ibwan::sim::literals;

/// A handler that accepts the call and never replies — an application
///-level "replica down" that works identically on every transport. The
/// suspended handler frame is intentionally leaked (repo convention for
/// drained-but-suspended coroutines).
rpc::Handler black_hole(sim::Simulator& sim) {
  return [&sim](const rpc::CallArgs&) -> sim::Coro<rpc::ReplyInfo> {
    sim::Trigger never(sim);
    co_await never.wait();
    co_return rpc::ReplyInfo{};
  };
}

/// Client on node 0, three RC-transport replicas on nodes 1..3.
struct World {
  explicit World(kv::QuorumConfig qc)
      : fabric(sim, {.nodes_a = 2, .nodes_b = 2}),
        replicas(fabric, 0, {1, 2, 3}, core::KvReplicas::Transport::kRc),
        coord(sim, 0, replicas.channels(), qc) {}

  sim::Simulator sim;
  net::Fabric fabric;
  core::KvReplicas replicas;
  kv::ReplicatedKv coord;
};

TEST(QuorumConfig, ValidateRejectsUnsafeAndMalformedConfigs) {
  kv::QuorumConfig qc;  // defaults: R=2, W=2
  EXPECT_EQ(kv::validate(qc, 3), "");
  // R + W == N forfeits quorum intersection.
  EXPECT_NE(kv::validate(qc, 4), "");
  qc.read_quorum = 0;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc.read_quorum = 4;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc = {};
  qc.op_timeout = 0;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc = {};
  qc.backoff = 0.5;
  EXPECT_NE(kv::validate(qc, 3), "");
  qc = {};
  qc.max_retries = -1;
  EXPECT_NE(kv::validate(qc, 3), "");
  EXPECT_NE(kv::validate({}, 0), "");
}

TEST(ReplicatedKv, WriteThenReadReturnsWrittenVersion) {
  World w({});
  kv::OpResult put{}, get{};
  [](World& ww, kv::OpResult* p, kv::OpResult* g) -> sim::Task {
    *p = co_await ww.coord.put(7, 4096);
    *g = co_await ww.coord.get(7);
  }(w, &put, &get);
  w.sim.run();
  EXPECT_EQ(put.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.version, put.version);
  EXPECT_EQ(get.value_bytes, 4096u);
  EXPECT_EQ(w.coord.stats().ops_completed, 2u);
  // The write eventually lands on every replica, not just the quorum.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.replicas.replica(i).version_of(7), put.version);
  }
}

TEST(ReplicatedKv, ReadRepairPushesNewestVersionToStaleReplica) {
  kv::QuorumConfig qc;
  qc.read_quorum = 3;  // all responders visible -> repair is deterministic
  qc.write_quorum = 1;
  World w(qc);
  const kv::Version newest{500, 1};
  w.replicas.replica(0).preload(3, 2048, newest);
  w.replicas.replica(1).preload(3, 2048, newest);
  w.replicas.replica(2).preload(3, 1024, kv::Version{100, 1});  // stale
  kv::OpResult get{};
  [](World& ww, kv::OpResult* g) -> sim::Task {
    *g = co_await ww.coord.get(3);
  }(w, &get);
  w.sim.run();
  EXPECT_EQ(get.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.version, newest);
  EXPECT_EQ(get.value_bytes, 2048u);
  EXPECT_EQ(w.coord.stats().read_repairs, 1u);
  // The asynchronous repair write brought the stale replica current.
  EXPECT_EQ(w.replicas.replica(2).version_of(3), newest);
  EXPECT_EQ(w.replicas.replica(2).value_size(3), 2048u);
}

TEST(ReplicatedKv, StaleWriteIsRejectedByMonotoneApply) {
  World w({});
  const kv::Version stored{1'000'000'000, 9};  // far newer than sim time
  for (int i = 0; i < 3; ++i) w.replicas.replica(i).preload(4, 8192, stored);
  kv::OpResult put{};
  [](World& ww, kv::OpResult* p) -> sim::Task {
    *p = co_await ww.coord.put(4, 16);
  }(w, &put);
  w.sim.run();
  // The op completes (acks arrived) but no replica rolled back.
  EXPECT_EQ(put.status, kv::OpStatus::kCompleted);
  for (int i = 0; i < 3; ++i) {
    const kv::ReplicaServer& r = w.replicas.replica(i);
    EXPECT_EQ(r.version_of(4), stored);
    EXPECT_EQ(r.value_size(4), 8192u);
    EXPECT_EQ(r.stats().writes_stale, 1u);
    EXPECT_EQ(r.stats().writes_applied, 0u);
  }
}

TEST(ReplicatedKv, ConcurrentSameInstantPutsGetDistinctVersions) {
  World w({});
  kv::OpResult a{}, b{};
  [](World& ww, kv::OpResult* out) -> sim::Task {
    *out = co_await ww.coord.put(1, 111);
  }(w, &a);
  [](World& ww, kv::OpResult* out) -> sim::Task {
    *out = co_await ww.coord.put(1, 222);
  }(w, &b);
  w.sim.run();
  EXPECT_EQ(a.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(b.status, kv::OpStatus::kCompleted);
  EXPECT_NE(a.version, b.version);
  // Replicas converge on the larger version.
  const kv::Version winner = std::max(a.version, b.version);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(w.replicas.replica(i).version_of(1), winner);
  }
}

TEST(ReplicatedKv, ReplicaDownMidQuorumStillCompletes) {
  World w({});
  w.replicas.set_handler(2, black_hole(w.sim));  // replica 2 goes dark
  kv::OpResult put{}, get{};
  [](World& ww, kv::OpResult* p, kv::OpResult* g) -> sim::Task {
    *p = co_await ww.coord.put(8, 512);
    *g = co_await ww.coord.get(8);
  }(w, &put, &get);
  w.sim.run();
  EXPECT_EQ(put.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.status, kv::OpStatus::kCompleted);
  EXPECT_EQ(get.version, put.version);
  EXPECT_EQ(w.coord.stats().ops_completed, 2u);
  EXPECT_EQ(w.replicas.replica(2).stats().requests, 0u);
  // The dark replica's calls stay suspended: conservation is one-sided.
  EXPECT_LE(w.coord.stats().replica_acks + w.coord.stats().replica_fails +
                w.coord.stats().replica_late,
            w.coord.stats().replica_calls);
}

TEST(ReplicatedKv, AllReplicasUnreachableResolvesCleanlyNotHang) {
  kv::QuorumConfig qc;
  qc.op_timeout = 5 * sim::kMillisecond;
  qc.max_retries = 2;
  World w(qc);
  for (int i = 0; i < 3; ++i) w.replicas.set_handler(i, black_hole(w.sim));
  kv::OpResult get{};
  [](World& ww, kv::OpResult* g) -> sim::Task {
    *g = co_await ww.coord.get(1);
  }(w, &get);
  w.sim.run();  // must drain — a hang would spin this forever
  EXPECT_EQ(get.status, kv::OpStatus::kTimedOut);
  EXPECT_EQ(get.attempts, 3);
  EXPECT_EQ(w.coord.stats().ops_issued, 1u);
  EXPECT_EQ(w.coord.stats().ops_timed_out, 1u);
  EXPECT_EQ(w.coord.stats().retries, 2u);
  // Ladder: 5 + 10 + 20 ms of attempt deadlines.
  EXPECT_GE(w.sim.now(), 35 * sim::kMillisecond);
}

}  // namespace
}  // namespace ibwan
