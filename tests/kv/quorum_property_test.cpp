// Quorum safety property: with R + W > N, a read that completes after a
// completed write never returns a version older than that write — the
// read quorum must intersect the write quorum. Swept across seeds, site
// counts (2–4 replica sites on a full-mesh WAN graph), and fault plans
// drawn from the scenario fuzzer's generator (Gilbert–Elliott loss,
// jitter, link flaps, brownouts). Ops are allowed to time out or abort
// under faults — the property binds only completed pairs — and every
// issued op must still resolve (clean termination, no hangs).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "check/scenario_gen.hpp"
#include "core/kv_replicas.hpp"
#include "core/testbed.hpp"
#include "kv/replicated.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace ibwan {
namespace {

constexpr int kRounds = 16;
constexpr std::uint64_t kKeys = 4;

struct Violation {
  int round;
  std::uint64_t key;
  kv::Version expected;
  kv::Version got;
};

/// One fuzzed case: N replicas on N full-mesh sites, client co-located
/// with replica 0, majority quorums, RC transport, fuzzer fault plan.
void run_case(std::uint64_t seed, int sites, std::vector<Violation>* bad,
              std::uint64_t* unresolved) {
  net::TopologyConfig topo = net::TopologyConfig::full_mesh(sites, 2);
  sim::Rng prng(seed * 0x9e3779b97f4a7c15ULL +
                static_cast<std::uint64_t>(sites));
  const net::FaultPlanConfig plan = check::generate_fault_plan(prng);
  core::Testbed tb(core::TestbedOptions{.topology = &topo,
                                        .wan_delay = 1'000'000,
                                        .seed = seed,
                                        .faults = &plan});
  const net::NodeId client_node = tb.node_at(0, 1);
  std::vector<net::NodeId> replica_nodes;
  for (int s = 0; s < sites; ++s) replica_nodes.push_back(tb.node_at(s));
  core::KvReplicas replicas(tb.fabric(), client_node, replica_nodes,
                            core::KvReplicas::Transport::kRc);

  kv::QuorumConfig qc;
  qc.read_quorum = sites / 2 + 1;
  qc.write_quorum = sites / 2 + 1;
  qc.op_timeout = 20 * sim::kMillisecond;
  qc.max_retries = 1;
  kv::ReplicatedKv coord(tb.sim_for(client_node), client_node,
                         replicas.channels(), qc);

  [](sim::Simulator&, kv::ReplicatedKv& kv,
     std::vector<Violation>* out) -> sim::Task {
    std::map<std::uint64_t, kv::Version> last_write;
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t key = static_cast<std::uint64_t>(round) % kKeys;
      const kv::OpResult put = co_await kv.put(key, 1024);
      if (put.status == kv::OpStatus::kCompleted) {
        last_write[key] = put.version;
      }
      const kv::OpResult get = co_await kv.get(key);
      const auto it = last_write.find(key);
      if (get.status == kv::OpStatus::kCompleted && it != last_write.end() &&
          get.version < it->second) {
        out->push_back(Violation{round, key, it->second, get.version});
      }
    }
  }(tb.sim_for(client_node), coord, bad);
  tb.run();

  const kv::ReplicatedKv::Stats& st = coord.stats();
  *unresolved = st.ops_issued -
                (st.ops_completed + st.ops_timed_out + st.ops_aborted);
}

TEST(QuorumProperty, CompletedReadNeverStaleAcrossSeedsSitesAndFaults) {
  for (const std::uint64_t seed : {42ull, 1337ull, 20260809ull}) {
    for (const int sites : {2, 3, 4}) {
      std::vector<Violation> bad;
      std::uint64_t unresolved = ~0ull;
      run_case(seed, sites, &bad, &unresolved);
      const std::string ctx =
          "seed=" + std::to_string(seed) + " sites=" + std::to_string(sites);
      EXPECT_EQ(unresolved, 0u) << ctx << ": ops left unresolved at drain";
      for (const Violation& v : bad) {
        ADD_FAILURE() << ctx << ": stale read at round " << v.round
                      << " key " << v.key << " (expected >= {"
                      << v.expected.stamp << "," << v.expected.writer
                      << "}, got {" << v.got.stamp << "," << v.got.writer
                      << "})";
      }
    }
  }
}

}  // namespace
}  // namespace ibwan
