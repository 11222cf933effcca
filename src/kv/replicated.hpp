// Replicated key-value serving over an N-site WAN (DESIGN.md §16,
// ROADMAP item 3): N replica servers on distinct topology sites, a
// client-side coordinator running quorum reads and writes over any
// rpc::RpcClient transport (RPC/RC, RPC/TCP, RPC/SDR).
//
// Consistency model: last-writer-wins versions totally ordered by
// (coordinator issue time, writer id), applied monotonically at every
// replica. With R + W > N a read quorum intersects every completed
// write quorum, so a read that completes after a completed write
// returns a version at least as new — the property pinned by
// tests/kv/quorum_property_test.cpp across seeds, site counts, and
// fuzzed fault plans.
//
// Failure model: each quorum attempt races replica replies against a
// per-attempt timeout; timeouts retry with multiplicative backoff up to
// a bounded budget (kTimedOut after that). Hard transport failures
// (ReplyInfo::ok == false: RC flush, TCP/SDR give-up) count toward an
// early abort — once quorum is provably unreachable in this attempt the
// op resolves kAborted instead of waiting out the timer. Every op
// therefore terminates, which is what makes the client-side op
// conservation identity (issued == completed + timed_out + aborted)
// exact at drain (src/check/oracles.cpp, kv-conservation).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rpc/rpc.hpp"
#include "sim/coro.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace ibwan::kv {

/// Totally ordered write version: coordinator issue time, ties broken
/// by writer id. Zero-initialized == "never written".
struct Version {
  sim::Time stamp = 0;
  std::uint32_t writer = 0;
  friend constexpr bool operator==(const Version&, const Version&) = default;
  friend constexpr auto operator<=>(const Version&, const Version&) = default;
};

enum class ReplicaOp : std::uint32_t { kRead = 1, kWrite = 2 };

/// Wire args of one replica-level operation (24 bytes of key/version
/// metadata plus the op code, modeled by kReplicaArgBytes).
struct ReplicaArgs {
  ReplicaOp op = ReplicaOp::kRead;
  std::uint64_t key = 0;
  Version version{};              // writes: the version to install
  std::uint64_t value_bytes = 0;  // writes: payload size
};

struct ReplicaReply {
  Version version{};              // stored version after the op
  std::uint64_t value_bytes = 0;  // reads: stored size (0 on miss)
  bool applied = false;           // writes: version advanced the store
};

inline constexpr std::uint64_t kReplicaArgBytes = 40;
inline constexpr std::uint64_t kReplicaReplyBytes = 64;

struct ReplicaConfig {
  /// Server CPU per operation (hash probe, version compare, logging).
  sim::Duration per_op_cpu = 2 * sim::kMicrosecond;
};

/// One replica server: a versioned store with monotone last-writer-wins
/// apply, dispatched behind any RPC transport (core::KvReplicas wires
/// it). Requests serialize on a single server CPU.
class ReplicaServer {
 public:
  /// Accounting; requests == replies is oracle-checked per scope
  /// (kv-conservation) — the handler always replies, so an imbalance
  /// means a dispatch hung. The `lint:conserved` counters may only be
  /// written by replicated.cpp (ibwan-lint INV001).
  struct Stats {
    std::uint64_t requests = 0;       // lint:conserved
    std::uint64_t replies = 0;        // lint:conserved
    std::uint64_t reads_served = 0;   // lint:conserved
    std::uint64_t read_misses = 0;    // lint:conserved
    std::uint64_t writes_applied = 0;  // lint:conserved
    std::uint64_t writes_stale = 0;    // lint:conserved
  };

  ReplicaServer(sim::Simulator& sim, net::NodeId lid,
                ReplicaConfig config = {});

  void preload(std::uint64_t key, std::uint64_t value_bytes,
               Version version = {1, 0}) {
    store_[key] = Slot{version, value_bytes};
  }
  /// Stored version of a key ({0,0} when never written).
  Version version_of(std::uint64_t key) const {
    auto it = store_.find(key);
    return it == store_.end() ? Version{} : it->second.version;
  }
  std::uint64_t value_size(std::uint64_t key) const {
    auto it = store_.find(key);
    return it == store_.end() ? 0 : it->second.value_bytes;
  }

  rpc::Handler handler();
  const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    Version version{};
    std::uint64_t value_bytes = 0;
  };
  sim::Coro<rpc::ReplyInfo> dispatch(const rpc::CallArgs& call);

  sim::Simulator& sim_;
  ReplicaConfig config_;
  // Ordered map: deterministic iteration if anything ever walks it.
  std::map<std::uint64_t, Slot> store_;
  sim::Time cpu_busy_ = 0;
  Stats stats_;

  // Registered metrics (docs/METRICS.md §kv); scope "node<lid>/kv.replica".
  sim::CounterExports exports_{sim_.metrics()};
};

// ---------------------------------------------------------------------------
// Client-side quorum coordinator
// ---------------------------------------------------------------------------

struct QuorumConfig {
  /// Replies needed for a read / write to complete. Quorum safety
  /// (stale-read freedom) requires read_quorum + write_quorum > N.
  int read_quorum = 2;
  int write_quorum = 2;
  /// First attempt's reply deadline; must be > 0 so every op terminates.
  sim::Duration op_timeout = 50 * sim::kMillisecond;
  /// Extra attempts after the first timeout; each waits backoff× longer.
  int max_retries = 2;
  double backoff = 2.0;
  /// Push the newest version to stale read responders (asynchronous).
  bool read_repair = true;
  /// Writer id breaking version ties between concurrent coordinators.
  std::uint32_t writer_id = 0;
};

/// Non-empty human-readable reason when the config is unusable against
/// `replicas` servers (quorums out of range, non-positive timeout, or
/// R + W <= N, which silently forfeits read-your-writes); empty when
/// valid. ReplicatedKv construction rejects invalid configs with it.
std::string validate(const QuorumConfig& config, int replicas);

enum class OpStatus : std::uint8_t {
  kCompleted = 0,  // quorum reached
  kTimedOut = 1,   // retry budget exhausted without quorum
  kAborted = 2,    // quorum provably unreachable (hard replica failures)
};

struct OpResult {
  OpStatus status = OpStatus::kCompleted;
  /// Reads: newest version among responders (and its value size).
  /// Writes: the version installed.
  Version version{};
  std::uint64_t value_bytes = 0;
  int attempts = 1;
};

/// The quorum coordinator: one per client, over one RpcClient per
/// replica (index i is replica i, everywhere). All state lives on the
/// client node's simulator, so the coordinator is site-parallel safe.
class ReplicatedKv {
 public:
  /// Accounting; identities oracle-checked (src/check/oracles.cpp,
  /// `/kv.client` scopes):
  ///   ops_completed + ops_timed_out + ops_aborted == ops_issued
  ///   replica_acks + replica_fails + replica_late <= replica_calls
  /// (the remainder of the second is calls still outstanding at drain —
  /// a transport waiting forever on a severed WAN). The lint:conserved
  /// counters may only be written by replicated.cpp (INV001).
  struct Stats {
    std::uint64_t ops_issued = 0;     // lint:conserved
    std::uint64_t ops_completed = 0;  // lint:conserved
    std::uint64_t ops_timed_out = 0;  // lint:conserved
    std::uint64_t ops_aborted = 0;    // lint:conserved
    std::uint64_t replica_calls = 0;  // lint:conserved
    std::uint64_t replica_acks = 0;   // lint:conserved
    std::uint64_t replica_fails = 0;  // lint:conserved
    std::uint64_t replica_late = 0;   // lint:conserved
    std::uint64_t retries = 0;
    std::uint64_t read_repairs = 0;
  };

  ReplicatedKv(sim::Simulator& sim, net::NodeId lid,
               std::vector<rpc::RpcClient*> replicas, QuorumConfig config);

  sim::Coro<OpResult> get(std::uint64_t key);
  sim::Coro<OpResult> put(std::uint64_t key, std::uint64_t value_bytes);

  const QuorumConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  int replicas() const { return static_cast<int>(replicas_.size()); }

 private:
  struct Attempt;
  sim::Coro<OpResult> quorum_op(ReplicaArgs args, int need);
  sim::Task replica_call(std::shared_ptr<Attempt> at, int idx,
                         ReplicaArgs args, int need);
  sim::Task repair_write(int idx, ReplicaArgs args);

  sim::Simulator& sim_;
  QuorumConfig config_;
  std::vector<rpc::RpcClient*> replicas_;
  Stats stats_;
  int inflight_ = 0;
  /// Last version stamp handed out; put() bumps past it when the clock
  /// has not advanced so same-instant writes stay totally ordered.
  sim::Time last_stamp_ = 0;

  // Registered metrics (docs/METRICS.md §kv); scope "node<lid>/kv.client".
  sim::CounterExports exports_{sim_.metrics()};
  sim::Gauge* obs_inflight_ops_;
  sim::Histogram* obs_op_ns_;
};

}  // namespace ibwan::kv
