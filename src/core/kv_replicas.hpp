// One KV replica set behind one RPC transport (DESIGN.md §16): the
// wiring every replicated-KV bench, test and tool shares. It builds
// the client HCA (plus an IPoIB/TCP stack for the TCP transport), then
// per replica an HCA, a kv::ReplicaServer and an RC, TCP or SDR RPC
// server/client pair, in that order. channels() is the
// kv::ReplicatedKv channel list: index i is replica i, everywhere.
//
// Replica objects live on their own node's site simulator and the RPC
// clients on the client node's, so a set is site-parallel safe.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "kv/replicated.hpp"
#include "net/fabric.hpp"
#include "rpc/rpc.hpp"
#include "tcp/tcp.hpp"

namespace ibwan::core {

class KvReplicas {
 public:
  enum class Transport { kRc, kTcp, kSdr };
  /// "rc", "tcp" or "sdr".
  static const char* name(Transport t);

  KvReplicas(net::Fabric& fabric, net::NodeId client_node,
             const std::vector<net::NodeId>& replica_nodes,
             Transport transport);
  ~KvReplicas();

  KvReplicas(const KvReplicas&) = delete;
  KvReplicas& operator=(const KvReplicas&) = delete;

  const std::vector<rpc::RpcClient*>& channels() const { return channels_; }
  kv::ReplicaServer& replica(int i);
  /// Stores keys [0, keys) with `bytes`-byte values at version {1,0} on
  /// every replica.
  void preload(std::uint64_t keys, std::uint64_t bytes);
  /// Replaces replica i's RPC handler (a test's unresponsive replica).
  void set_handler(int i, rpc::Handler h);

 private:
  struct Replica;

  ib::Hca client_hca_;
  std::unique_ptr<ipoib::IpoibDevice> client_dev_;  // TCP only
  std::unique_ptr<tcp::TcpStack> client_stack_;     // TCP only
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<rpc::RpcClient*> channels_;
};

}  // namespace ibwan::core
