#include "core/kv_replicas.hpp"

#include <utility>

#include "core/calibration.hpp"
#include "sdr/sdr.hpp"

namespace ibwan::core {

namespace {

constexpr tcp::Port kPort = 7000;

/// RS(16,4): the one SDR setting the KV scenarios use.
sdr::SdrConfig sdr_config() {
  sdr::SdrConfig cfg;
  cfg.scheme = sdr::Scheme::kRs;
  cfg.parity_per_group = 4;
  return cfg;
}

}  // namespace

/// One replica's objects. Exactly one of rdma/tcp/sdr is set, matching
/// the set's transport; dev and stack only for TCP.
struct KvReplicas::Replica {
  std::unique_ptr<ib::Hca> hca;
  std::unique_ptr<kv::ReplicaServer> server;
  std::unique_ptr<ipoib::IpoibDevice> dev;
  std::unique_ptr<tcp::TcpStack> stack;
  std::unique_ptr<rpc::RdmaRpcServer> rdma;
  std::unique_ptr<rpc::TcpRpcServer> tcp;
  std::unique_ptr<rpc::SdrRpcServer> sdr;
  std::unique_ptr<rpc::RpcClient> client;
};

const char* KvReplicas::name(Transport t) {
  switch (t) {
    case Transport::kRc: return "rc";
    case Transport::kTcp: return "tcp";
    case Transport::kSdr: return "sdr";
  }
  return "?";
}

KvReplicas::KvReplicas(net::Fabric& fabric, net::NodeId client_node,
                       const std::vector<net::NodeId>& replica_nodes,
                       Transport transport)
    : client_hca_(fabric.node(client_node), {}) {
  if (transport == Transport::kTcp) {
    client_dev_ = std::make_unique<ipoib::IpoibDevice>(client_hca_, ipoib_ud());
    client_stack_ = std::make_unique<tcp::TcpStack>(*client_dev_, tcp_window());
  }
  for (const net::NodeId rn : replica_nodes) {
    auto r = std::make_unique<Replica>();
    r->hca = std::make_unique<ib::Hca>(fabric.node(rn), ib::HcaConfig{});
    r->server =
        std::make_unique<kv::ReplicaServer>(fabric.sim_of_node(rn), rn);
    switch (transport) {
      case Transport::kRc:
        r->rdma = std::make_unique<rpc::RdmaRpcServer>(*r->hca);
        r->rdma->set_handler(r->server->handler());
        r->client = std::make_unique<rpc::RdmaRpcClient>(client_hca_, *r->rdma);
        break;
      case Transport::kTcp:
        r->dev = std::make_unique<ipoib::IpoibDevice>(*r->hca, ipoib_ud());
        ipoib::IpoibDevice::link(*client_dev_, *r->dev);
        r->stack = std::make_unique<tcp::TcpStack>(*r->dev, tcp_window());
        r->tcp = std::make_unique<rpc::TcpRpcServer>(*r->stack, kPort);
        r->tcp->set_handler(r->server->handler());
        r->client = std::make_unique<rpc::TcpRpcClient>(
            *client_stack_, r->stack->lid(), kPort);
        break;
      case Transport::kSdr:
        r->sdr = std::make_unique<rpc::SdrRpcServer>(*r->hca, sdr_config());
        r->sdr->set_handler(r->server->handler());
        r->client = std::make_unique<rpc::SdrRpcClient>(client_hca_, *r->sdr,
                                                        sdr_config());
        break;
    }
    channels_.push_back(r->client.get());
    replicas_.push_back(std::move(r));
  }
}

KvReplicas::~KvReplicas() = default;

kv::ReplicaServer& KvReplicas::replica(int i) {
  return *replicas_.at(static_cast<std::size_t>(i))->server;
}

void KvReplicas::preload(std::uint64_t keys, std::uint64_t bytes) {
  for (const auto& r : replicas_) {
    for (std::uint64_t k = 0; k < keys; ++k) r->server->preload(k, bytes);
  }
}

void KvReplicas::set_handler(int i, rpc::Handler h) {
  Replica& r = *replicas_.at(static_cast<std::size_t>(i));
  if (r.rdma) {
    r.rdma->set_handler(std::move(h));
  } else if (r.tcp) {
    r.tcp->set_handler(std::move(h));
  } else {
    r.sdr->set_handler(std::move(h));
  }
}

}  // namespace ibwan::core
