// Prints the complete metric namespace, one line per distinct
// `<layer>/<metric>` with its kind and unit:
//
//   ib.rc/window_stalls counter count
//
// Registration is eager (layer constructors register their instruments
// whether or not metrics are enabled), so merely constructing one of
// every layer object enumerates the schema. The docs/METRICS.md
// consistency check itself is now static: ibwan-lint's SCHEMA001 rule
// resolves every registration site and diffs both directions against
// the inventory tables without running anything. This dump remains as
// a runtime cross-check / debugging aid for eyeballing the live
// namespace.
#include <cstdio>
#include <set>
#include <string>

#include "core/kv_replicas.hpp"
#include "core/testbed.hpp"
#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "kv/replicated.hpp"
#include "mpi/mpi.hpp"
#include "nfs/nfs.hpp"
#include "rpc/rpc.hpp"
#include "sdr/sdr.hpp"
#include "sim/metrics.hpp"
#include "tcp/tcp.hpp"

using namespace ibwan;

int main() {
  // Three hosts per cluster: the first pair carries an MPI job (HCA, RC
  // QPs, MPI layer), the second pair the socket/RPC stacks, the third a
  // replicated KV client and replica.
  core::Testbed tb(3, 0);
  sim::Simulator& s = tb.sim();

  // MPI over IB registers ib.hca, ib.rc and mpi on its two ranks.
  mpi::Job job(tb.fabric(), mpi::Job::split_placement(tb.fabric(), 1));

  // A UD QP (fig4's transport) on a spare node.
  ib::Hca hca_a(tb.fabric().node(tb.node_a(1)), {});
  ib::Cq scq(s), rcq(s);
  hca_a.create_ud_qp(scq, rcq);

  // TCP over IPoIB plus both RPC transports and the NFS server.
  ib::Hca hca_b(tb.fabric().node(tb.node_b(1)), {});
  ipoib::IpoibDevice dev(hca_b, {});
  tcp::TcpStack stack(dev);
  rpc::TcpRpcServer tcp_server(stack, 2049);
  rpc::TcpRpcClient tcp_client(stack, tb.node_b(1), 2049);
  rpc::RdmaRpcServer rdma_server(hca_a);
  rpc::RdmaRpcClient rdma_client(hca_b, rdma_server);
  nfs::NfsServer nfs_server(s, {});

  // The software-defined reliability transport (sdr layer).
  sdr::SdrEndpoint sdr_ep(hca_a, {});

  // A one-replica KV set over RPC/SDR (rpc.sdr, kv.replica) and its
  // quorum coordinator (kv.client).
  core::KvReplicas kv_set(tb.fabric(), tb.node_a(2), {tb.node_b(2)},
                          core::KvReplicas::Transport::kSdr);
  kv::ReplicatedKv kv_client(s, tb.node_a(2), kv_set.channels(),
                             {.read_quorum = 1, .write_quorum = 1});

  // Strip the instance prefix: "<instance>/<layer>/<metric>" lines
  // collapse to one row per layer-level metric.
  std::set<std::string> rows;
  for (const auto& info : s.metrics().inventory()) {
    const std::size_t slash = info.path.find('/');
    const std::string layer_metric =
        slash == std::string::npos ? info.path : info.path.substr(slash + 1);
    rows.insert(layer_metric + " " +
                sim::metric_kind_name(info.kind) + " " +
                sim::metric_unit_name(info.unit));
  }
  for (const std::string& row : rows) std::printf("%s\n", row.c_str());
  return 0;
}
