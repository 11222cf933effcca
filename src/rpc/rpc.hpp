// ONC-RPC-style request/reply transport, over TCP (record marking),
// over RDMA (the NFS/RDMA design: inline call/reply messages, bulk data
// moved by server-initiated RDMA in fixed-size chunks) or over SDR (one
// reliable SDR message each way). One client core (RpcClient) owns the
// call bookkeeping; each transport only puts calls on the wire and
// reports replies and give-ups back.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "sdr/sdr.hpp"
#include "sim/coro.hpp"
#include "sim/metrics.hpp"
#include "sim/task.hpp"
#include "tcp/tcp.hpp"

namespace ibwan::rpc {

using net::NodeId;

/// A call as seen by the server handler.
struct CallArgs {
  std::uint32_t proc = 0;
  /// Serialized argument bytes (inline in the call message).
  std::uint64_t arg_bytes = 0;
  /// Bulk payload the client is pushing (e.g. NFS WRITE data).
  std::uint64_t data_to_server = 0;
  /// Typed argument descriptor.
  std::shared_ptr<const void> body;

  template <typename T>
  const T& args_as() const {
    return *static_cast<const T*>(body.get());
  }
};

/// The server handler's reply.
struct ReplyInfo {
  /// Serialized result bytes (inline in the reply message).
  std::uint64_t reply_bytes = 0;
  /// Bulk payload returned to the client (e.g. NFS READ data).
  std::uint64_t data_to_client = 0;
  std::shared_ptr<const void> body;
  /// False when the transport gave up on the call — the RC QP flushed
  /// (RDMA transport) or the SDR send exhausted its probe budget (SDR
  /// transport); a TCP stream never gives up. The payload fields are
  /// meaningless in that case.
  bool ok = true;
};

/// Server-side dispatch: one concurrently-running coroutine per call.
using Handler = std::function<sim::Coro<ReplyInfo>(const CallArgs&)>;

/// RPC header sizes (call/reply message framing).
inline constexpr std::uint32_t kCallHeaderBytes = 128;
inline constexpr std::uint32_t kReplyHeaderBytes = 96;

/// The client core shared by every transport: xid allocation, the
/// pending-call table, reply matching, give-up handling, the client
/// metrics and the rpc-issue/rpc-complete trace records. A transport
/// overrides send() and reports back through complete(), fail() and
/// fail_all().
class RpcClient {
 public:
  virtual ~RpcClient() = default;
  // Transports hand `this` to their reply and give-up callbacks.
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Issues a call and suspends until the reply (and all bulk data)
  /// has arrived, or until the transport gives up on it (ok == false).
  /// Thread-safe in the simulated sense: any number of coroutines may
  /// have calls in flight.
  sim::Coro<ReplyInfo> call(CallArgs args);

 protected:
  RpcClient(sim::Simulator& sim, NodeId lid);

  /// Puts call `xid` on the wire. The call is already in the pending
  /// table, so the transport may fail it from here on.
  virtual void send(std::uint64_t xid, const CallArgs& args) = 0;
  /// The reply to `xid` arrived. Unknown xids are ignored.
  void complete(std::uint64_t xid, const ReplyInfo& reply);
  /// The transport gave up on `xid`: the call returns ok == false.
  void fail(std::uint64_t xid);
  /// The channel can never deliver again: fails every outstanding call
  /// in ascending xid order.
  void fail_all();

  // Registered metrics (docs/METRICS.md §rpc); each transport's
  // constructor registers them under "node<lid>/rpc.<transport>".
  std::uint64_t calls_ = 0;
  std::uint64_t call_failures_ = 0;
  sim::CounterExports exports_;
  sim::Gauge* obs_inflight_ = nullptr;
  sim::Histogram* obs_call_ns_ = nullptr;

 private:
  struct Pending;

  sim::Simulator& sim_;
  std::uint64_t next_xid_ = 1;
  /// Each entry points into the frame of the call() awaiting it.
  std::unordered_map<std::uint64_t, Pending*> pending_;
  char trace_tag_[12];  // "rpc-c<lid>"
};

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

class TcpRpcServer {
 public:
  TcpRpcServer(tcp::TcpStack& stack, tcp::Port port);
  void set_handler(Handler h) { handler_ = std::move(h); }

 private:
  sim::Task serve(tcp::TcpConnection& conn,
                  std::shared_ptr<const void> marker);

  tcp::TcpStack& stack_;
  Handler handler_;
  std::uint64_t calls_served_ = 0;  // "node<lid>/rpc.tcp" calls_served
  sim::CounterExports exports_{stack_.sim().metrics()};
};

class TcpRpcClient : public RpcClient {
 public:
  /// Opens one connection to the server (NFS mounts share a connection
  /// across client threads, as in the paper's IOzone setup).
  TcpRpcClient(tcp::TcpStack& stack, NodeId server, tcp::Port port);

 private:
  void send(std::uint64_t xid, const CallArgs& args) override;

  tcp::TcpConnection& conn_;
};

// ---------------------------------------------------------------------------
// RDMA transport
// ---------------------------------------------------------------------------

struct RdmaRpcConfig {
  /// Bulk data is fragmented into chunks of this size and moved with
  /// RDMA (writes for server->client, reads for client->server). The
  /// paper's NFS/RDMA design uses 4 KB — the root of its WAN cliff.
  std::uint32_t chunk_bytes = 4096;
};

class RdmaRpcServer {
 public:
  RdmaRpcServer(ib::Hca& hca, RdmaRpcConfig config = {});
  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Connection establishment (out-of-band CM exchange): creates the
  /// server-side QP and cross-connects it with the client's.
  ib::RcQp* accept(ib::RcQp& client_qp, ib::Lid client_lid);

  const RdmaRpcConfig& config() const { return config_; }

 private:
  friend class RdmaRpcClient;
  struct CallMsg;
  // CallMsg passes by value: coroutine parameters must not reference
  // storage owned by the triggering completion event.
  sim::Task serve(ib::RcQp* qp, CallMsg call);
  void on_recv(const ib::Cqe& cqe);

  ib::Hca& hca_;
  RdmaRpcConfig config_;
  Handler handler_;
  ib::Cq scq_;
  ib::Cq rcq_;
  std::unordered_map<ib::Qpn, ib::RcQp*> by_qpn_;
  std::vector<ib::RcQp*> qps_;
  std::unordered_map<std::uint64_t, std::shared_ptr<sim::WaitGroup>>
      read_waiters_;
  /// Issue timestamps of outstanding chunk RDMA reads, keyed by wr_id.
  std::unordered_map<std::uint64_t, sim::Time> read_issued_;
  std::uint64_t next_read_id_ = 1;

  // Registered metrics (docs/METRICS.md §rpc); scope "node<lid>/rpc.rdma".
  std::uint64_t chunks_read_ = 0;
  std::uint64_t chunks_written_ = 0;
  sim::CounterExports exports_{hca_.sim().metrics()};
  sim::Histogram* obs_chunk_read_ns_;
  char trace_tag_[12];  // "rpc-s<lid>"
};

class RdmaRpcClient : public RpcClient {
 public:
  RdmaRpcClient(ib::Hca& hca, RdmaRpcServer& server);

 private:
  void send(std::uint64_t xid, const CallArgs& args) override;
  void on_recv(const ib::Cqe& cqe);

  ib::Cq scq_;
  ib::Cq rcq_;
  ib::RcQp* qp_ = nullptr;
};

// ---------------------------------------------------------------------------
// SDR transport (RPC over software-defined reliability, DESIGN.md §14)
// ---------------------------------------------------------------------------
//
// Call and reply each travel as one reliable SDR message (header + args
// + bulk data), so FEC repairs WAN loss locally at the receiver instead
// of stalling an RC window — the serving-scenario alternative measured
// by bench/ext_kv_serving. A hard send failure (probe exhaustion on a
// severed WAN) surfaces as ReplyInfo::ok == false, like the RDMA
// transport's give-up path.

class SdrRpcServer {
 public:
  explicit SdrRpcServer(ib::Hca& hca, sdr::SdrConfig config = {});
  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Address clients send calls to (out-of-band exchange, as for CM).
  ib::UdDest dest() const { return ep_.dest(); }
  sdr::SdrEndpoint& endpoint() { return ep_; }

 private:
  friend class SdrRpcClient;
  struct CallMsg;
  struct ReplyMsg;
  // CallMsg passes by value: coroutine parameters must not reference
  // storage owned by the triggering delivery event.
  sim::Task serve(CallMsg call);

  ib::Hca& hca_;
  Handler handler_;
  sdr::SdrEndpoint ep_;
  std::uint64_t calls_served_ = 0;  // "node<lid>/rpc.sdr" calls_served
  sim::CounterExports exports_{hca_.sim().metrics()};
};

class SdrRpcClient : public RpcClient {
 public:
  SdrRpcClient(ib::Hca& hca, SdrRpcServer& server,
               sdr::SdrConfig config = {});

 private:
  void send(std::uint64_t xid, const CallArgs& args) override;

  sdr::SdrEndpoint ep_;
  ib::UdDest server_;
};

}  // namespace ibwan::rpc
