// RPC over RDMA (the Noronha et al. NFS/RDMA design the paper measures):
// inline call and reply messages over an RC channel; bulk data moved by
// the server with RDMA — writes toward the client for READ-style
// replies, reads from the client for WRITE-style calls — fragmented
// into fixed-size chunks (4 KB), which is what makes NFS/RDMA
// latency-bound on long WAN paths (Figure 13).
#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>

#include "rpc/rpc.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace ibwan::rpc {

struct RdmaRpcServer::CallMsg {
  std::uint64_t xid = 0;
  CallArgs args;
};

namespace {
struct ReplyMsg {
  std::uint64_t xid = 0;
  ReplyInfo reply;
};
/// Send-CQE wr_id tags for the server-side read-completion dispatch.
constexpr std::uint64_t kWrReadBase = 1'000'000;
}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

RdmaRpcServer::RdmaRpcServer(ib::Hca& hca, RdmaRpcConfig config)
    : hca_(hca), config_(config), scq_(hca.sim()), rcq_(hca.sim()) {
  auto& m = hca_.sim().metrics();
  const std::string scope =
      "node" + std::to_string(hca_.lid()) + "/rpc.rdma";
  using enum sim::MetricUnit;
  exports_.counter(scope, "chunks_read", kCount, &chunks_read_);
  exports_.counter(scope, "chunks_written", kCount, &chunks_written_);
  obs_chunk_read_ns_ = &m.histogram(scope, "chunk_read_ns", kNanoseconds);
  std::snprintf(trace_tag_, sizeof(trace_tag_), "rpc-s%u", hca_.lid());
  rcq_.set_callback([this](const ib::Cqe& e) { on_recv(e); });
  // Send completions: dispatch chunk-read completions to their waiters.
  scq_.set_callback([this](const ib::Cqe& e) {
    if (e.type != ib::CqeType::kRdmaReadComplete) return;
    auto it = read_waiters_.find(e.wr_id);
    if (it == read_waiters_.end()) return;
    auto wg = it->second;
    read_waiters_.erase(it);
    if (auto issued = read_issued_.find(e.wr_id);
        issued != read_issued_.end()) {
      // Flushed reads (QP retry exhaustion) still release the waiter so
      // the serve coroutine unwinds, but record no timing — the chunk
      // never arrived.
      if (e.success) {
        const sim::Time elapsed = hca_.sim().now() - issued->second;
        obs_chunk_read_ns_->observe(elapsed);
        if (sim::FlightRecorder& fr = hca_.sim().recorder(); fr.armed()) {
          fr.record(hca_.sim().now(), sim::TraceKind::kChunkComplete,
                    trace_tag_, e.wr_id, e.byte_len,
                    static_cast<std::uint64_t>(elapsed));
        }
      }
      read_issued_.erase(issued);
    }
    wg->done();
  });
}

ib::RcQp* RdmaRpcServer::accept(ib::RcQp& client_qp, ib::Lid client_lid) {
  ib::RcQp& qp = hca_.create_rc_qp(scq_, rcq_);
  qp.connect(client_lid, client_qp.qpn());
  client_qp.connect(hca_.lid(), qp.qpn());
  by_qpn_[qp.qpn()] = &qp;
  qps_.push_back(&qp);
  for (int i = 0; i < 256; ++i) {
    qp.post_recv(ib::RecvWr{});
    client_qp.post_recv(ib::RecvWr{});
  }
  return &qp;
}

void RdmaRpcServer::on_recv(const ib::Cqe& cqe) {
  auto it = by_qpn_.find(cqe.qpn);
  if (it == by_qpn_.end()) return;
  it->second->post_recv(ib::RecvWr{});  // repost the consumed receive
  if (!cqe.success) return;             // flushed receive: nothing arrived
  if (!cqe.app_payload) return;
  serve(it->second, cqe.payload_as<CallMsg>());
}

sim::Task RdmaRpcServer::serve(ib::RcQp* qp, CallMsg call) {
  assert(handler_ && "RdmaRpcServer has no handler");
  // WRITE-style bulk: pull the client's data with chunked RDMA reads
  // before running the handler.
  if (call.args.data_to_server > 0) {
    const std::uint64_t chunks =
        (call.args.data_to_server + config_.chunk_bytes - 1) /
        config_.chunk_bytes;
    auto wg = std::make_shared<sim::WaitGroup>(hca_.sim());
    wg->add(static_cast<int>(chunks));
    std::uint64_t remaining = call.args.data_to_server;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const std::uint64_t n =
          std::min<std::uint64_t>(remaining, config_.chunk_bytes);
      remaining -= n;
      const std::uint64_t wr_id = kWrReadBase + next_read_id_++;
      read_waiters_[wr_id] = wg;
      read_issued_[wr_id] = hca_.sim().now();
      ++chunks_read_;
      if (sim::FlightRecorder& fr = hca_.sim().recorder(); fr.armed()) {
        fr.record(hca_.sim().now(), sim::TraceKind::kChunkIssue,
                  trace_tag_, wr_id, n, 0);
      }
      qp->post_send(ib::SendWr{.wr_id = wr_id,
                               .opcode = ib::Opcode::kRdmaRead,
                               .length = n,
                               .remote_addr = c * config_.chunk_bytes});
    }
    co_await wg->wait();
  }

  ReplyInfo reply = co_await handler_(call.args);

  // READ-style bulk: push chunked RDMA writes, then the inline reply.
  // RC ordering guarantees the client sees the reply only after all the
  // data has been placed — no extra round trip needed.
  if (reply.data_to_client > 0) {
    std::uint64_t remaining = reply.data_to_client;
    std::uint64_t offset = 0;
    while (remaining > 0) {
      const std::uint64_t n =
          std::min<std::uint64_t>(remaining, config_.chunk_bytes);
      ++chunks_written_;
      qp->post_send(ib::SendWr{.opcode = ib::Opcode::kRdmaWrite,
                               .length = n,
                               .remote_addr = offset});
      offset += n;
      remaining -= n;
    }
  }
  auto msg = std::make_shared<ReplyMsg>();
  msg->xid = call.xid;
  msg->reply = reply;
  qp->post_send(ib::SendWr{.length = kReplyHeaderBytes + reply.reply_bytes,
                           .app_payload = std::move(msg)});
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

RdmaRpcClient::RdmaRpcClient(ib::Hca& hca, RdmaRpcServer& server)
    : RpcClient(hca.sim(), hca.lid()), scq_(hca.sim()), rcq_(hca.sim()) {
  auto& m = hca.sim().metrics();
  const std::string scope =
      "node" + std::to_string(hca.lid()) + "/rpc.rdma";
  using enum sim::MetricUnit;
  exports_.counter(scope, "calls", kCount, &calls_);
  exports_.counter(scope, "call_failures", kCount, &call_failures_);
  obs_inflight_ = &m.gauge(scope, "inflight", kCount);
  obs_call_ns_ = &m.histogram(scope, "call_ns", kNanoseconds);
  rcq_.set_callback([this](const ib::Cqe& e) { on_recv(e); });
  // A flushed send completion means the QP exhausted its retry budget
  // (WAN severed past the IB timeout horizon): no call on this
  // connection can ever complete, so fail them all.
  scq_.set_callback([this](const ib::Cqe& e) {
    if (!e.success) fail_all();
  });
  qp_ = &hca.create_rc_qp(scq_, rcq_);
  server.accept(*qp_, hca.lid());
}

void RdmaRpcClient::on_recv(const ib::Cqe& cqe) {
  qp_->post_recv(ib::RecvWr{});
  if (!cqe.success) {
    fail_all();
    return;
  }
  if (!cqe.app_payload) return;
  const ReplyMsg& msg = cqe.payload_as<ReplyMsg>();
  complete(msg.xid, msg.reply);
}

void RdmaRpcClient::send(std::uint64_t xid, const CallArgs& args) {
  auto msg = std::make_shared<RdmaRpcServer::CallMsg>();
  msg->xid = xid;
  msg->args = args;
  qp_->post_send(ib::SendWr{.length = kCallHeaderBytes + args.arg_bytes,
                            .app_payload = std::move(msg)});
}

}  // namespace ibwan::rpc
