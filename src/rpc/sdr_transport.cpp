// RPC over the SDR reliability layer: call and reply are each one
// reliable SDR message (inline header + args + bulk payload bytes), so
// redundancy-coded chunks — not an RC retransmission window — carry the
// exchange across a lossy WAN. When the SDR sender exhausts its probe
// budget the request provably never arrives, so the call fails
// immediately with ok == false.
#include <cassert>
#include <string>
#include <utility>

#include "rpc/rpc.hpp"
#include "sim/task.hpp"

namespace ibwan::rpc {

struct SdrRpcServer::CallMsg {
  std::uint64_t xid = 0;
  ib::UdDest reply_to{};
  CallArgs args;
};

struct SdrRpcServer::ReplyMsg {
  std::uint64_t xid = 0;
  ReplyInfo reply;
};

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

SdrRpcServer::SdrRpcServer(ib::Hca& hca, sdr::SdrConfig config)
    : hca_(hca), ep_(hca, config) {
  exports_.counter("node" + std::to_string(hca_.lid()) + "/rpc.sdr",
                   "calls_served", sim::MetricUnit::kCount, &calls_served_);
  ep_.set_delivery_handler([this](const ib::UdDest&, std::uint64_t,
                                  const std::shared_ptr<const void>& app) {
    if (!app) return;  // not an RPC message (raw SDR traffic)
    serve(*static_cast<const CallMsg*>(app.get()));
  });
}

sim::Task SdrRpcServer::serve(CallMsg call) {
  assert(handler_ && "SdrRpcServer has no handler");
  ++calls_served_;
  ReplyInfo reply = co_await handler_(call.args);
  auto msg = std::make_shared<ReplyMsg>();
  msg->xid = call.xid;
  msg->reply = reply;
  // SDR's FEC and ARQ recover reply loss; a reply that still cannot get
  // through leaves the call outstanding, and deadlines live above RPC
  // (kv::QuorumConfig::op_timeout).
  ep_.send(call.reply_to,
           kReplyHeaderBytes + reply.reply_bytes + reply.data_to_client, {},
           std::move(msg));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

SdrRpcClient::SdrRpcClient(ib::Hca& hca, SdrRpcServer& server,
                           sdr::SdrConfig config)
    : RpcClient(hca.sim(), hca.lid()),
      ep_(hca, config),
      server_(server.dest()) {
  auto& m = hca.sim().metrics();
  const std::string scope = "node" + std::to_string(hca.lid()) + "/rpc.sdr";
  using enum sim::MetricUnit;
  exports_.counter(scope, "calls", kCount, &calls_);
  exports_.counter(scope, "call_failures", kCount, &call_failures_);
  obs_inflight_ = &m.gauge(scope, "inflight", kCount);
  obs_call_ns_ = &m.histogram(scope, "call_ns", kNanoseconds);
  ep_.set_delivery_handler([this](const ib::UdDest&, std::uint64_t,
                                  const std::shared_ptr<const void>& app) {
    if (!app) return;  // not an RPC message (raw SDR traffic)
    const auto& msg = *static_cast<const SdrRpcServer::ReplyMsg*>(app.get());
    complete(msg.xid, msg.reply);
  });
}

void SdrRpcClient::send(std::uint64_t xid, const CallArgs& args) {
  auto msg = std::make_shared<SdrRpcServer::CallMsg>();
  msg->xid = xid;
  msg->reply_to = ep_.dest();
  msg->args = args;
  // Bulk data travels inline in the SDR message. A hard send failure
  // (probe exhaustion) fails the call on the spot — no reply can ever
  // come back for a request the transport gave up on.
  ep_.send(
      server_, kCallHeaderBytes + args.arg_bytes + args.data_to_server,
      [this, xid](bool ok) {
        if (!ok) fail(xid);
      },
      std::move(msg));
}

}  // namespace ibwan::rpc
