// RPC over TCP: record-marked call and reply messages on one stream.
#include <cassert>
#include <string>

#include "rpc/rpc.hpp"
#include "sim/task.hpp"

namespace ibwan::rpc {

namespace {
/// One record on the stream (either direction).
struct Record {
  bool is_call = false;
  std::uint64_t xid = 0;
  CallArgs args;    // valid when is_call
  ReplyInfo reply;  // valid when !is_call
};
}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

TcpRpcServer::TcpRpcServer(tcp::TcpStack& stack, tcp::Port port)
    : stack_(stack) {
  exports_.counter("node" + std::to_string(stack_.lid()) + "/rpc.tcp",
                   "calls_served", sim::MetricUnit::kCount, &calls_served_);
  stack_.listen(port, [this](tcp::TcpConnection& conn) {
    conn.set_on_marker([this, &conn](std::shared_ptr<const void> marker) {
      serve(conn, std::move(marker));
    });
  });
}

sim::Task TcpRpcServer::serve(tcp::TcpConnection& conn,
                              std::shared_ptr<const void> marker) {
  const Record& rec = *static_cast<const Record*>(marker.get());
  assert(rec.is_call);
  assert(handler_ && "TcpRpcServer has no handler");
  ++calls_served_;
  ReplyInfo reply = co_await handler_(rec.args);
  auto out = std::make_shared<Record>();
  out->is_call = false;
  out->xid = rec.xid;
  out->reply = reply;
  // READ-style bulk data travels inline in the reply stream.
  conn.send_marked(kReplyHeaderBytes + reply.reply_bytes +
                       reply.data_to_client,
                   std::move(out));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

TcpRpcClient::TcpRpcClient(tcp::TcpStack& stack, NodeId server,
                           tcp::Port port)
    : RpcClient(stack.sim(), stack.lid()),
      conn_(stack.connect(server, port)) {
  auto& m = stack.sim().metrics();
  const std::string scope =
      "node" + std::to_string(stack.lid()) + "/rpc.tcp";
  using enum sim::MetricUnit;
  exports_.counter(scope, "calls", kCount, &calls_);
  exports_.counter(scope, "call_failures", kCount, &call_failures_);
  obs_inflight_ = &m.gauge(scope, "inflight", kCount);
  obs_call_ns_ = &m.histogram(scope, "call_ns", kNanoseconds);
  conn_.set_on_marker([this](std::shared_ptr<const void> marker) {
    const Record& rec = *static_cast<const Record*>(marker.get());
    assert(!rec.is_call);
    complete(rec.xid, rec.reply);
  });
}

void TcpRpcClient::send(std::uint64_t xid, const CallArgs& args) {
  auto record = std::make_shared<Record>();
  record->is_call = true;
  record->xid = xid;
  record->args = args;
  // WRITE-style bulk data travels inline in the call stream.
  conn_.send_marked(kCallHeaderBytes + args.arg_bytes + args.data_to_server,
                    std::move(record));
}

}  // namespace ibwan::rpc
