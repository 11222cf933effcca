// The RPC client core: one xid counter, one pending-call table and one
// call() body for every transport. A transport's send() puts the call
// on the wire; its reply path calls complete(), its give-up paths
// fail() or fail_all().
#include <algorithm>
#include <cstdio>
#include <vector>

#include "rpc/rpc.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace ibwan::rpc {

/// One outstanding call; lives in the frame of the call() awaiting it.
struct RpcClient::Pending {
  explicit Pending(sim::Simulator& sim) : trigger(sim) {}
  sim::Trigger trigger;
  ReplyInfo reply;
};

RpcClient::RpcClient(sim::Simulator& sim, NodeId lid)
    : exports_(sim.metrics()), sim_(sim) {
  std::snprintf(trace_tag_, sizeof(trace_tag_), "rpc-c%u", lid);
}

sim::Coro<ReplyInfo> RpcClient::call(CallArgs args) {
  const std::uint64_t xid = next_xid_++;
  const sim::Time t0 = sim_.now();
  Pending p(sim_);
  pending_.emplace(xid, &p);
  ++calls_;
  obs_inflight_->set(static_cast<std::int64_t>(pending_.size()));
  if (sim::FlightRecorder& fr = sim_.recorder(); fr.armed()) {
    fr.record(t0, sim::TraceKind::kRpcIssue, trace_tag_, xid, args.proc,
              args.arg_bytes + args.data_to_server);
  }
  send(xid, args);
  co_await p.trigger.wait();
  const sim::Time elapsed = sim_.now() - t0;
  obs_call_ns_->observe(elapsed);
  obs_inflight_->set(static_cast<std::int64_t>(pending_.size()));
  if (sim::FlightRecorder& fr = sim_.recorder(); fr.armed()) {
    fr.record(sim_.now(), sim::TraceKind::kRpcComplete, trace_tag_, xid,
              args.proc, static_cast<std::uint64_t>(elapsed));
  }
  co_return p.reply;
}

void RpcClient::complete(std::uint64_t xid, const ReplyInfo& reply) {
  auto it = pending_.find(xid);
  if (it == pending_.end()) return;
  Pending* p = it->second;
  pending_.erase(it);
  p->reply = reply;
  p->trigger.fire();
}

void RpcClient::fail(std::uint64_t xid) {
  if (!pending_.contains(xid)) return;
  ++call_failures_;
  complete(xid, ReplyInfo{.ok = false});
}

void RpcClient::fail_all() {
  std::vector<std::uint64_t> xids;
  xids.reserve(pending_.size());
  for (const auto& [xid, p] : pending_) xids.push_back(xid);
  // Deterministic completion order: ascending xid, not map order.
  std::sort(xids.begin(), xids.end());
  for (std::uint64_t xid : xids) fail(xid);
}

}  // namespace ibwan::rpc
