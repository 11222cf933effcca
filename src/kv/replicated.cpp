#include "kv/replicated.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/task.hpp"

namespace ibwan::kv {

std::string validate(const QuorumConfig& config, int replicas) {
  if (replicas < 1) {
    return "need at least one replica, got " + std::to_string(replicas);
  }
  if (config.read_quorum < 1 || config.read_quorum > replicas) {
    return "read_quorum must be in [1, " + std::to_string(replicas) +
           "], got " + std::to_string(config.read_quorum);
  }
  if (config.write_quorum < 1 || config.write_quorum > replicas) {
    return "write_quorum must be in [1, " + std::to_string(replicas) +
           "], got " + std::to_string(config.write_quorum);
  }
  if (config.read_quorum + config.write_quorum <= replicas) {
    return "read_quorum + write_quorum must exceed the replica count (" +
           std::to_string(replicas) +
           ") for quorum intersection, got " +
           std::to_string(config.read_quorum + config.write_quorum);
  }
  if (config.op_timeout <= 0) {
    return "op_timeout must be positive (every op must terminate), got " +
           std::to_string(config.op_timeout);
  }
  if (config.max_retries < 0) {
    return "max_retries must be >= 0, got " +
           std::to_string(config.max_retries);
  }
  if (config.backoff < 1.0) {
    return "backoff must be >= 1.0, got " + std::to_string(config.backoff);
  }
  return "";
}

// ---------------------------------------------------------------------------
// Replica server
// ---------------------------------------------------------------------------

ReplicaServer::ReplicaServer(sim::Simulator& sim, net::NodeId lid,
                             ReplicaConfig config)
    : sim_(sim), config_(config) {
  const std::string scope = "node" + std::to_string(lid) + "/kv.replica";
  using enum sim::MetricUnit;
  exports_.counter(scope, "requests", kMessages, &stats_.requests);
  exports_.counter(scope, "replies", kMessages, &stats_.replies);
  exports_.counter(scope, "reads_served", kCount, &stats_.reads_served);
  exports_.counter(scope, "read_misses", kCount, &stats_.read_misses);
  exports_.counter(scope, "writes_applied", kCount, &stats_.writes_applied);
  exports_.counter(scope, "writes_stale", kCount, &stats_.writes_stale);
}

rpc::Handler ReplicaServer::handler() {
  return [this](const rpc::CallArgs& call) { return dispatch(call); };
}

sim::Coro<rpc::ReplyInfo> ReplicaServer::dispatch(
    const rpc::CallArgs& call) {
  const auto& args = call.args_as<ReplicaArgs>();
  ++stats_.requests;
  cpu_busy_ = std::max(sim_.now(), cpu_busy_) + config_.per_op_cpu;
  co_await sim::SleepAwaiter(sim_, cpu_busy_ - sim_.now());
  auto rep = std::make_shared<ReplicaReply>();
  rpc::ReplyInfo out{.reply_bytes = kReplicaReplyBytes};
  if (args.op == ReplicaOp::kRead) {
    ++stats_.reads_served;
    auto it = store_.find(args.key);
    if (it == store_.end()) {
      ++stats_.read_misses;
    } else {
      rep->version = it->second.version;
      rep->value_bytes = it->second.value_bytes;
    }
    out.data_to_client = rep->value_bytes;
  } else {
    // Monotone last-writer-wins apply: replayed or reordered writes
    // (retried quorum attempts, read repair racing a newer write) can never
    // roll a key's version back.
    Slot& slot = store_[args.key];
    if (args.version > slot.version) {
      slot = Slot{args.version, args.value_bytes};
      rep->applied = true;
      ++stats_.writes_applied;
    } else {
      ++stats_.writes_stale;
    }
    rep->version = slot.version;
    rep->value_bytes = slot.value_bytes;
  }
  ++stats_.replies;
  out.body = std::move(rep);
  co_return out;
}

// ---------------------------------------------------------------------------
// Quorum coordinator
// ---------------------------------------------------------------------------

/// Per-attempt shared state: detached replica-call tasks write into it,
/// the coordinator waits on the trigger racing a timeout timer. Held by
/// shared_ptr because a suspended replica call can outlive the attempt
/// (and the op) by an arbitrary margin — late replies must land in
/// still-valid memory to be counted as late.
struct ReplicatedKv::Attempt {
  Attempt(sim::Simulator& s, int n) : trigger(s), seen(n), replied(n, false) {}
  sim::Trigger trigger;
  int acks = 0;
  int fails = 0;
  Version best{};
  std::uint64_t best_value = 0;
  std::vector<Version> seen;
  std::vector<bool> replied;
  bool quorum = false;
  bool aborted = false;
  /// A decision fired the trigger (quorum, abort, or timeout); replies
  /// arriving at the same instant still fold into the tallies but can
  /// no longer change the outcome.
  bool settled = false;
  /// The coordinator moved on (retry or op resolution): replies from
  /// here on count as late.
  bool abandoned = false;
};

ReplicatedKv::ReplicatedKv(sim::Simulator& sim, net::NodeId lid,
                           std::vector<rpc::RpcClient*> replicas,
                           QuorumConfig config)
    : sim_(sim), config_(config), replicas_(std::move(replicas)) {
  if (const std::string err =
          validate(config_, static_cast<int>(replicas_.size()));
      !err.empty()) {
    std::fprintf(stderr, "ReplicatedKv (node %u): invalid QuorumConfig: %s\n",
                 lid, err.c_str());
    std::abort();
  }
  auto& m = sim_.metrics();
  const std::string scope = "node" + std::to_string(lid) + "/kv.client";
  using enum sim::MetricUnit;
  exports_.counter(scope, "ops_issued", kMessages, &stats_.ops_issued);
  exports_.counter(scope, "ops_completed", kMessages, &stats_.ops_completed);
  exports_.counter(scope, "ops_timed_out", kMessages, &stats_.ops_timed_out);
  exports_.counter(scope, "ops_aborted", kMessages, &stats_.ops_aborted);
  exports_.counter(scope, "replica_calls", kMessages, &stats_.replica_calls);
  exports_.counter(scope, "replica_acks", kMessages, &stats_.replica_acks);
  exports_.counter(scope, "replica_fails", kMessages, &stats_.replica_fails);
  exports_.counter(scope, "replica_late", kMessages, &stats_.replica_late);
  exports_.counter(scope, "retries", kCount, &stats_.retries);
  exports_.counter(scope, "read_repairs", kCount, &stats_.read_repairs);
  obs_inflight_ops_ = &m.gauge(scope, "inflight_ops", kCount);
  obs_op_ns_ = &m.histogram(scope, "op_ns", kNanoseconds);
}

sim::Coro<OpResult> ReplicatedKv::get(std::uint64_t key) {
  co_return co_await quorum_op(
      ReplicaArgs{.op = ReplicaOp::kRead, .key = key}, config_.read_quorum);
}

sim::Coro<OpResult> ReplicatedKv::put(std::uint64_t key,
                                      std::uint64_t value_bytes) {
  // Versions must be distinct per coordinator even for back-to-back
  // same-instant issues (open-loop bursts), so the stamp is bumped past
  // the previous one when the clock has not advanced.
  last_stamp_ = std::max(sim_.now(), last_stamp_ + 1);
  co_return co_await quorum_op(
      ReplicaArgs{.op = ReplicaOp::kWrite,
                  .key = key,
                  .version = Version{last_stamp_, config_.writer_id},
                  .value_bytes = value_bytes},
      config_.write_quorum);
}

sim::Coro<OpResult> ReplicatedKv::quorum_op(ReplicaArgs args, int need) {
  const int n = replicas();
  ++stats_.ops_issued;
  ++inflight_;
  obs_inflight_ops_->set(inflight_);
  const sim::Time t0 = sim_.now();
  OpResult res;
  res.status = OpStatus::kTimedOut;
  sim::Duration timeout = config_.op_timeout;
  std::shared_ptr<Attempt> at;
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    res.attempts = attempt + 1;
    at = std::make_shared<Attempt>(sim_, n);
    for (int i = 0; i < n; ++i) replica_call(at, i, args, need);
    const sim::EventId timer = sim_.schedule(timeout, [at] {
      if (at->settled) return;
      at->settled = true;
      at->trigger.fire();
    });
    if (!at->settled) co_await at->trigger.wait();
    if (at->quorum || at->aborted) sim_.cancel(timer);
    at->abandoned = true;  // replies from here on are late
    if (at->quorum) {
      res.status = OpStatus::kCompleted;
      if (args.op == ReplicaOp::kWrite) {
        res.version = args.version;
        res.value_bytes = args.value_bytes;
      } else {
        res.version = at->best;
        res.value_bytes = at->best_value;
      }
      break;
    }
    if (at->aborted) {
      res.status = OpStatus::kAborted;
      break;
    }
    if (attempt < config_.max_retries) {
      ++stats_.retries;
      timeout = static_cast<sim::Duration>(static_cast<double>(timeout) *
                                           config_.backoff);
    }
  }
  switch (res.status) {
    case OpStatus::kCompleted:
      ++stats_.ops_completed;
      break;
    case OpStatus::kTimedOut:
      ++stats_.ops_timed_out;
      break;
    case OpStatus::kAborted:
      ++stats_.ops_aborted;
      break;
  }
  obs_op_ns_->observe(sim_.now() - t0);
  --inflight_;
  obs_inflight_ops_->set(inflight_);
  // Read repair rides behind the completed read: push the newest
  // version to every responder that returned something older. Detached
  // and asynchronous — the op's latency does not pay for it.
  if (res.status == OpStatus::kCompleted && args.op == ReplicaOp::kRead &&
      config_.read_repair && at != nullptr) {
    for (int i = 0; i < n; ++i) {
      if (!at->replied[i] || !(at->seen[i] < at->best)) continue;
      ++stats_.read_repairs;
      repair_write(i, ReplicaArgs{.op = ReplicaOp::kWrite,
                                  .key = args.key,
                                  .version = at->best,
                                  .value_bytes = at->best_value});
    }
  }
  co_return res;
}

sim::Task ReplicatedKv::replica_call(std::shared_ptr<Attempt> at, int idx,
                                     ReplicaArgs args, int need) {
  ++stats_.replica_calls;
  auto body = std::make_shared<ReplicaArgs>(args);
  rpc::CallArgs call{
      .proc = static_cast<std::uint32_t>(args.op),
      .arg_bytes = kReplicaArgBytes,
      .data_to_server =
          args.op == ReplicaOp::kWrite ? args.value_bytes : 0,
      .body = std::move(body)};
  rpc::ReplyInfo r =
      co_await replicas_[static_cast<std::size_t>(idx)]->call(
          std::move(call));
  if (at->abandoned) {
    ++stats_.replica_late;
    co_return;
  }
  if (!r.ok) {
    ++at->fails;
    ++stats_.replica_fails;
    // Early abort: with this many hard failures even every remaining
    // reply cannot assemble the quorum, so waiting out the timer (and
    // the retry ladder — the transport already exhausted its own
    // give-up budget) would change nothing.
    if (!at->settled && replicas() - at->fails < need) {
      at->settled = true;
      at->aborted = true;
      at->trigger.fire();
    }
    co_return;
  }
  ++at->acks;
  ++stats_.replica_acks;
  const auto& rep = *static_cast<const ReplicaReply*>(r.body.get());
  at->replied[static_cast<std::size_t>(idx)] = true;
  at->seen[static_cast<std::size_t>(idx)] = rep.version;
  if (at->acks == 1 || rep.version > at->best) {
    at->best = rep.version;
    at->best_value = rep.value_bytes;
  }
  if (!at->settled && at->acks >= need) {
    at->settled = true;
    at->quorum = true;
    at->trigger.fire();
  }
}

sim::Task ReplicatedKv::repair_write(int idx, ReplicaArgs args) {
  auto body = std::make_shared<ReplicaArgs>(args);
  rpc::CallArgs call{.proc = static_cast<std::uint32_t>(ReplicaOp::kWrite),
                     .arg_bytes = kReplicaArgBytes,
                     .data_to_server = args.value_bytes,
                     .body = std::move(body)};
  co_await replicas_[static_cast<std::size_t>(idx)]->call(std::move(call));
}

}  // namespace ibwan::kv
