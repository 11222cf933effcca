// Point-to-point engine (eager + rendezvous) and job management.
#include "mpi/mpi.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace ibwan::mpi {

// ---------------------------------------------------------------------------
// Wire header and bookkeeping records.
// ---------------------------------------------------------------------------

struct Rank::MsgHeader {
  enum class Kind : std::uint8_t { kEager, kRts, kCts, kFin, kBundle };
  Kind kind = Kind::kEager;
  int src_rank = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sender_req = 0;
  std::uint64_t recv_req = 0;
  /// kBundle: the coalesced eager headers, in send order.
  std::shared_ptr<std::vector<MsgHeader>> bundle;
};

struct Rank::CoalesceBuf {
  std::vector<MsgHeader> msgs;
  std::uint64_t bytes = 0;
  bool timer_armed = false;
};

struct Rank::PostedRecv {
  int src = kAnySource;
  int tag = kAnyTag;
  std::uint64_t req_id = 0;
  std::shared_ptr<detail::RequestState> req;
};

struct Rank::UnexpectedMsg {
  MsgHeader header;
};

namespace {
// Send-CQE wr_id encoding: request id in the high bits, kind in the low 3.
enum WrKind : std::uint64_t {
  kWrEager = 0,
  kWrRts = 1,
  kWrCts = 2,
  kWrFin = 3,
  kWrData = 4,
};
std::uint64_t encode_wr(std::uint64_t req_id, WrKind kind) {
  return req_id * 8 + kind;
}
WrKind wr_kind(std::uint64_t wr_id) { return WrKind(wr_id % 8); }
std::uint64_t wr_req(std::uint64_t wr_id) { return wr_id / 8; }
}  // namespace

// ---------------------------------------------------------------------------
// Rank
// ---------------------------------------------------------------------------

Rank::Rank(Job& job, int rank, net::Node& node, const MpiConfig& cfg)
    : job_(job),
      rank_(rank),
      node_(node),
      cluster_(job.fabric().cluster_of(node.id())),
      cfg_(cfg),
      rendezvous_threshold_(cfg.rendezvous_threshold),
      exports_(node.sim().metrics()) {
  hca_ = std::make_unique<ib::Hca>(node_, cfg_.hca);
  scq_ = std::make_unique<ib::Cq>(node_.sim());
  rcq_ = std::make_unique<ib::Cq>(node_.sim());
  scq_->set_callback([this](const ib::Cqe& e) { on_send_cqe(e); });
  rcq_->set_callback([this](const ib::Cqe& e) { on_recv_cqe(e); });

  auto& m = sim().metrics();
  const std::string scope = "node" + std::to_string(node_.id()) + "/mpi";
  using enum sim::MetricUnit;
  exports_.counter(scope, "eager_sent", kMessages, &stats_.eager_sent);
  exports_.counter(scope, "rndv_sent", kMessages, &stats_.rndv_sent);
  exports_.counter(scope, "msgs_received", kMessages, &stats_.msgs_received);
  exports_.counter(scope, "unexpected", kMessages, &stats_.unexpected);
  exports_.counter(scope, "bytes_sent", kBytes, &stats_.bytes_sent);
  exports_.counter(scope, "coalesce_flushes", kCount, &stats_.coalesce_flushes);
  obs_bcast_ns_ = &m.histogram(scope, "bcast_ns", kNanoseconds);
  std::snprintf(trace_tag_, sizeof(trace_tag_), "rank%d", rank_);
}

int Rank::size() const { return job_.size(); }
sim::Simulator& Rank::sim() { return node_.sim(); }

sim::Time Rank::charge_cpu(sim::Duration d) {
  cpu_busy_ = std::max(sim().now(), cpu_busy_) + d;
  return cpu_busy_;
}

ib::RcQp* Rank::qp_to(int peer) {
  if (auto it = qps_.find(peer); it != qps_.end()) return it->second;
  // Connection establishment is done out-of-band (the CM exchange the
  // real library performs at init); both endpoints are created here.
  Rank& other = job_.rank(peer);
  ib::RcQp& mine = hca_->create_rc_qp(*scq_, *rcq_);
  ib::RcQp& theirs = other.hca_->create_rc_qp(*other.scq_, *other.rcq_);
  mine.connect(other.hca_->lid(), theirs.qpn());
  theirs.connect(hca_->lid(), mine.qpn());
  qps_[peer] = &mine;
  other.qps_[rank_] = &theirs;
  by_qpn_[mine.qpn()] = &mine;
  other.by_qpn_[theirs.qpn()] = &theirs;
  for (int i = 0; i < cfg_.prepost_recvs_per_qp; ++i) {
    mine.post_recv(ib::RecvWr{});
    theirs.post_recv(ib::RecvWr{});
  }
  return &mine;
}

void Rank::post_ctrl(int peer, const MsgHeader& h, std::uint32_t wire_bytes,
                     std::uint64_t wr_id) {
  ib::SendWr wr{.wr_id = wr_id,
                .length = wire_bytes,
                .app_payload = std::make_shared<MsgHeader>(h)};
  qp_to(peer)->post_send(wr);
}

Request Rank::isend(int dst, std::uint64_t bytes, int tag) {
  assert(dst >= 0 && dst < size() && dst != rank_);
  auto state = std::make_shared<detail::RequestState>(sim());
  const std::uint64_t id = next_req_id();
  active_sends_[id] = state;
  stats_.bytes_sent += bytes;

  if (bytes < rendezvous_threshold_) {
    ++stats_.eager_sent;
    sim().recorder().record(sim().now(), sim::TraceKind::kEagerSend,
                            trace_tag_, dst, bytes);
    // Eager is a *buffered* send: the request completes once the data
    // is copied into the pre-registered buffer (MVAPICH2 semantics);
    // the RC transport delivers reliably behind the application's back.
    active_sends_.erase(id);
    const auto copy = sim::duration_ceil(static_cast<double>(bytes) *
                                         cfg_.copy_ns_per_byte);
    const sim::Time t = charge_cpu(cfg_.call_overhead + copy);
    MsgHeader h{.kind = MsgHeader::Kind::kEager,
                .src_rank = rank_,
                .tag = tag,
                .bytes = bytes,
                .sender_req = id};
    if (cfg_.coalescing && bytes < cfg_.coalesce_msg_max) {
      sim().schedule_at(t, [this, dst, h, bytes, state] {
        auto& buf = coalesce_[dst];
        if (!buf) buf = std::make_unique<CoalesceBuf>();
        buf->msgs.push_back(h);
        buf->bytes += bytes;
        state->done = true;
        state->trigger.fire();
        if (buf->bytes >= cfg_.coalesce_flush_bytes) {
          flush_coalesce(dst);
        } else if (!buf->timer_armed) {
          buf->timer_armed = true;
          sim().schedule(cfg_.coalesce_flush_delay,
                         [this, dst] { flush_coalesce(dst); });
        }
      });
      return Request(state);
    }
    sim().schedule_at(t, [this, dst, h, bytes, id, state] {
      flush_coalesce(dst);  // non-overtaking: pending bundle goes first
      ib::SendWr wr{.wr_id = encode_wr(id, kWrEager),
                    .length = bytes + cfg_.eager_header_bytes,
                    .app_payload = std::make_shared<MsgHeader>(h)};
      qp_to(dst)->post_send(wr);
      state->done = true;
      state->trigger.fire();
    });
  } else {
    ++stats_.rndv_sent;
    sim().recorder().record(sim().now(), sim::TraceKind::kRndvRts,
                            trace_tag_, dst, bytes);
    rndv_bytes_[id] = bytes;
    const sim::Time t = charge_cpu(cfg_.call_overhead);
    MsgHeader h{.kind = MsgHeader::Kind::kRts,
                .src_rank = rank_,
                .tag = tag,
                .bytes = bytes,
                .sender_req = id};
    sim().schedule_at(t, [this, dst, h, id] {
      flush_coalesce(dst);  // non-overtaking vs buffered eager traffic
      post_ctrl(dst, h, cfg_.ctrl_bytes, encode_wr(id, kWrRts));
    });
  }
  return Request(state);
}

void Rank::flush_coalesce(int dst) {
  auto it = coalesce_.find(dst);
  if (it == coalesce_.end() || !it->second || it->second->msgs.empty()) {
    return;
  }
  ++stats_.coalesce_flushes;
  CoalesceBuf& buf = *it->second;
  MsgHeader h{.kind = MsgHeader::Kind::kBundle,
              .src_rank = rank_,
              .bytes = buf.bytes};
  h.bundle =
      std::make_shared<std::vector<MsgHeader>>(std::move(buf.msgs));
  const std::uint64_t wire =
      buf.bytes + h.bundle->size() * cfg_.eager_header_bytes;
  buf.msgs.clear();
  buf.bytes = 0;
  buf.timer_armed = false;
  ib::SendWr wr{.wr_id = encode_wr(0, kWrEager),
                .length = wire,
                .app_payload = std::make_shared<MsgHeader>(h)};
  qp_to(dst)->post_send(wr);
}

Request Rank::irecv(int src, int tag) {
  auto state = std::make_shared<detail::RequestState>(sim());
  const std::uint64_t id = next_req_id();
  active_recvs_[id] = state;

  // Check the unexpected queue first (in arrival order).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    const MsgHeader& h = it->header;
    const bool match = (src == kAnySource || src == h.src_rank) &&
                       (tag == kAnyTag || tag == h.tag);
    if (!match) continue;
    MsgHeader copy = h;
    unexpected_.erase(it);
    if (copy.kind == MsgHeader::Kind::kEager) {
      complete_eager_recv(state, copy);
    } else {
      assert(copy.kind == MsgHeader::Kind::kRts);
      send_cts(copy.src_rank, copy.sender_req, id);
    }
    return Request(state);
  }
  posted_recvs_.push_back(PostedRecv{src, tag, id, state});
  return Request(state);
}

bool Rank::matches(const PostedRecv& r, int src, int tag) const {
  return (r.src == kAnySource || r.src == src) &&
         (r.tag == kAnyTag || r.tag == tag);
}

void Rank::complete_eager_recv(std::shared_ptr<detail::RequestState> req,
                               const MsgHeader& h) {
  ++stats_.msgs_received;
  const auto copy = sim::duration_ceil(static_cast<double>(h.bytes) *
                                       cfg_.copy_ns_per_byte);
  const sim::Time t = charge_cpu(cfg_.call_overhead + copy);
  sim().schedule_at(t, [req, h] {
    req->bytes = h.bytes;
    req->src_rank = h.src_rank;
    req->done = true;
    req->trigger.fire();
  });
}

void Rank::send_cts(int src_rank, std::uint64_t sender_req,
                    std::uint64_t recv_req) {
  sim().recorder().record(sim().now(), sim::TraceKind::kRndvCts, trace_tag_,
                          src_rank);
  MsgHeader h{.kind = MsgHeader::Kind::kCts,
              .src_rank = rank_,
              .tag = 0,
              .bytes = 0,
              .sender_req = sender_req,
              .recv_req = recv_req};
  const sim::Time t = charge_cpu(cfg_.call_overhead);
  sim().schedule_at(t, [this, src_rank, h] {
    post_ctrl(src_rank, h, cfg_.ctrl_bytes, encode_wr(0, kWrCts));
  });
}

void Rank::on_recv_cqe(const ib::Cqe& cqe) {
  // Keep the channel's receive queue topped up.
  if (auto it = by_qpn_.find(cqe.qpn); it != by_qpn_.end()) {
    it->second->post_recv(ib::RecvWr{});
  }
  if (!cqe.app_payload) return;
  const MsgHeader& h = cqe.payload_as<MsgHeader>();
  switch (h.kind) {
    case MsgHeader::Kind::kEager:
      handle_eager(h);
      break;
    case MsgHeader::Kind::kBundle:
      for (const MsgHeader& sub : *h.bundle) handle_eager(sub);
      break;
    case MsgHeader::Kind::kRts:
      handle_rts(h);
      break;
    case MsgHeader::Kind::kCts:
      handle_cts(h);
      break;
    case MsgHeader::Kind::kFin:
      handle_fin(h);
      break;
  }
}

void Rank::handle_eager(const MsgHeader& h) {
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    if (matches(*it, h.src_rank, h.tag)) {
      auto req = it->req;
      posted_recvs_.erase(it);
      complete_eager_recv(req, h);
      return;
    }
  }
  ++stats_.unexpected;
  unexpected_.push_back(UnexpectedMsg{h});
}

void Rank::handle_rts(const MsgHeader& h) {
  for (auto it = posted_recvs_.begin(); it != posted_recvs_.end(); ++it) {
    if (matches(*it, h.src_rank, h.tag)) {
      const std::uint64_t recv_req = it->req_id;
      posted_recvs_.erase(it);
      send_cts(h.src_rank, h.sender_req, recv_req);
      return;
    }
  }
  ++stats_.unexpected;
  unexpected_.push_back(UnexpectedMsg{h});
}

void Rank::handle_cts(const MsgHeader& h) {
  // We are the rendezvous sender; the receiver is ready.
  auto it = rndv_bytes_.find(h.sender_req);
  assert(it != rndv_bytes_.end() && "CTS for unknown rendezvous send");
  const std::uint64_t bytes = it->second;
  rndv_bytes_.erase(it);
  const int dst = h.src_rank;
  MsgHeader fin{.kind = MsgHeader::Kind::kFin,
                .src_rank = rank_,
                .tag = 0,
                .bytes = bytes,
                .sender_req = h.sender_req,
                .recv_req = h.recv_req};
  const std::uint64_t id = h.sender_req;
  const sim::Time t = charge_cpu(cfg_.call_overhead);
  sim().schedule_at(t, [this, dst, bytes, fin, id] {
    ib::RcQp* qp = qp_to(dst);
    // Zero-copy payload, then FIN; RC ordering delivers FIN after data.
    qp->post_send(ib::SendWr{.wr_id = encode_wr(id, kWrData),
                             .opcode = ib::Opcode::kRdmaWrite,
                             .length = bytes});
    ib::SendWr finwr{.wr_id = encode_wr(id, kWrFin),
                     .length = cfg_.fin_bytes,
                     .app_payload = std::make_shared<MsgHeader>(fin)};
    qp->post_send(finwr);
  });
}

void Rank::handle_fin(const MsgHeader& h) {
  ++stats_.msgs_received;
  sim().recorder().record(sim().now(), sim::TraceKind::kRndvFin, trace_tag_,
                          h.src_rank, h.bytes);
  auto it = active_recvs_.find(h.recv_req);
  assert(it != active_recvs_.end() && "FIN for unknown receive");
  auto req = it->second;
  active_recvs_.erase(it);
  const sim::Time t = charge_cpu(cfg_.call_overhead);
  sim().schedule_at(t, [req, h] {
    req->bytes = h.bytes;
    req->src_rank = h.src_rank;
    req->done = true;
    req->trigger.fire();
  });
}

void Rank::on_send_cqe(const ib::Cqe& cqe) {
  const WrKind kind = wr_kind(cqe.wr_id);
  if (kind != kWrEager && kind != kWrFin) return;
  const std::uint64_t id = wr_req(cqe.wr_id);
  auto it = active_sends_.find(id);
  if (it == active_sends_.end()) return;
  auto req = it->second;
  active_sends_.erase(it);
  req->done = true;
  req->trigger.fire();
}

sim::Coro<void> Rank::wait(Request r) {
  assert(r.valid());
  if (!r.state_->done) co_await r.state_->trigger.wait();
}

sim::Coro<void> Rank::wait_all(std::vector<Request> rs) {
  for (auto& r : rs) co_await wait(r);
}

namespace {
// Detached watcher: signals the future with this request's index on
// completion (first writer wins).
sim::Task watch_request(std::shared_ptr<detail::RequestState> state,
                        int index, sim::Future<int> result,
                        std::shared_ptr<bool> signalled) {
  if (!state->done) co_await state->trigger.wait();
  if (!*signalled) {
    *signalled = true;
    result.set_value(index);
  }
}
}  // namespace

sim::Coro<int> Rank::wait_any(std::vector<Request> rs) {
  assert(!rs.empty());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (rs[i].done()) co_return static_cast<int>(i);
  }
  sim::Future<int> result(sim());
  auto signalled = std::make_shared<bool>(false);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    watch_request(rs[i].state_, static_cast<int>(i), result, signalled);
  }
  co_return co_await result;
}

sim::Coro<void> Rank::send(int dst, std::uint64_t bytes, int tag) {
  // Named local: GCC 12 double-destroys prvalue temporaries passed by
  // value into an awaited coroutine (see nfs.cpp for the same pattern).
  Request r = isend(dst, bytes, tag);
  co_await wait(r);
}

sim::Coro<std::uint64_t> Rank::recv(int src, int tag) {
  Request r = irecv(src, tag);
  co_await wait(r);
  co_return r.bytes();
}

// ---------------------------------------------------------------------------
// Job
// ---------------------------------------------------------------------------

Job::Job(net::Fabric& fabric, std::vector<net::NodeId> placement,
         MpiConfig cfg)
    : fabric_(fabric), cfg_(cfg) {
  assert(!placement.empty());
  for (std::size_t i = 0; i < placement.size(); ++i) {
    for (std::size_t j = i + 1; j < placement.size(); ++j) {
      assert(placement[i] != placement[j] &&
             "one rank per node: placements must not repeat");
    }
  }
  ranks_.reserve(placement.size());
  for (std::size_t i = 0; i < placement.size(); ++i) {
    ranks_.push_back(std::unique_ptr<Rank>(new Rank(
        *this, static_cast<int>(i), fabric_.node(placement[i]), cfg_)));
    if (ranks_.back()->cluster() == net::Cluster::kA) {
      ranks_a_.push_back(static_cast<int>(i));
    } else {
      ranks_b_.push_back(static_cast<int>(i));
    }
  }
}

Job::~Job() = default;

std::vector<net::NodeId> Job::split_placement(net::Fabric& fabric,
                                              int per_cluster) {
  std::vector<net::NodeId> placement;
  placement.reserve(2 * per_cluster);
  for (int i = 0; i < per_cluster; ++i) {
    placement.push_back(fabric.node_id(net::Cluster::kA, i));
  }
  for (int i = 0; i < per_cluster; ++i) {
    placement.push_back(fabric.node_id(net::Cluster::kB, i));
  }
  return placement;
}

sim::Task Job::run_rank(Rank& r, Program program) {
  co_await program(r);
  // The completion event runs on this rank's own site, whose clock at
  // that instant equals the sequential run's global clock there.
  finish_time_[static_cast<std::size_t>(r.rank())] = r.sim().now();
}

void Job::preconnect_cross_site() {
  for (int i = 0; i < size(); ++i) {
    for (int j = i + 1; j < size(); ++j) {
      if (rank(i).cluster() != rank(j).cluster()) rank(i).qp_to(j);
    }
  }
}

void Job::run(Program program) {
  start_time_ = fabric_.max_now();
  finish_time_.assign(static_cast<std::size_t>(size()), kUnfinished);
  if (fabric_.partitioned()) preconnect_cross_site();
  for (auto& r : ranks_) run_rank(*r, program);
}

double Job::execute(Program program) {
  run(std::move(program));
  fabric_.run_all();
  if (!finished()) {
    std::fprintf(stderr,
                 "mpi::Job: deadlock — %d of %d ranks finished with the "
                 "network idle\n",
                 finished_ranks(), size());
    std::abort();
  }
  return elapsed_seconds();
}

int Job::finished_ranks() const {
  int n = 0;
  for (const sim::Time t : finish_time_) n += (t != kUnfinished) ? 1 : 0;
  return n;
}

double Job::elapsed_seconds() const {
  sim::Time last = start_time_;
  for (const sim::Time t : finish_time_) {
    if (t != kUnfinished && t > last) last = t;
  }
  return sim::to_seconds(last - start_time_);
}

}  // namespace ibwan::mpi
