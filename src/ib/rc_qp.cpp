#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

#include "ib/hca.hpp"
#include "ib/qp.hpp"

namespace ibwan::ib {

namespace {
/// Packets needed for a message of `len` payload bytes (min 1: zero-length
/// messages still occupy one packet on the wire).
std::uint64_t packet_count(std::uint64_t len, std::uint32_t mtu) {
  return len == 0 ? 1 : (len + mtu - 1) / mtu;
}

bool is_atomic(Opcode op) {
  return op == Opcode::kFetchAdd || op == Opcode::kCompareSwap;
}

/// Atomics and their replies travel as fixed-size control messages
/// inside the reliable stream (which gives them exactly-once execution).
constexpr std::uint64_t kAtomicMsgBytes = 32;
}  // namespace

void Srq::post_recv(const RecvWr& wr) {
  q_.push_back(wr);
  // A refill may unblock any attached QP holding unclaimed messages.
  for (RcQp* qp : qps_) qp->match_receives();
}

RcQp::RcQp(Hca& hca, Qpn qpn, Cq& send_cq, Cq& recv_cq)
    : QpBase(hca, qpn, send_cq, recv_cq), exports_(hca.sim().metrics()) {
  auto& m = hca_.sim().metrics();
  const std::string scope = "node" + std::to_string(hca_.lid()) + "/ib.rc";
  using enum sim::MetricUnit;
  exports_.counter(scope, "msgs_sent", kMessages, &stats_.msgs_sent);
  exports_.counter(scope, "bytes_sent", kBytes, &stats_.bytes_sent);
  exports_.counter(scope, "pkts_retransmitted", kPackets,
                   &stats_.pkts_retransmitted);
  exports_.counter(scope, "acks_sent", kPackets, &stats_.acks_sent);
  exports_.counter(scope, "naks_sent", kPackets, &stats_.naks_sent);
  exports_.counter(scope, "rto_fires", kCount, &stats_.rto_fires);
  exports_.counter(scope, "retries_exhausted", kCount,
                   &stats_.retries_exhausted);
  exports_.counter(scope, "flushed_wqes", kMessages, &stats_.flushed_wqes);
  exports_.counter(scope, "send_completions", kMessages,
                   &stats_.send_completions);
  exports_.counter(scope, "window_stalls", kCount, &stats_.window_stalls);
  exports_.counter(scope, "window_stall_ns", kNanoseconds,
                   &stats_.window_stall_ns);
  obs_outstanding_wqes_ = &m.gauge(scope, "outstanding_wqes", kMessages);
  obs_ack_ns_ = &m.histogram(scope, "ack_ns", kNanoseconds);
  std::snprintf(trace_tag_, sizeof(trace_tag_), "rc-qp%u", qpn_);
}

RcQp::~RcQp() {
  disarm_rto();
  for (auto& pr : pending_reads_) hca_.sim().cancel(pr.retry_timer);
}

void RcQp::connect(Lid remote_lid, Qpn remote_qpn) {
  assert(remote_qpn != 0 && "QPN 0 is reserved");
  remote_lid_ = remote_lid;
  remote_qpn_ = remote_qpn;
}

void RcQp::post_send(const SendWr& wr) {
  assert(connected() && "post_send on unconnected RC QP");
  if (error_) {
    // Error state: complete immediately, flushed.
    flush_wqe(wr.opcode == Opcode::kRdmaRead ? CqeType::kRdmaReadComplete
              : is_atomic(wr.opcode)         ? CqeType::kAtomicComplete
                                             : CqeType::kSendComplete,
              wr);
    return;
  }
  if (wr.opcode == Opcode::kRdmaRead) {
    issue_read(wr);
    return;
  }
  if (is_atomic(wr.opcode)) {
    SendWr req = wr;
    req.length = kAtomicMsgBytes;
    pending_atomics_[req.wr_id] = req;
    sq_.push_back(req);
    try_transmit();
    return;
  }
  sq_.push_back(wr);
  try_transmit();
}

void RcQp::post_recv(const RecvWr& wr) {
  rq_.push_back(wr);
  match_receives();
}

// ---------------------------------------------------------------------------
// Requester side.
// ---------------------------------------------------------------------------

void RcQp::try_transmit() {
  const int window = hca_.config().rc_max_inflight_msgs;
  while (static_cast<int>(inflight_.size()) < window && !sq_.empty()) {
    if (win_stalled_) {
      // The window just reopened; account the time the SQ sat blocked.
      win_stalled_ = false;
      const sim::Duration stalled = hca_.sim().now() - win_stall_since_;
      stats_.window_stall_ns += stalled;
      hca_.sim().recorder().record(hca_.sim().now(),
                                   sim::TraceKind::kWindowResume, trace_tag_,
                                   stalled);
    }
    SendWr wr = sq_.front();
    sq_.pop_front();
    start_message(wr, /*internal=*/false, /*read_wr_id=*/0);
  }
  if (!win_stalled_ && !sq_.empty() &&
      static_cast<int>(inflight_.size()) >= window) {
    win_stalled_ = true;
    win_stall_since_ = hca_.sim().now();
    ++stats_.window_stalls;
    hca_.sim().recorder().record(hca_.sim().now(),
                                 sim::TraceKind::kWindowStall, trace_tag_,
                                 sq_.size(), inflight_.size());
  }
  obs_outstanding_wqes_->set(static_cast<std::int64_t>(inflight_.size()));
}

void RcQp::start_message(const SendWr& wr, bool internal,
                         std::uint64_t read_wr_id) {
  if (read_wr_id == 0 &&
      (is_atomic(wr.opcode) || wr.opcode == Opcode::kAtomicResp)) {
    read_wr_id = wr.wr_id;  // atomics correlate request and response
  }
  const std::uint32_t mtu = hca_.config().mtu;
  const std::uint64_t pkts = packet_count(wr.length, mtu);
  InflightMsg m{.wr = wr,
                .msg_seq = next_msg_seq_++,
                .start_psn = next_psn_,
                .end_psn = next_psn_ + pkts - 1,
                .internal = internal,
                .sent_at = hca_.sim().now()};
  next_psn_ += pkts;
  inflight_.push_back(m);
  ++stats_.msgs_sent;
  stats_.bytes_sent += wr.length;
  emit_packets(m, m.start_psn, read_wr_id);
  arm_rto();
}

void RcQp::emit_packets(const InflightMsg& m, std::uint64_t from_psn,
                        std::uint64_t read_wr_id) {
  const std::uint32_t mtu = hca_.config().mtu;
  for (std::uint64_t psn = from_psn; psn <= m.end_psn; ++psn) {
    const std::uint64_t idx = psn - m.start_psn;
    const std::uint64_t offset = idx * mtu;
    const std::uint32_t payload = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(mtu, m.wr.length - offset));
    auto pkt = std::make_shared<IbPacket>();
    pkt->type = IbPacketType::kData;
    pkt->dst_qpn = remote_qpn_;
    pkt->src_qpn = qpn_;
    pkt->op = m.wr.opcode;
    pkt->msg_seq = m.msg_seq;
    pkt->psn = psn;
    pkt->payload_bytes = payload;
    pkt->first = (psn == m.start_psn);
    pkt->last = (psn == m.end_psn);
    pkt->offset = offset;
    pkt->remote_addr = m.wr.remote_addr;
    pkt->total_length = m.wr.length;
    pkt->imm = m.wr.imm;
    pkt->has_imm = (m.wr.opcode == Opcode::kSend ||
                    m.wr.opcode == Opcode::kRdmaWriteWithImm);
    pkt->read_wr_id = read_wr_id;
    pkt->atomic_value = m.wr.atomic_operand;
    pkt->atomic_compare = m.wr.atomic_compare;
    if (pkt->last) pkt->app_payload = m.wr.app_payload;
    hca_.transmit(remote_lid_, std::move(pkt), payload + kRcHeaderBytes,
                  /*first_of_msg=*/psn == m.start_psn);
  }
}

void RcQp::handle_ack(std::uint64_t ack_psn) {
  if (ack_psn <= snd_una_) return;  // stale
  snd_una_ = ack_psn;
  rto_retries_ = 0;  // the wire is moving again
  bool completed_any = false;
  std::uint64_t completed_msgs = 0;
  while (!inflight_.empty() && inflight_.front().end_psn < ack_psn) {
    const InflightMsg m = inflight_.front();
    inflight_.pop_front();
    completed_any = true;
    ++completed_msgs;
    obs_ack_ns_->observe(hca_.sim().now() - m.sent_at);
    if (m.internal) {
      // A fully-acked read response; allow future requests for this id.
      active_read_resps_.erase(m.wr.wr_id);
    }
    if (is_atomic(m.wr.opcode)) {
      // The atomic request is on the wire reliably; its completion
      // comes with the kAtomicResp message, not the ack.
      continue;
    }
    if (!m.internal) {
      ++stats_.send_completions;
      send_cq_->push_after(hca_.config().cqe_latency,
                           Cqe{.type = CqeType::kSendComplete,
                               .wr_id = m.wr.wr_id,
                               .qpn = qpn_,
                               .byte_len = m.wr.length});
    }
  }
  if (sim::FlightRecorder& fr = hca_.sim().recorder(); fr.armed())
    fr.record(hca_.sim().now(), sim::TraceKind::kAckRecv, trace_tag_,
              ack_psn, completed_msgs);
  if (completed_any) {
    // Ack progress: restart the retransmission clock.
    disarm_rto();
    arm_rto();
    try_transmit();
  }
}

void RcQp::retransmit_from(std::uint64_t psn) {
  for (const InflightMsg& m : inflight_) {
    if (m.end_psn < psn) continue;
    const std::uint64_t from = std::max(psn, m.start_psn);
    stats_.pkts_retransmitted += m.end_psn - from + 1;
    hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kRetransmit,
                                 trace_tag_, from, next_psn_);
    // Read/atomic traffic must re-carry its correlation id.
    const bool correlated = m.wr.opcode == Opcode::kRdmaReadResp ||
                            m.wr.opcode == Opcode::kAtomicResp ||
                            is_atomic(m.wr.opcode);
    emit_packets(m, from, correlated ? m.wr.wr_id : 0);
  }
}

void RcQp::arm_rto() {
  if (rto_armed_ || inflight_.empty()) return;
  rto_armed_ = true;
  rto_timer_ = hca_.sim().schedule(hca_.config().rto, [this] {
    rto_armed_ = false;
    if (inflight_.empty()) return;
    ++stats_.rto_fires;
    hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kRtoFire,
                                 trace_tag_, snd_una_);
    if (++rto_retries_ > hca_.config().rc_retry_count) {
      enter_error();
      return;
    }
    retransmit_from(snd_una_);
    arm_rto();
  });
}

void RcQp::disarm_rto() {
  if (!rto_armed_) return;
  hca_.sim().cancel(rto_timer_);
  rto_armed_ = false;
}

void RcQp::flush_wqe(CqeType type, const SendWr& wr) {
  ++stats_.flushed_wqes;
  send_cq_->push_after(hca_.config().cqe_latency, Cqe{.type = type,
                                                      .wr_id = wr.wr_id,
                                                      .qpn = qpn_,
                                                      .byte_len = wr.length,
                                                      .success = false});
}

void RcQp::enter_error() {
  if (error_) return;
  error_ = true;
  ++stats_.retries_exhausted;
  const std::uint64_t outstanding = inflight_.size() + sq_.size() +
                                    pending_reads_.size() +
                                    read_queue_.size() +
                                    pending_atomics_.size();
  hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kQpError,
                               trace_tag_, snd_una_, outstanding);
  disarm_rto();
  // Flush every requester-side WQE with an error completion, oldest
  // first. Atomics complete through pending_atomics_ (their inflight/SQ
  // entry carries the same wr) and internal messages never complete
  // locally.
  for (const InflightMsg& m : inflight_) {
    if (m.internal) {
      active_read_resps_.erase(m.wr.wr_id);
      continue;
    }
    if (is_atomic(m.wr.opcode)) continue;
    flush_wqe(CqeType::kSendComplete, m.wr);
  }
  inflight_.clear();
  for (const SendWr& wr : sq_) {
    if (is_atomic(wr.opcode)) continue;
    flush_wqe(CqeType::kSendComplete, wr);
  }
  sq_.clear();
  for (const PendingRead& pr : pending_reads_) {
    hca_.sim().cancel(pr.retry_timer);
    flush_wqe(CqeType::kRdmaReadComplete, pr.wr);
  }
  pending_reads_.clear();
  for (const SendWr& wr : read_queue_) {
    flush_wqe(CqeType::kRdmaReadComplete, wr);
  }
  read_queue_.clear();
  // Deterministic flush order for the atomics map: by wr_id.
  std::vector<std::uint64_t> atomic_ids;
  atomic_ids.reserve(pending_atomics_.size());
  for (const auto& [id, wr] : pending_atomics_) atomic_ids.push_back(id);
  std::sort(atomic_ids.begin(), atomic_ids.end());
  for (std::uint64_t id : atomic_ids) {
    flush_wqe(CqeType::kAtomicComplete, pending_atomics_[id]);
  }
  pending_atomics_.clear();
  if (win_stalled_) {
    win_stalled_ = false;
    stats_.window_stall_ns += hca_.sim().now() - win_stall_since_;
  }
  obs_outstanding_wqes_->set(0);
}

// ---------------------------------------------------------------------------
// RDMA read (requester).
// ---------------------------------------------------------------------------

void RcQp::issue_read(const SendWr& wr) {
  if (static_cast<int>(pending_reads_.size()) <
      hca_.config().rc_max_outstanding_reads) {
    send_read_request(wr, /*retries=*/0);
  } else {
    read_queue_.push_back(wr);
  }
}

void RcQp::send_read_request(const SendWr& wr, int retries) {
  auto pkt = std::make_shared<IbPacket>();
  pkt->type = IbPacketType::kRdmaReadReq;
  pkt->dst_qpn = remote_qpn_;
  pkt->src_qpn = qpn_;
  pkt->remote_addr = wr.remote_addr;
  pkt->total_length = wr.length;
  pkt->read_wr_id = wr.wr_id;
  hca_.transmit(remote_lid_, std::move(pkt), kRcHeaderBytes,
                /*first_of_msg=*/true);
  // Requests are not covered by the PSN stream; a per-read timer retries
  // if the response never starts (request lost on the wire), up to the
  // QP retry budget — then the whole QP faults.
  PendingRead pr{.wr = wr, .retry_timer = 0, .retries = retries};
  pr.retry_timer = hca_.sim().schedule(hca_.config().rto, [this, wr,
                                                           retries] {
    for (auto& p : pending_reads_) {
      if (p.wr.wr_id == wr.wr_id) {
        if (retries + 1 > hca_.config().rc_retry_count) {
          enter_error();
          return;
        }
        // Re-send the request and re-arm by replacing the entry.
        p.retry_timer = 0;
        pending_reads_.erase(
            std::find_if(pending_reads_.begin(), pending_reads_.end(),
                         [&](const PendingRead& q) {
                           return q.wr.wr_id == wr.wr_id;
                         }));
        send_read_request(wr, retries + 1);
        return;
      }
    }
  });
  pending_reads_.push_back(pr);
}

// ---------------------------------------------------------------------------
// Responder / receiver side.
// ---------------------------------------------------------------------------

void RcQp::handle_packet(const IbPacket& pkt, Lid /*src_lid*/) {
  // An errored QP neither sends nor receives (IB error-state semantics);
  // late acks and stale data are dropped on the floor.
  if (error_) return;
  switch (pkt.type) {
    case IbPacketType::kAck:
      handle_ack(pkt.ack_psn);
      return;
    case IbPacketType::kNak:
      handle_ack(pkt.ack_psn);
      retransmit_from(pkt.ack_psn);
      return;
    case IbPacketType::kRdmaReadReq: {
      // Duplicate requests (retry raced with a served response) are
      // ignored if a response stream is already active for this id.
      if (active_read_resps_.count(pkt.read_wr_id) != 0) return;
      active_read_resps_.insert(pkt.read_wr_id);
      SendWr resp{.wr_id = pkt.read_wr_id,
                  .opcode = Opcode::kRdmaReadResp,
                  .length = pkt.total_length,
                  .remote_addr = pkt.remote_addr};
      start_message(resp, /*internal=*/true, pkt.read_wr_id);
      return;
    }
    case IbPacketType::kData:
      break;
  }

  // --- Reliable in-order data stream ---
  if (pkt.psn < expected_psn_) {
    // Duplicate from go-back-N: re-acknowledge so the sender advances.
    send_ack(IbPacketType::kAck);
    return;
  }
  if (pkt.psn > expected_psn_) {
    if (!nak_outstanding_) {
      nak_outstanding_ = true;
      ++stats_.naks_sent;
      hca_.sim().recorder().record(hca_.sim().now(), sim::TraceKind::kNakSend,
                                   trace_tag_, expected_psn_, pkt.psn);
      send_ack(IbPacketType::kNak);
    }
    return;
  }
  nak_outstanding_ = false;
  ++expected_psn_;
  ++pkts_since_ack_;

  if (pkt.first) {
    assembling_ = IncomingMsg{.msg_seq = pkt.msg_seq,
                              .op = pkt.op,
                              .total_length = pkt.total_length,
                              .received = 0,
                              .remote_addr = pkt.remote_addr,
                              .imm = pkt.imm,
                              .has_imm = pkt.has_imm,
                              .read_wr_id = pkt.read_wr_id,
                              .atomic_value = pkt.atomic_value,
                              .atomic_compare = pkt.atomic_compare};
  }
  assert(assembling_.has_value() && "mid-message packet with no assembly");
  assembling_->received += pkt.payload_bytes;

  if (pkt.last) {
    assert(assembling_->received == assembling_->total_length);
    assembling_->app_payload = pkt.app_payload;
    const IncomingMsg m = *assembling_;
    assembling_.reset();
    deliver_message(m);
    pkts_since_ack_ = 0;
    send_ack(IbPacketType::kAck);
  } else if (pkts_since_ack_ >= hca_.config().ack_interval_pkts) {
    pkts_since_ack_ = 0;
    send_ack(IbPacketType::kAck);
  }
}

void RcQp::send_ack(IbPacketType type) {
  auto pkt = std::make_shared<IbPacket>();
  pkt->type = type;
  pkt->dst_qpn = remote_qpn_;
  pkt->src_qpn = qpn_;
  pkt->ack_psn = expected_psn_;
  ++stats_.acks_sent;
  if (sim::FlightRecorder& fr = hca_.sim().recorder(); fr.armed())
    fr.record(hca_.sim().now(), sim::TraceKind::kAckSend, trace_tag_,
              expected_psn_);
  hca_.transmit(remote_lid_, std::move(pkt), kAckBytes,
                /*first_of_msg=*/false, /*on_serialized=*/{},
                /*control=*/true);
}

void RcQp::deliver_message(const IncomingMsg& m) {
  ++stats_.msgs_received;
  stats_.bytes_received += m.total_length;
  const HcaConfig& cfg = hca_.config();
  switch (m.op) {
    case Opcode::kSend:
    case Opcode::kRdmaWriteWithImm:
      if (m.op == Opcode::kRdmaWriteWithImm && rdma_listener_) {
        hca_.sim().schedule(cfg.rdma_detect_overhead,
                            [cb = rdma_listener_, m] {
                              cb(m.remote_addr, m.total_length, true);
                            });
      }
      unclaimed_.push_back(m);
      match_receives();
      break;
    case Opcode::kRdmaWrite:
      if (rdma_listener_) {
        hca_.sim().schedule(cfg.rdma_detect_overhead,
                            [cb = rdma_listener_, m] {
                              cb(m.remote_addr, m.total_length, false);
                            });
      }
      break;
    case Opcode::kRdmaReadResp: {
      // Requester side: a read we issued has fully landed.
      auto it = std::find_if(
          pending_reads_.begin(), pending_reads_.end(),
          [&](const PendingRead& p) { return p.wr.wr_id == m.read_wr_id; });
      if (it == pending_reads_.end()) return;  // duplicate response
      hca_.sim().cancel(it->retry_timer);
      const SendWr wr = it->wr;
      pending_reads_.erase(it);
      send_cq_->push_after(cfg.rdma_detect_overhead + cfg.cqe_latency,
                           Cqe{.type = CqeType::kRdmaReadComplete,
                               .wr_id = wr.wr_id,
                               .qpn = qpn_,
                               .byte_len = wr.length});
      if (!read_queue_.empty()) {
        SendWr next = read_queue_.front();
        read_queue_.pop_front();
        send_read_request(next, /*retries=*/0);
      }
      break;
    }
    case Opcode::kFetchAdd:
    case Opcode::kCompareSwap: {
      // Responder: execute on the target word, reply with the old value.
      // Exactly-once is inherited from the stream's reliable delivery.
      std::uint64_t& word = hca_.memory_word(m.remote_addr);
      const std::uint64_t old = word;
      if (m.op == Opcode::kFetchAdd) {
        word += m.atomic_value;
      } else if (word == m.atomic_compare) {
        word = m.atomic_value;
      }
      SendWr resp{.wr_id = m.read_wr_id,
                  .opcode = Opcode::kAtomicResp,
                  .length = kAtomicMsgBytes,
                  .atomic_operand = old};
      start_message(resp, /*internal=*/true, m.read_wr_id);
      break;
    }
    case Opcode::kAtomicResp: {
      // Requester: complete the pending atomic with its old value.
      auto it = pending_atomics_.find(m.read_wr_id);
      if (it == pending_atomics_.end()) break;
      const SendWr req = it->second;
      pending_atomics_.erase(it);
      send_cq_->push_after(cfg.rdma_detect_overhead + cfg.cqe_latency,
                           Cqe{.type = CqeType::kAtomicComplete,
                               .wr_id = req.wr_id,
                               .qpn = qpn_,
                               .byte_len = 8,
                               .atomic_old = m.atomic_value});
      break;
    }
    case Opcode::kRdmaRead:
      assert(false && "kRdmaRead never appears as a data stream opcode");
      break;
  }
}

void RcQp::match_receives() {
  const HcaConfig& cfg = hca_.config();
  while (!unclaimed_.empty()) {
    // The QP's own receive queue has priority; fall back to the SRQ.
    std::deque<RecvWr>* pool = nullptr;
    if (!rq_.empty()) {
      pool = &rq_;
    } else if (srq_ != nullptr && !srq_->q_.empty()) {
      pool = &srq_->q_;
    } else {
      return;
    }
    const IncomingMsg m = unclaimed_.front();
    unclaimed_.pop_front();
    const RecvWr r = pool->front();
    pool->pop_front();
    recv_cq_->push_after(cfg.recv_match_overhead + cfg.cqe_latency,
                         Cqe{.type = m.op == Opcode::kSend
                                         ? CqeType::kRecvComplete
                                         : CqeType::kRecvRdmaImm,
                             .wr_id = r.wr_id,
                             .qpn = qpn_,
                             .byte_len = m.total_length,
                             .imm = m.imm,
                             .has_imm = m.has_imm,
                             .src_qpn = remote_qpn_,
                             .app_payload = m.app_payload});
  }
}

}  // namespace ibwan::ib
