// Queue pairs: Reliable Connected (RC) and Unreliable Datagram (UD).
//
// RC implements the transport behaviour the paper's WAN results hinge on:
// MTU segmentation, PSN sequencing, cumulative ACK/NAK with go-back-N
// retransmission, a bounded in-flight message window, RDMA write (with
// and without immediate) and RDMA read. UD is fire-and-forget, one MTU
// per datagram, no acknowledgements — which is exactly why its WAN
// bandwidth is delay-independent (Figure 4).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ib/cq.hpp"
#include "ib/verbs.hpp"
#include "ib/wire.hpp"
#include "sim/simulator.hpp"

namespace ibwan::ib {

class Hca;
class RcQp;

/// Shared receive queue: a pool of receive WQEs consumed by any RC QP
/// attached to it (how middleware scales receive buffering across many
/// connections).
class Srq {
 public:
  void post_recv(const RecvWr& wr);
  void attach(RcQp* qp) { qps_.push_back(qp); }
  std::size_t depth() const { return q_.size(); }

 private:
  friend class RcQp;
  std::deque<RecvWr> q_;
  std::vector<RcQp*> qps_;
};

class QpBase {
 public:
  QpBase(Hca& hca, Qpn qpn, Cq& send_cq, Cq& recv_cq)
      : hca_(hca), qpn_(qpn), send_cq_(&send_cq), recv_cq_(&recv_cq) {}
  virtual ~QpBase() = default;

  QpBase(const QpBase&) = delete;
  QpBase& operator=(const QpBase&) = delete;

  Qpn qpn() const { return qpn_; }

  /// Inbound packet dispatch (called by the owning HCA's receive engine).
  virtual void handle_packet(const IbPacket& pkt, Lid src_lid) = 0;

 protected:
  Hca& hca_;
  Qpn qpn_;
  Cq* send_cq_;
  Cq* recv_cq_;
};

/// Reliable Connected queue pair.
class RcQp : public QpBase {
 public:
  struct Stats {
    std::uint64_t msgs_sent = 0;
    std::uint64_t msgs_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t pkts_retransmitted = 0;
    std::uint64_t naks_sent = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t rto_fires = 0;
    std::uint64_t retries_exhausted = 0;  // error-state transitions
    std::uint64_t flushed_wqes = 0;       // WQEs completed with success=false
    /// Send/RDMA-write WQEs completed with success=true. Conservation
    /// (src/check/oracles.cpp): on a drained, fault-free run with no
    /// RDMA reads, send_completions == msgs_sent; in general
    /// send_completions <= msgs_sent (internal read responses and
    /// error-state flushes account for the difference).
    std::uint64_t send_completions = 0;
    /// Times the SQ blocked on a full in-flight window, and the
    /// simulated time it stayed blocked (the fig5 WAN bottleneck).
    std::uint64_t window_stalls = 0;
    std::uint64_t window_stall_ns = 0;
  };

  RcQp(Hca& hca, Qpn qpn, Cq& send_cq, Cq& recv_cq);
  ~RcQp() override;

  /// One-sided connection setup (LID + QPN exchange is assumed done
  /// out-of-band by the subnet/communication manager).
  void connect(Lid remote_lid, Qpn remote_qpn);
  bool connected() const { return remote_qpn_ != 0; }
  Lid remote_lid() const { return remote_lid_; }

  void post_send(const SendWr& wr);
  void post_recv(const RecvWr& wr);

  /// Attaches a shared receive queue; incoming sends consume from it
  /// when the QP's own receive queue is empty.
  void set_srq(Srq* srq) {
    srq_ = srq;
    srq->attach(this);
  }

  /// Observer for completed inbound RDMA writes (address, byte count,
  /// immediate-present). Fires once per write message, at placement time.
  void set_rdma_write_listener(
      std::function<void(std::uint64_t, std::uint64_t, bool)> cb) {
    rdma_listener_ = std::move(cb);
  }

  const Stats& stats() const { return stats_; }
  std::size_t send_queue_depth() const {
    return sq_.size() + inflight_.size();
  }

  /// True once retry-count exhaustion moved the QP to the error state:
  /// every outstanding WQE has been flushed with success=false and
  /// further posts complete immediately the same way.
  bool in_error() const { return error_; }

  void handle_packet(const IbPacket& pkt, Lid src_lid) override;

 private:
  struct InflightMsg {
    SendWr wr;
    std::uint64_t msg_seq = 0;
    std::uint64_t start_psn = 0;
    std::uint64_t end_psn = 0;  // inclusive
    bool internal = false;      // read responses complete no local CQE
    sim::Time sent_at = 0;      // first emission time (ack-latency metric)
  };
  struct IncomingMsg {
    std::uint64_t msg_seq = 0;
    Opcode op = Opcode::kSend;
    std::uint64_t total_length = 0;
    std::uint64_t received = 0;
    std::uint64_t remote_addr = 0;
    std::uint32_t imm = 0;
    bool has_imm = false;
    std::uint64_t read_wr_id = 0;
    std::uint64_t atomic_value = 0;
    std::uint64_t atomic_compare = 0;
    std::shared_ptr<const void> app_payload;
  };
  struct PendingRead {
    SendWr wr;
    sim::EventId retry_timer = 0;
    int retries = 0;
  };

  friend class Srq;
  void try_transmit();
  void start_message(const SendWr& wr, bool internal,
                     std::uint64_t read_wr_id);
  void emit_packets(const InflightMsg& m, std::uint64_t from_psn,
                    std::uint64_t read_wr_id);
  void deliver_message(const IncomingMsg& m);
  void match_receives();
  void send_ack(IbPacketType type);
  void handle_ack(std::uint64_t ack_psn);
  void retransmit_from(std::uint64_t psn);
  void arm_rto();
  void disarm_rto();
  void issue_read(const SendWr& wr);
  void send_read_request(const SendWr& wr, int retries);
  void enter_error();
  void flush_wqe(CqeType type, const SendWr& wr);

  // --- Requester / sender state ---
  Lid remote_lid_ = 0;
  Qpn remote_qpn_ = 0;
  std::deque<SendWr> sq_;
  std::deque<InflightMsg> inflight_;
  std::uint64_t next_msg_seq_ = 0;
  std::uint64_t next_psn_ = 0;
  std::uint64_t snd_una_ = 0;  // oldest unacked PSN
  sim::EventId rto_timer_ = 0;
  bool rto_armed_ = false;
  int rto_retries_ = 0;  // consecutive fires with no ack progress
  bool error_ = false;
  // Maps in-flight read wr_id -> pending request (bounded by
  // rc_max_outstanding_reads; excess queued in read_queue_).
  std::deque<SendWr> read_queue_;
  std::deque<PendingRead> pending_reads_;
  /// Responder side: read ids with an active/queued response stream, so
  /// retried requests are not served twice.
  std::unordered_set<std::uint64_t> active_read_resps_;

  // --- Responder / receiver state ---
  std::uint64_t expected_psn_ = 0;
  std::optional<IncomingMsg> assembling_;
  std::uint32_t pkts_since_ack_ = 0;
  bool nak_outstanding_ = false;
  std::deque<RecvWr> rq_;
  Srq* srq_ = nullptr;
  std::deque<IncomingMsg> unclaimed_;  // sends that arrived before a recv
  std::function<void(std::uint64_t, std::uint64_t, bool)> rdma_listener_;
  /// Requester-side atomics awaiting their response: wr_id -> request.
  std::unordered_map<std::uint64_t, SendWr> pending_atomics_;

  Stats stats_;

  // Registered metrics (docs/METRICS.md §ib.rc); scope "node<lid>/ib.rc".
  sim::CounterExports exports_;
  sim::Gauge* obs_outstanding_wqes_;
  sim::Histogram* obs_ack_ns_;
  char trace_tag_[12];  // "rc-qp<N>"
  // Send-window stall tracking: stalled whenever the SQ is non-empty but
  // the bounded in-flight window is full (the fig5 WAN bottleneck).
  bool win_stalled_ = false;
  sim::Time win_stall_since_ = 0;
};

/// Unreliable Datagram queue pair.
class UdQp : public QpBase {
 public:
  struct Stats {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t datagrams_dropped_no_recv = 0;
    std::uint64_t bytes_sent = 0;
  };

  UdQp(Hca& hca, Qpn qpn, Cq& send_cq, Cq& recv_cq);

  /// Sends one datagram (payload must fit the path MTU).
  void post_send(const SendWr& wr, UdDest dest);
  void post_recv(const RecvWr& wr);

  const Stats& stats() const { return stats_; }

  void handle_packet(const IbPacket& pkt, Lid src_lid) override;

 private:
  std::deque<RecvWr> rq_;
  Stats stats_;
  // Registered metrics (docs/METRICS.md §ib.ud); scope "node<lid>/ib.ud".
  sim::CounterExports exports_;
};

}  // namespace ibwan::ib
