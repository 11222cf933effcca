// TCP over IPoIB.
//
// A byte-stream TCP modeled at segment granularity: sliding window
// bounded by min(cwnd, peer receive window), slow start and congestion
// avoidance (Reno-style), delayed acknowledgements, duplicate-ack fast
// retransmit and an adaptive retransmission timeout with go-back-N
// recovery (no SACK — matching the era's default RHEL stacks).
//
// The receive-window knob is the paper's Figure 6(a) parameter; the
// segment size follows the IPoIB device MTU, which is Figure 7(a)'s
// parameter.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ipoib/ipoib.hpp"
#include "sim/simulator.hpp"

namespace ibwan::tcp {

using Port = std::uint16_t;
using net::NodeId;

struct TcpConfig {
  /// Receive window / socket buffer in bytes (benchmark -w flag).
  std::uint32_t window_bytes = 1 << 20;
  /// Max segment payload; 0 derives device MTU - 40 (IP+TCP headers).
  std::uint32_t mss = 0;
  /// Initial congestion window, in segments.
  std::uint32_t init_cwnd_segs = 2;
  /// Ack every N data segments (delayed ack), with a timer fallback.
  std::uint32_t ack_every = 2;
  sim::Duration delayed_ack_timeout = 500 * sim::kMicrosecond;
  sim::Duration min_rto = 2 * sim::kMillisecond;
  sim::Duration max_rto = 500 * sim::kMillisecond;
  /// Selective acknowledgment: the receiver buffers out-of-order data
  /// and advertises it; the sender retransmits only the holes. Off by
  /// default (the era's stacks the paper measured ran without it on
  /// IPoIB); the ablation bench quantifies what it would have bought.
  bool sack = false;
};

/// TCP header descriptor carried inside an IpPacket.
struct Segment {
  Port src_port = 0;
  Port dst_port = 0;
  std::uint64_t seq = 0;  // first payload byte
  std::uint32_t len = 0;  // payload bytes
  std::uint64_t ack = 0;  // cumulative ack (next expected byte)
  std::uint32_t wnd = 0;  // advertised receive window
  bool syn = false;
  bool syn_ack = false;
  /// SACK blocks: received-but-not-yet-acked ranges [start, end).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sack_blocks;
  /// Stream markers (end_offset, descriptor) completed by this segment.
  /// This is how record-marked protocols (RPC) ride the simulated
  /// stream: the simulator carries no payload bytes, so message
  /// boundaries travel as metadata attached to the segment that carries
  /// the record's final byte.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const void>>> markers;
};

class TcpStack;

class TcpConnection {
 public:
  struct Stats {
    std::uint64_t segs_sent = 0;
    std::uint64_t segs_received = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t rto_fires = 0;
    std::uint64_t fast_retransmits = 0;
    /// Sender stalls on an exhausted window, split by which limit bound
    /// (cwnd or the peer's rwnd), and the simulated time spent stalled.
    std::uint64_t cwnd_stalls = 0;
    std::uint64_t rwnd_stalls = 0;
    std::uint64_t stall_ns = 0;
    std::uint64_t sack_blocks_advertised = 0;
    std::uint64_t sack_hole_retransmits = 0;  // also in retransmits
    double srtt_us = 0;
  };

  /// Queues `bytes` of application data for transmission.
  void send(std::uint64_t bytes);

  /// Queues `bytes` and marks the end of the record with `marker`, which
  /// pops out at the peer (set_on_marker) once the final byte is
  /// delivered in order. This is RPC record marking.
  void send_marked(std::uint64_t bytes, std::shared_ptr<const void> marker);

  /// Receiver-side: fires once per marker, in stream order.
  void set_on_marker(
      std::function<void(std::shared_ptr<const void>)> cb) {
    on_marker_ = std::move(cb);
  }

  /// Receiver-side: invoked with each chunk of newly delivered in-order
  /// payload bytes.
  void set_on_delivered(std::function<void(std::uint64_t)> cb) {
    on_delivered_ = std::move(cb);
  }
  /// Sender-side: invoked as the cumulative acked byte count advances.
  void set_on_acked(std::function<void(std::uint64_t)> cb) {
    on_acked_ = std::move(cb);
  }
  /// Invoked once when the handshake completes (client side).
  void set_on_established(std::function<void()> cb) {
    on_established_ = std::move(cb);
  }

  bool established() const { return established_; }
  std::uint64_t bytes_delivered() const { return rcv_nxt_; }
  std::uint64_t bytes_acked() const { return snd_una_; }
  double cwnd_bytes() const { return cwnd_; }
  const Stats& stats() const { return stats_; }
  const TcpConfig& config() const { return cfg_; }

 private:
  friend class TcpStack;
  TcpConnection(TcpStack& stack, NodeId peer, Port local_port,
                Port remote_port, TcpConfig cfg, bool is_client);

  void on_segment(const Segment& seg);
  void on_data(const Segment& seg);
  void on_ack(const Segment& seg);
  void buffer_ooo(const Segment& seg);
  void drain_ooo();
  void flush_ready_markers();
  void retransmit_holes();
  void emit_range(std::uint64_t from, std::uint64_t to);
  void arm_syn_retry();
  void pump();
  void emit(std::uint64_t seq, std::uint32_t len, bool syn, bool syn_ack,
            bool force_ack);
  void send_pure_ack();
  void maybe_delayed_ack();
  void enter_established();
  void arm_rto();
  void disarm_rto();
  void on_rto();

  TcpStack& stack_;
  NodeId peer_;
  Port local_port_;
  Port remote_port_;
  TcpConfig cfg_;
  bool is_client_;
  bool established_ = false;
  bool syn_sent_ = false;
  sim::Time syn_sent_at_ = 0;
  sim::EventId syn_timer_ = 0;

  // Sender.
  std::uint64_t app_bytes_ = 0;  // total bytes the app has queued
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  /// Highest snd_nxt_ reached before any go-back-N rewind; sends below
  /// it are retransmissions (counted in Stats::retransmits by pump()).
  std::uint64_t rewind_high_ = 0;
  double cwnd_ = 0;
  double ssthresh_ = 1e18;
  std::uint32_t peer_wnd_ = 0;
  int dup_acks_ = 0;
  sim::EventId rto_timer_ = 0;
  bool rto_armed_ = false;
  sim::Duration rto_ = 0;
  double srtt_ns_ = 0;
  double rttvar_ns_ = 0;
  std::optional<std::pair<std::uint64_t, sim::Time>> rtt_probe_;

  // Receiver.
  std::uint64_t rcv_nxt_ = 0;
  std::uint32_t unacked_segs_ = 0;
  sim::EventId dack_timer_ = 0;
  bool dack_armed_ = false;
  /// SACK receiver: buffered out-of-order ranges (start -> end, merged)
  /// and the markers they carried.
  std::map<std::uint64_t, std::uint64_t> ooo_;
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const void>>>
      ooo_markers_;

  // SACK sender scoreboard.
  std::map<std::uint64_t, std::uint64_t> sacked_;
  std::set<std::uint64_t> episode_resent_;

  std::function<void(std::uint64_t)> on_delivered_;
  std::function<void(std::uint64_t)> on_acked_;
  std::function<void()> on_established_;
  std::function<void(std::shared_ptr<const void>)> on_marker_;
  /// Sender-side pending markers, ascending by end offset; entries are
  /// dropped once cumulatively acked.
  std::deque<std::pair<std::uint64_t, std::shared_ptr<const void>>>
      markers_;
  Stats stats_;

  // Registered metrics (docs/METRICS.md §tcp); scope "node<lid>/tcp".
  sim::CounterExports exports_;
  sim::Gauge* obs_cwnd_bytes_;
  sim::Gauge* obs_srtt_ns_;
  char trace_tag_[15];  // "tcp-<lid>-<port>"
  // Sender-stall tracking: stalled whenever queued app data cannot move
  // because min(cwnd, peer window) is exhausted (fig6's WAN bottleneck).
  bool stalled_ = false;
  sim::Time stall_since_ = 0;
};

/// Per-node TCP endpoint: demultiplexes segments from the IPoIB device
/// to connections, owns ports.
class TcpStack {
 public:
  TcpStack(ipoib::IpoibDevice& device, TcpConfig defaults = {});

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Active open. The returned connection buffers sends until the
  /// handshake completes.
  TcpConnection& connect(NodeId dst, Port dst_port,
                         std::optional<TcpConfig> cfg = std::nullopt);

  /// Passive open: `on_accept` fires with each new established
  /// connection on `port`.
  void listen(Port port, std::function<void(TcpConnection&)> on_accept);

  NodeId lid() const { return device_.lid(); }
  sim::Simulator& sim() { return device_.sim(); }
  ipoib::IpoibDevice& device() { return device_; }
  std::uint32_t effective_mss(const TcpConfig& cfg) const;

 private:
  friend class TcpConnection;
  struct ConnKey {
    NodeId peer;
    Port local;
    Port remote;
    bool operator<(const ConnKey& o) const {
      if (peer != o.peer) return peer < o.peer;
      if (local != o.local) return local < o.local;
      return remote < o.remote;
    }
  };

  void on_ip(ipoib::IpPacket&& pkt);
  void transmit(NodeId dst, const Segment& seg);

  ipoib::IpoibDevice& device_;
  TcpConfig defaults_;
  std::map<ConnKey, std::unique_ptr<TcpConnection>> conns_;
  std::map<Port, std::function<void(TcpConnection&)>> listeners_;
  Port next_ephemeral_ = 40000;
};

}  // namespace ibwan::tcp
