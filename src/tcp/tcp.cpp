#include "tcp/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>
#include <utility>

namespace ibwan::tcp {

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

TcpStack::TcpStack(ipoib::IpoibDevice& device, TcpConfig defaults)
    : device_(device), defaults_(defaults) {
  device_.set_ip_sink([this](ipoib::IpPacket&& p) { on_ip(std::move(p)); });
}

std::uint32_t TcpStack::effective_mss(const TcpConfig& cfg) const {
  if (cfg.mss != 0) return cfg.mss;
  return device_.config().mtu - 40;  // IP (20) + TCP (20) headers
}

TcpConnection& TcpStack::connect(NodeId dst, Port dst_port,
                                 std::optional<TcpConfig> cfg) {
  const Port local = next_ephemeral_++;
  auto conn = std::unique_ptr<TcpConnection>(new TcpConnection(
      *this, dst, local, dst_port, cfg.value_or(defaults_),
      /*is_client=*/true));
  TcpConnection& ref = *conn;
  conns_[ConnKey{dst, local, dst_port}] = std::move(conn);
  // Active open: SYN, retransmitted with backoff until established
  // (handshake datagrams are as loss-exposed as anything else).
  ref.syn_sent_ = true;
  ref.syn_sent_at_ = sim().now();
  ref.emit(0, 0, /*syn=*/true, /*syn_ack=*/false, /*force_ack=*/false);
  ref.arm_syn_retry();
  return ref;
}

void TcpStack::listen(Port port, std::function<void(TcpConnection&)> cb) {
  listeners_[port] = std::move(cb);
}

void TcpStack::on_ip(ipoib::IpPacket&& pkt) {
  const Segment seg = pkt.l4_as<Segment>();
  const ConnKey key{pkt.src, seg.dst_port, seg.src_port};
  auto it = conns_.find(key);
  if (it == conns_.end()) {
    if (seg.syn && listeners_.count(seg.dst_port) != 0) {
      // Passive open: create the server-side connection.
      auto conn = std::unique_ptr<TcpConnection>(
          new TcpConnection(*this, pkt.src, seg.dst_port, seg.src_port,
                            defaults_, /*is_client=*/false));
      TcpConnection& ref = *conn;
      conns_[key] = std::move(conn);
      ref.on_segment(seg);
      listeners_[seg.dst_port](ref);
      return;
    }
    return;
  }
  it->second->on_segment(seg);
}

void TcpStack::transmit(NodeId dst, const Segment& seg) {
  ipoib::IpPacket pkt;
  pkt.dst = dst;
  pkt.payload_bytes = seg.len;
  pkt.header_bytes = 40;
  pkt.l4 = std::make_shared<Segment>(seg);
  device_.send_ip(std::move(pkt));
}

// ---------------------------------------------------------------------------
// TcpConnection
// ---------------------------------------------------------------------------

TcpConnection::TcpConnection(TcpStack& stack, NodeId peer, Port local_port,
                             Port remote_port, TcpConfig cfg, bool is_client)
    : stack_(stack),
      peer_(peer),
      local_port_(local_port),
      remote_port_(remote_port),
      cfg_(cfg),
      is_client_(is_client),
      exports_(stack.sim().metrics()) {
  const double mss = stack_.effective_mss(cfg_);
  cwnd_ = mss * cfg_.init_cwnd_segs;
  peer_wnd_ = cfg_.window_bytes;  // refined by the first ack received
  rto_ = std::max<sim::Duration>(cfg_.min_rto, 10 * sim::kMillisecond);

  auto& m = stack_.sim().metrics();
  const std::string scope = "node" + std::to_string(stack_.lid()) + "/tcp";
  using enum sim::MetricUnit;
  exports_.counter(scope, "segs_sent", kPackets, &stats_.segs_sent);
  exports_.counter(scope, "segs_received", kPackets, &stats_.segs_received);
  exports_.counter(scope, "acks_sent", kPackets, &stats_.acks_sent);
  exports_.counter(scope, "retransmits", kPackets, &stats_.retransmits);
  exports_.counter(scope, "fast_retransmits", kCount, &stats_.fast_retransmits);
  exports_.counter(scope, "rto_fires", kCount, &stats_.rto_fires);
  exports_.counter(scope, "cwnd_stalls", kCount, &stats_.cwnd_stalls);
  exports_.counter(scope, "rwnd_stalls", kCount, &stats_.rwnd_stalls);
  exports_.counter(scope, "stall_ns", kNanoseconds, &stats_.stall_ns);
  exports_.counter(scope, "sack_blocks_advertised", kCount,
                   &stats_.sack_blocks_advertised);
  exports_.counter(scope, "sack_hole_retransmits", kCount,
                   &stats_.sack_hole_retransmits);
  obs_cwnd_bytes_ = &m.gauge(scope, "cwnd_bytes", kBytes);
  obs_srtt_ns_ = &m.gauge(scope, "srtt_ns", kNanoseconds);
  std::snprintf(trace_tag_, sizeof(trace_tag_), "tcp-%u-%u",
                static_cast<unsigned>(stack_.lid()),
                static_cast<unsigned>(local_port_));
}

void TcpConnection::send(std::uint64_t bytes) {
  app_bytes_ += bytes;
  if (established_) pump();
}

void TcpConnection::send_marked(std::uint64_t bytes,
                                std::shared_ptr<const void> marker) {
  app_bytes_ += bytes;
  markers_.emplace_back(app_bytes_, std::move(marker));
  if (established_) pump();
}

void TcpConnection::enter_established() {
  if (established_) return;
  established_ = true;
  if (on_established_) on_established_();
  pump();
}

void TcpConnection::on_segment(const Segment& seg) {
  ++stats_.segs_received;
  if (seg.syn && !seg.syn_ack) {
    // Server side: answer SYN with SYN|ACK. Data may ride later segments.
    emit(0, 0, /*syn=*/false, /*syn_ack=*/true, /*force_ack=*/false);
    return;
  }
  if (seg.syn_ack) {
    // Client side: handshake done; the ACK is implied by the first
    // data segment or a pure ack. The SYN round trip seeds the RTT
    // estimator so the first data RTO is never below the path RTT.
    peer_wnd_ = seg.wnd;
    const double sample =
        static_cast<double>(stack_.sim().now() - syn_sent_at_);
    srtt_ns_ = sample;
    rttvar_ns_ = sample / 2;
    stats_.srtt_us = srtt_ns_ / 1000.0;
    obs_srtt_ns_->set(static_cast<std::int64_t>(srtt_ns_));
    rto_ = std::clamp<sim::Duration>(
        static_cast<sim::Duration>(3.0 * sample), cfg_.min_rto,
        cfg_.max_rto);
    enter_established();
    if (snd_nxt_ >= app_bytes_) send_pure_ack();
    return;
  }
  // Server completes on first ack/data from the client.
  enter_established();
  if (seg.len > 0) on_data(seg);
  on_ack(seg);
}

void TcpConnection::on_data(const Segment& seg) {
  if (seg.seq == rcv_nxt_) {
    rcv_nxt_ += seg.len;
    if (on_delivered_) on_delivered_(seg.len);
    for (const auto& [offset, marker] : seg.markers) {
      if (offset <= rcv_nxt_ && on_marker_) on_marker_(marker);
    }
    if (cfg_.sack && !ooo_.empty()) {
      drain_ooo();
      // Filling a hole deserves an immediate ack with updated blocks.
      send_pure_ack();
      return;
    }
    ++unacked_segs_;
    maybe_delayed_ack();
  } else if (seg.seq > rcv_nxt_) {
    // A hole upstream. With SACK the data is kept and advertised;
    // without, it is dropped and the dup-ack asks for a full resend.
    if (cfg_.sack) buffer_ooo(seg);
    send_pure_ack();
  } else {
    // Old retransmission; re-ack.
    send_pure_ack();
  }
}

void TcpConnection::buffer_ooo(const Segment& seg) {
  std::uint64_t start = seg.seq;
  std::uint64_t end = seg.seq + seg.len;
  for (const auto& [offset, marker] : seg.markers) {
    ooo_markers_.emplace_back(offset, marker);
  }
  // Merge with overlapping/adjacent ranges.
  auto it = ooo_.lower_bound(start);
  if (it != ooo_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) {
      start = prev->first;
      end = std::max(end, prev->second);
      it = ooo_.erase(prev);
    }
  }
  while (it != ooo_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = ooo_.erase(it);
  }
  ooo_[start] = end;
}

void TcpConnection::drain_ooo() {
  auto it = ooo_.begin();
  while (it != ooo_.end() && it->first <= rcv_nxt_) {
    if (it->second > rcv_nxt_) {
      const std::uint64_t newly = it->second - rcv_nxt_;
      rcv_nxt_ = it->second;
      if (on_delivered_) on_delivered_(newly);
    }
    it = ooo_.erase(it);
  }
  flush_ready_markers();
}

void TcpConnection::flush_ready_markers() {
  // Buffered markers fire once their byte is in order; keep stream order.
  std::sort(ooo_markers_.begin(), ooo_markers_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  auto it = ooo_markers_.begin();
  while (it != ooo_markers_.end() && it->first <= rcv_nxt_) {
    if (on_marker_) on_marker_(it->second);
    it = ooo_markers_.erase(it);
  }
}

void TcpConnection::on_ack(const Segment& seg) {
  peer_wnd_ = seg.wnd;
  const double mss = stack_.effective_mss(cfg_);
  // SACK scoreboard upkeep.
  if (cfg_.sack) {
    for (const auto& [start, end] : seg.sack_blocks) {
      auto it = sacked_.lower_bound(start);
      std::uint64_t s = start, e = end;
      if (it != sacked_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= s) {
          s = prev->first;
          e = std::max(e, prev->second);
          it = sacked_.erase(prev);
        }
      }
      while (it != sacked_.end() && it->first <= e) {
        e = std::max(e, it->second);
        it = sacked_.erase(it);
      }
      sacked_[s] = e;
    }
  }
  if (seg.ack > snd_una_) {
    const std::uint64_t newly = seg.ack - snd_una_;
    snd_una_ = seg.ack;
    // An ack for data in flight before a go-back-N rewind can move
    // snd_una past the rewound snd_nxt; transmission resumes from the
    // acked point.
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dup_acks_ = 0;
    episode_resent_.clear();
    while (!sacked_.empty() && sacked_.begin()->second <= snd_una_) {
      sacked_.erase(sacked_.begin());
    }
    while (!markers_.empty() && markers_.front().first <= snd_una_) {
      markers_.pop_front();
    }
    // RTT sample (Karn: only for never-retransmitted probes).
    if (rtt_probe_ && snd_una_ > rtt_probe_->first) {
      const double sample =
          static_cast<double>(stack_.sim().now() - rtt_probe_->second);
      if (srtt_ns_ == 0) {
        srtt_ns_ = sample;
        rttvar_ns_ = sample / 2;
      } else {
        const double err = sample - srtt_ns_;
        srtt_ns_ += 0.125 * err;
        rttvar_ns_ += 0.25 * (std::abs(err) - rttvar_ns_);
      }
      stats_.srtt_us = srtt_ns_ / 1000.0;
      obs_srtt_ns_->set(static_cast<std::int64_t>(srtt_ns_));
      rto_ = std::clamp<sim::Duration>(
          static_cast<sim::Duration>(srtt_ns_ + 4 * rttvar_ns_),
          cfg_.min_rto, cfg_.max_rto);
      rtt_probe_.reset();
    }
    // Congestion control.
    if (cwnd_ < ssthresh_) {
      cwnd_ += static_cast<double>(std::min<std::uint64_t>(
          newly, static_cast<std::uint64_t>(mss)));
    } else {
      cwnd_ += mss * mss / cwnd_;
    }
    disarm_rto();
    if (snd_nxt_ > snd_una_) arm_rto();
    if (on_acked_) on_acked_(snd_una_);
    pump();
  } else if (seg.len == 0 && snd_nxt_ > snd_una_) {
    ++dup_acks_;
    if (cfg_.sack) {
      if (dup_acks_ == 3) {
        // Enter fast recovery once; holes-only retransmission.
        ++stats_.fast_retransmits;
        stack_.sim().recorder().record(stack_.sim().now(),
                                       sim::TraceKind::kFastRetransmit,
                                       trace_tag_, snd_una_);
        const double flight = static_cast<double>(snd_nxt_ - snd_una_);
        ssthresh_ = std::max(flight / 2, 2 * mss);
        cwnd_ = ssthresh_;
        rtt_probe_.reset();
      }
      if (dup_acks_ >= 3) retransmit_holes();
    } else if (dup_acks_ == 3) {
      // Fast retransmit; go-back-N (no SACK) with multiplicative decrease.
      ++stats_.fast_retransmits;
      stack_.sim().recorder().record(stack_.sim().now(),
                                     sim::TraceKind::kFastRetransmit,
                                     trace_tag_, snd_una_);
      const double flight = static_cast<double>(snd_nxt_ - snd_una_);
      ssthresh_ = std::max(flight / 2, 2 * mss);
      cwnd_ = ssthresh_;
      dup_acks_ = 0;
      rewind_high_ = std::max(rewind_high_, snd_nxt_);
      snd_nxt_ = snd_una_;
      rtt_probe_.reset();
      pump();
    }
  }
}

void TcpConnection::retransmit_holes() {
  // Resend un-sacked gaps between snd_una and the highest sacked byte,
  // once per recovery episode.
  std::uint64_t cursor = snd_una_;
  for (const auto& [start, end] : sacked_) {
    if (start > cursor && episode_resent_.insert(cursor).second) {
      ++stats_.retransmits;
      ++stats_.sack_hole_retransmits;
      emit_range(cursor, start);
    }
    cursor = std::max(cursor, end);
  }
  // The rescue retransmission (after RFC 6675's rule 4): a dropped
  // final segment sits above every SACK block, so the hole pass never
  // touches it and it used to wait out a full RTO. Resend only the last
  // segment, once per episode — the rest of the un-sacked tail is
  // usually still in flight, and if it really is lost the SACK this
  // elicits turns it into an ordinary hole for the pass above.
  if (!sacked_.empty() && cursor < snd_nxt_ &&
      episode_resent_.insert(snd_nxt_).second) {
    const std::uint32_t mss = stack_.effective_mss(cfg_);
    const std::uint64_t from =
        std::max(cursor, snd_nxt_ - std::min<std::uint64_t>(mss, snd_nxt_));
    ++stats_.retransmits;
    ++stats_.sack_hole_retransmits;
    emit_range(from, snd_nxt_);
  }
}

void TcpConnection::emit_range(std::uint64_t from, std::uint64_t to) {
  const std::uint32_t mss = stack_.effective_mss(cfg_);
  while (from < to) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(mss, to - from));
    emit(from, len, false, false, false);
    from += len;
  }
}

void TcpConnection::pump() {
  const std::uint32_t mss = stack_.effective_mss(cfg_);
  const std::uint64_t wnd = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(cwnd_), peer_wnd_);
  while (snd_nxt_ < app_bytes_ && snd_nxt_ - snd_una_ < wnd) {
    const std::uint64_t room = wnd - (snd_nxt_ - snd_una_);
    const std::uint32_t len = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        {static_cast<std::uint64_t>(mss), app_bytes_ - snd_nxt_, room}));
    if (len == 0) break;
    if (snd_nxt_ < snd_una_ + static_cast<std::uint64_t>(cwnd_)) {
      if (!rtt_probe_) rtt_probe_ = {snd_nxt_, stack_.sim().now()};
    }
    emit(snd_nxt_, len, false, false, false);
    // Anything below the rewind watermark has been on the wire before —
    // this send is a go-back-N retransmission. (snd_nxt_ < snd_una_ can
    // never hold here: the ack path clamps snd_nxt_ up to snd_una_.)
    if (snd_nxt_ < rewind_high_) {
      ++stats_.retransmits;
    }
    snd_nxt_ += len;
    arm_rto();
  }
  // Sender-stall accounting: data queued but the effective window —
  // min(cwnd, peer rwnd) — is exhausted. Which limit binds tells the
  // per-layer WAN story (rwnd: fig6a's -w knob; cwnd: loss recovery).
  const bool blocked =
      established_ && snd_nxt_ < app_bytes_ && snd_nxt_ - snd_una_ >= wnd;
  if (blocked && !stalled_) {
    stalled_ = true;
    stall_since_ = stack_.sim().now();
    const bool rwnd_limited = static_cast<double>(peer_wnd_) < cwnd_;
    ++(rwnd_limited ? stats_.rwnd_stalls : stats_.cwnd_stalls);
    stack_.sim().recorder().record(
        stack_.sim().now(),
        rwnd_limited ? sim::TraceKind::kRwndStall : sim::TraceKind::kCwndStall,
        trace_tag_, static_cast<std::uint64_t>(cwnd_), peer_wnd_);
  } else if (!blocked && stalled_) {
    stalled_ = false;
    stats_.stall_ns += stack_.sim().now() - stall_since_;
  }
  obs_cwnd_bytes_->set(static_cast<std::int64_t>(cwnd_));
}

void TcpConnection::emit(std::uint64_t seq, std::uint32_t len, bool syn,
                         bool syn_ack, bool /*force_ack*/) {
  Segment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_port_;
  seg.seq = seq;
  seg.len = len;
  seg.ack = rcv_nxt_;
  seg.wnd = cfg_.window_bytes;
  seg.syn = syn;
  seg.syn_ack = syn_ack;
  // Record-marking: ship any message boundaries this segment completes
  // (kept until acked so retransmissions re-carry them).
  for (const auto& [offset, marker] : markers_) {
    if (offset > seq + len) break;
    if (offset > seq) seg.markers.emplace_back(offset, marker);
  }
  ++stats_.segs_sent;
  if (len > 0) {
    // Data segments piggyback the current ack state.
    unacked_segs_ = 0;
    if (dack_armed_) {
      stack_.sim().cancel(dack_timer_);
      dack_armed_ = false;
    }
  }
  stack_.transmit(peer_, seg);
}

void TcpConnection::send_pure_ack() {
  ++stats_.acks_sent;
  unacked_segs_ = 0;
  if (dack_armed_) {
    stack_.sim().cancel(dack_timer_);
    dack_armed_ = false;
  }
  Segment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_port_;
  seg.seq = snd_nxt_;
  seg.len = 0;
  seg.ack = rcv_nxt_;
  seg.wnd = cfg_.window_bytes;
  if (cfg_.sack) {
    // Advertise up to three buffered ranges (most recent first is not
    // modeled; any order suffices for the scoreboard).
    int n = 0;
    for (const auto& [start, end] : ooo_) {
      if (++n > 3) break;
      seg.sack_blocks.emplace_back(start, end);
    }
    stats_.sack_blocks_advertised += seg.sack_blocks.size();
  }
  stack_.transmit(peer_, seg);
}

void TcpConnection::maybe_delayed_ack() {
  if (unacked_segs_ >= cfg_.ack_every) {
    send_pure_ack();
    return;
  }
  if (!dack_armed_) {
    dack_armed_ = true;
    dack_timer_ = stack_.sim().schedule(cfg_.delayed_ack_timeout, [this] {
      dack_armed_ = false;
      if (unacked_segs_ > 0) send_pure_ack();
    });
  }
}

void TcpConnection::arm_syn_retry() {
  syn_timer_ = stack_.sim().schedule(rto_, [this] {
    if (established_) return;
    ++stats_.retransmits;
    emit(0, 0, /*syn=*/true, /*syn_ack=*/false, /*force_ack=*/false);
    rto_ = std::min<sim::Duration>(rto_ * 2, cfg_.max_rto);
    arm_syn_retry();
  });
}

void TcpConnection::arm_rto() {
  if (rto_armed_) return;
  rto_armed_ = true;
  rto_timer_ = stack_.sim().schedule(rto_, [this] {
    rto_armed_ = false;
    on_rto();
  });
}

void TcpConnection::disarm_rto() {
  if (!rto_armed_) return;
  stack_.sim().cancel(rto_timer_);
  rto_armed_ = false;
}

void TcpConnection::on_rto() {
  if (snd_nxt_ <= snd_una_) return;  // nothing outstanding
  ++stats_.rto_fires;
  stack_.sim().recorder().record(stack_.sim().now(), sim::TraceKind::kTcpRto,
                                 trace_tag_, snd_una_);
  const double mss = stack_.effective_mss(cfg_);
  const double flight = static_cast<double>(snd_nxt_ - snd_una_);
  ssthresh_ = std::max(flight / 2, 2 * mss);
  cwnd_ = mss;
  rewind_high_ = std::max(rewind_high_, snd_nxt_);
  snd_nxt_ = snd_una_;  // go-back-N; pump() counts the resends
  rtt_probe_.reset();
  rto_ = std::min<sim::Duration>(rto_ * 2, cfg_.max_rto);  // backoff
  pump();
}

}  // namespace ibwan::tcp
