#include "ipoib/ipoib.hpp"

#include <cassert>
#include <utility>

namespace ibwan::ipoib {

IpoibDevice::IpoibDevice(ib::Hca& hca, IpoibConfig config)
    : hca_(hca), config_(config), scq_(hca.sim()), rcq_(hca.sim()) {
  if (config_.mode == Mode::kDatagram) {
    assert(config_.mtu <= kUdIpMtu && "datagram-mode MTU exceeds IB MTU");
  } else {
    assert(config_.mtu <= kConnectedIpMtu);
  }
  scq_.set_callback([](const ib::Cqe&) {});  // send completions unused
  rcq_.set_callback([this](const ib::Cqe& cqe) {
    // Repost the consumed receive, then walk the packet up the stack.
    if (config_.mode == Mode::kDatagram) {
      ud_qp_->post_recv(ib::RecvWr{});
    } else if (auto it = by_qpn_.find(cqe.qpn); it != by_qpn_.end()) {
      it->second->post_recv(ib::RecvWr{});
    }
    deliver_up(cqe);
  });
  if (config_.mode == Mode::kDatagram) {
    ud_qp_ = &hca_.create_ud_qp(scq_, rcq_);
    for (int i = 0; i < config_.prepost_recvs; ++i) {
      ud_qp_->post_recv(ib::RecvWr{});
    }
  }
}

void IpoibDevice::link(IpoibDevice& a, IpoibDevice& b) {
  if (a.config_.mode == Mode::kDatagram) {
    assert(b.config_.mode == Mode::kDatagram);
    a.neighbors_[b.lid()] = b.ud_qp_->qpn();
    b.neighbors_[a.lid()] = a.ud_qp_->qpn();
    return;
  }
  assert(b.config_.mode == Mode::kConnected);
  if (a.peers_.count(b.lid()) != 0) return;  // already connected
  ib::RcQp& qa = a.hca_.create_rc_qp(a.scq_, a.rcq_);
  ib::RcQp& qb = b.hca_.create_rc_qp(b.scq_, b.rcq_);
  qa.connect(b.lid(), qb.qpn());
  qb.connect(a.lid(), qa.qpn());
  a.peers_[b.lid()] = &qa;
  b.peers_[a.lid()] = &qb;
  a.by_qpn_[qa.qpn()] = &qa;
  b.by_qpn_[qb.qpn()] = &qb;
  for (int i = 0; i < a.config_.prepost_recvs; ++i) {
    qa.post_recv(ib::RecvWr{});
    qb.post_recv(ib::RecvWr{});
  }
}

sim::Duration IpoibDevice::tx_cpu_cost(const IpPacket& pkt) const {
  if (pkt.payload_bytes == 0) return config_.cpu_per_ack;
  return config_.cpu_per_packet +
         sim::duration_ceil(static_cast<double>(pkt.payload_bytes) *
                            config_.cpu_per_byte);
}

void IpoibDevice::send_ip(IpPacket&& pkt) {
  assert(pkt.payload_bytes + pkt.header_bytes <= config_.mtu &&
         "IP packet exceeds device MTU");
  pkt.src = lid();
  ++stats_.ip_tx;
  // Host transmit path: serialize on the tx CPU, then hand to the QP.
  sim::Simulator& s = sim();
  const sim::Time start = std::max(s.now(), tx_cpu_busy_) + tx_cpu_cost(pkt);
  tx_cpu_busy_ = start;
  auto shared = std::make_shared<IpPacket>(std::move(pkt));
  s.schedule_at(start, [this, shared] { post_to_fabric(*shared); });
}

void IpoibDevice::post_to_fabric(const IpPacket& pkt) {
  const std::uint64_t ib_len =
      pkt.payload_bytes + pkt.header_bytes + kEncapBytes;
  ib::SendWr wr{.length = ib_len,
                .app_payload = std::make_shared<IpPacket>(pkt)};
  if (config_.mode == Mode::kDatagram) {
    auto it = neighbors_.find(pkt.dst);
    if (it == neighbors_.end()) {
      ++stats_.tx_no_neighbor;
      return;
    }
    ud_qp_->post_send(wr, ib::UdDest{pkt.dst, it->second});
  } else {
    auto it = peers_.find(pkt.dst);
    if (it == peers_.end()) {
      ++stats_.tx_no_neighbor;
      return;
    }
    it->second->post_send(wr);
  }
}

void IpoibDevice::deliver_up(const ib::Cqe& cqe) {
  if (!cqe.app_payload) return;
  // Host receive path: serialize on the rx CPU before the socket layer.
  IpPacket pkt = cqe.payload_as<IpPacket>();
  sim::Simulator& s = sim();
  const sim::Time start = std::max(s.now(), rx_cpu_busy_) + tx_cpu_cost(pkt);
  rx_cpu_busy_ = start;
  ++stats_.ip_rx;
  auto shared = std::make_shared<IpPacket>(std::move(pkt));
  s.schedule_at(start, [this, shared] {
    if (ip_sink_) ip_sink_(std::move(*shared));
  });
}

}  // namespace ibwan::ipoib
