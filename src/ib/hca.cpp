#include "ib/hca.hpp"

#include <cassert>
#include <utility>

namespace ibwan::ib {

Hca::Hca(net::Node& node, HcaConfig config)
    : node_(node), rx_lane_(node.sim().make_lane()), config_(config) {
  node_.set_receiver([this](net::Packet&& p) { on_node_packet(std::move(p)); });
  const std::string scope = "node" + std::to_string(lid()) + "/ib.hca";
  using enum sim::MetricUnit;
  exports_.counter(scope, "pkts_tx", kPackets, &stats_.pkts_tx);
  exports_.counter(scope, "pkts_rx", kPackets, &stats_.pkts_rx);
  exports_.counter(scope, "pkts_unroutable", kPackets, &stats_.pkts_unroutable);
}

RcQp& Hca::create_rc_qp(Cq& send_cq, Cq& recv_cq) {
  auto qp = std::make_unique<RcQp>(*this, next_qpn_++, send_cq, recv_cq);
  RcQp& ref = *qp;
  qp_index_[ref.qpn()] = qp.get();
  qps_.push_back(std::move(qp));
  return ref;
}

UdQp& Hca::create_ud_qp(Cq& send_cq, Cq& recv_cq) {
  auto qp = std::make_unique<UdQp>(*this, next_qpn_++, send_cq, recv_cq);
  UdQp& ref = *qp;
  qp_index_[ref.qpn()] = qp.get();
  qps_.push_back(std::move(qp));
  return ref;
}

Mr Hca::register_mr(std::uint64_t length) {
  Mr mr{.addr = next_mr_addr_, .length = length, .rkey = next_rkey_++};
  // Page-align the next region so addresses stay visually distinct.
  next_mr_addr_ += (length + 4095) & ~std::uint64_t{4095};
  return mr;
}

void Hca::transmit(Lid dst, std::shared_ptr<const IbPacket> pkt,
                   std::uint32_t wire_size, bool first_of_msg,
                   std::function<void()> on_serialized, bool control) {
  TxItem item{.dst = dst,
              .pkt = std::move(pkt),
              .wire_size = wire_size,
              .first_of_msg = first_of_msg,
              .control = control,
              .on_serialized = std::move(on_serialized)};
  (control ? txq_ctrl_ : txq_data_).push_back(std::move(item));
  if (!tx_busy_) tx_drain();
}

void Hca::tx_drain() {
  std::deque<TxItem>* q = !txq_ctrl_.empty()
                              ? &txq_ctrl_
                              : (!txq_data_.empty() ? &txq_data_ : nullptr);
  if (q == nullptr) {
    tx_busy_ = false;
    return;
  }
  tx_busy_ = true;
  auto item = std::make_shared<TxItem>(std::move(q->front()));
  q->pop_front();
  // Control packets are responder-generated; they skip the WQE fetch.
  sim::Duration cost = config_.pkt_overhead;
  if (item->first_of_msg && !item->control) cost += config_.wqe_overhead;
  ++stats_.pkts_tx;
  const std::uint64_t id = next_pkt_id_++;
  sim().schedule(cost, [this, item, id] {
    net::Packet p;
    p.dst = item->dst;
    p.wire_size = item->wire_size;
    p.id = id;
    p.control = item->control;
    p.payload = std::move(item->pkt);
    p.on_serialized = std::move(item->on_serialized);
    node_.send(std::move(p));
    tx_drain();
  });
}

void Hca::on_node_packet(net::Packet&& p) {
  sim::Simulator& s = sim();
  const sim::Time start =
      std::max(s.now(), rx_busy_) + config_.rx_pkt_overhead;
  rx_busy_ = start;
  ++stats_.pkts_rx;
  auto payload =
      std::static_pointer_cast<const IbPacket>(std::move(p.payload));
  const Lid src = p.src;
  rx_lane_.schedule_at(start, [this, payload = std::move(payload), src] {
    auto it = qp_index_.find(payload->dst_qpn);
    if (it == qp_index_.end()) {
      ++stats_.pkts_unroutable;
      return;
    }
    it->second->handle_packet(*payload, src);
  });
}

}  // namespace ibwan::ib
