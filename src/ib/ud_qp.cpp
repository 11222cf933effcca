#include <cassert>
#include <memory>
#include <utility>

#include "ib/hca.hpp"
#include "ib/qp.hpp"

namespace ibwan::ib {

UdQp::UdQp(Hca& hca, Qpn qpn, Cq& send_cq, Cq& recv_cq)
    : QpBase(hca, qpn, send_cq, recv_cq), exports_(hca.sim().metrics()) {
  const std::string scope = "node" + std::to_string(hca_.lid()) + "/ib.ud";
  using enum sim::MetricUnit;
  exports_.counter(scope, "datagrams_sent", kPackets, &stats_.datagrams_sent);
  exports_.counter(scope, "datagrams_received", kPackets,
                   &stats_.datagrams_received);
  exports_.counter(scope, "drops_no_recv", kPackets,
                   &stats_.datagrams_dropped_no_recv);
  exports_.counter(scope, "bytes_sent", kBytes, &stats_.bytes_sent);
}

void UdQp::post_send(const SendWr& wr, UdDest dest) {
  assert(wr.opcode == Opcode::kSend && "UD supports channel semantics only");
  assert(wr.length <= hca_.config().mtu && "UD datagram exceeds path MTU");
  auto pkt = std::make_shared<IbPacket>();
  pkt->type = IbPacketType::kData;
  pkt->dst_qpn = dest.qpn;
  pkt->src_qpn = qpn_;
  pkt->op = Opcode::kSend;
  pkt->payload_bytes = static_cast<std::uint32_t>(wr.length);
  pkt->first = pkt->last = true;
  pkt->total_length = wr.length;
  pkt->imm = wr.imm;
  pkt->app_payload = wr.app_payload;
  ++stats_.datagrams_sent;
  stats_.bytes_sent += wr.length;
  // UD completion semantics: the WQE is done once the datagram is on the
  // wire — no acknowledgement exists. This is what makes Figure 4's UD
  // bandwidth independent of WAN delay.
  const std::uint64_t wr_id = wr.wr_id;
  const std::uint64_t len = wr.length;
  auto on_wire = [this, wr_id, len] {
    send_cq_->push_after(hca_.config().cqe_latency,
                         Cqe{.type = CqeType::kSendComplete,
                             .wr_id = wr_id,
                             .qpn = qpn_,
                             .byte_len = len});
  };
  hca_.transmit(dest.lid, std::move(pkt),
                static_cast<std::uint32_t>(wr.length) + kUdHeaderBytes,
                /*first_of_msg=*/true, std::move(on_wire));
}

void UdQp::post_recv(const RecvWr& wr) { rq_.push_back(wr); }

void UdQp::handle_packet(const IbPacket& pkt, Lid src_lid) {
  assert(pkt.type == IbPacketType::kData);
  if (rq_.empty()) {
    // No receive posted: the HCA silently drops the datagram.
    ++stats_.datagrams_dropped_no_recv;
    return;
  }
  const RecvWr r = rq_.front();
  rq_.pop_front();
  ++stats_.datagrams_received;
  const HcaConfig& cfg = hca_.config();
  recv_cq_->push_after(cfg.recv_match_overhead + cfg.cqe_latency,
                       Cqe{.type = CqeType::kRecvComplete,
                           .wr_id = r.wr_id,
                           .qpn = qpn_,
                           .byte_len = pkt.total_length,
                           .imm = pkt.imm,
                           .src_lid = src_lid,
                           .src_qpn = pkt.src_qpn,
                           .app_payload = pkt.app_payload});
}

}  // namespace ibwan::ib
