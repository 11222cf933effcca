// Host Channel Adapter.
//
// One HCA per fabric node. Owns the QP namespace, a transmit engine that
// charges per-WQE and per-packet processing costs before handing packets
// to the node's uplink, and a receive engine that charges per-packet
// processing before demultiplexing to QPs.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ib/cq.hpp"
#include "ib/qp.hpp"
#include "ib/verbs.hpp"
#include "ib/wire.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"

namespace ibwan::ib {

class Hca {
 public:
  struct Stats {
    std::uint64_t pkts_tx = 0;
    std::uint64_t pkts_rx = 0;
    std::uint64_t pkts_unroutable = 0;
  };

  Hca(net::Node& node, HcaConfig config);

  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  Lid lid() const { return node_.id(); }
  sim::Simulator& sim() { return node_.sim(); }
  const HcaConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }

  RcQp& create_rc_qp(Cq& send_cq, Cq& recv_cq);
  UdQp& create_ud_qp(Cq& send_cq, Cq& recv_cq);

  /// Registers a memory region of `length` bytes in the node's simulated
  /// address space and returns its token.
  Mr register_mr(std::uint64_t length);

  /// 64-bit word at a simulated address — the target store for RDMA
  /// atomics (fetch-add / compare-swap). Unwritten words read as zero.
  std::uint64_t& memory_word(std::uint64_t addr) { return memory_[addr]; }

  /// Internal: QPs hand fully-formed packets to the transmit engine.
  /// `first_of_msg` charges the per-WQE cost; `on_serialized` (optional)
  /// fires when the packet clears the local wire (UD send completions).
  /// `control` routes the packet through the priority lane (ACK/NAK).
  void transmit(Lid dst, std::shared_ptr<const IbPacket> pkt,
                std::uint32_t wire_size, bool first_of_msg,
                std::function<void()> on_serialized = {},
                bool control = false);

 private:
  struct TxItem {
    Lid dst;
    std::shared_ptr<const IbPacket> pkt;
    std::uint32_t wire_size;
    bool first_of_msg;
    bool control;
    std::function<void()> on_serialized;
  };

  void on_node_packet(net::Packet&& p);
  void tx_drain();

  net::Node& node_;
  // Receive processing starts are strictly increasing (rx_busy_).
  sim::Simulator::Lane& rx_lane_;
  HcaConfig config_;
  std::vector<std::unique_ptr<QpBase>> qps_;
  std::unordered_map<Qpn, QpBase*> qp_index_;
  Qpn next_qpn_ = 1;
  std::uint64_t next_mr_addr_ = 0x1000;
  std::uint32_t next_rkey_ = 1;
  std::unordered_map<std::uint64_t, std::uint64_t> memory_;
  std::deque<TxItem> txq_data_;
  std::deque<TxItem> txq_ctrl_;
  bool tx_busy_ = false;
  sim::Time rx_busy_ = 0;
  std::uint64_t next_pkt_id_ = 1;
  Stats stats_;
  // Registered metrics (docs/METRICS.md §ib.hca); scope "node<lid>/ib.hca".
  sim::CounterExports exports_{node_.sim().metrics()};
};

}  // namespace ibwan::ib
