// Wire packets.
//
// The simulator never copies payload bytes; a Packet carries byte *counts*
// plus a shared protocol header object. Endpoints know the concrete header
// type for the traffic they exchange (IB verbs packets everywhere in this
// library, since TCP/IPoIB rides on IB).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace ibwan::net {

/// Globally unique node identifier; doubles as the InfiniBand LID.
using NodeId = std::uint32_t;

struct Packet {
  NodeId src = 0;
  NodeId dst = 0;
  /// Total size on the wire, including all protocol headers.
  std::uint32_t wire_size = 0;
  /// Unique id for tracing/debugging.
  std::uint64_t id = 0;
  /// Control-plane packet (transport ACK/NAK): ports schedule these ahead
  /// of bulk data so responder traffic is never starved by deep queues.
  bool control = false;
  /// Protocol header/body descriptor; type is agreed between endpoints.
  std::shared_ptr<const void> payload;
  /// Invoked by the first link when the packet finishes serializing onto
  /// the wire (used for transmit-completion semantics, e.g. UD send CQEs).
  std::function<void()> on_serialized;

  template <typename T>
  const T& as() const {
    return *static_cast<const T*>(payload.get());
  }
};

/// Recycled shared_ptr<Packet> allocations. Links, switches and Longbows
/// park each packet on the heap for a scheduled callback; reusing the
/// control block removes an allocation per packet. Bounded so a burst
/// cannot pin memory forever.
class PacketPool {
 public:
  explicit PacketPool(std::size_t cap) : cap_(cap) {}

  /// A pooled entry is reusable only once every callback that captured
  /// it has run (use_count back to 1).
  std::shared_ptr<Packet> alloc(Packet&& p) {
    if (!pool_.empty() && pool_.back().use_count() == 1) {
      std::shared_ptr<Packet> sp = std::move(pool_.back());
      pool_.pop_back();
      *sp = std::move(p);
      return sp;
    }
    return std::make_shared<Packet>(std::move(p));
  }

  void recycle(const std::shared_ptr<Packet>& pkt) {
    if (pool_.size() >= cap_) return;
    // Drop payload/callback references now so pooling a packet never pins
    // application data beyond its delivery.
    pkt->payload.reset();
    pkt->on_serialized = nullptr;
    pool_.push_back(pkt);
  }

 private:
  std::size_t cap_;
  std::vector<std::shared_ptr<Packet>> pool_;
};

}  // namespace ibwan::net
