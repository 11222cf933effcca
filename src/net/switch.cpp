#include "net/switch.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace ibwan::net {

void Switch::receive_wan(int edge, Packet&& p) {
  wan_buf_.emplace_back(edge, std::move(p));
  if (!wan_flush_pending_) {
    wan_flush_pending_ = true;
    // Scheduled at the current instant: the flush lands behind every
    // event already queued for this nanosecond, so all tied WAN
    // arrivals are buffered before the sort runs.
    sim_.schedule(0, [this] { flush_wan(); });
  }
}

void Switch::flush_wan() {
  wan_flush_pending_ = false;
  std::stable_sort(
      wan_buf_.begin(), wan_buf_.end(),
      [](const std::pair<int, Packet>& a, const std::pair<int, Packet>& b) {
        return a.first < b.first;
      });
  for (auto& [edge, pkt] : wan_buf_) receive(std::move(pkt));
  wan_buf_.clear();
}

void Switch::receive(Packet&& p) {
  int port = default_port_;
  if (auto it = routes_.find(p.dst); it != routes_.end()) port = it->second;
  if (port < 0 || port >= static_cast<int>(ports_.size())) {
    ++drops_no_route_;
    return;
  }
  ++forwarded_;
  Link* out = ports_[port];
  auto shared = pkt_pool_.alloc(std::move(p));
  hop_lane_.schedule(hop_latency_, [this, out, shared] {
    Packet fwd = std::move(*shared);
    pkt_pool_.recycle(shared);
    out->send(std::move(fwd));
  });
}

}  // namespace ibwan::net
