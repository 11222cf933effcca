#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace ibwan::net {

using sim::TraceKind;

Link::Link(sim::Simulator& sim, Config config, std::string name)
    : sim_(sim),
      deliver_lane_(sim.make_lane()),
      config_(config),
      name_(std::move(name)) {
  assert(config_.bytes_per_ns > 0.0);
  auto& m = sim_.metrics();
  const std::string scope = name_ + "/net.link";
  using enum sim::MetricUnit;
  exports_.counter(scope, "pkts_sent", kPackets, &stats_.packets_sent);
  exports_.counter(scope, "bytes_sent", kBytes, &stats_.bytes_sent);
  exports_.counter(scope, "pkts_delivered", kPackets,
                   &stats_.packets_delivered);
  exports_.counter(scope, "bytes_delivered", kBytes, &stats_.bytes_delivered);
  exports_.counter(scope, "drops_buffer", kPackets,
                   &stats_.packets_dropped_buffer);
  exports_.counter(scope, "drops_loss", kPackets, &stats_.packets_dropped_loss);
  exports_.counter(scope, "drops_fault", kPackets,
                   &stats_.packets_dropped_fault);
  exports_.counter(scope, "drops_link_down", kPackets,
                   &stats_.packets_dropped_down);
  exports_.counter(scope, "drops_brownout", kPackets,
                   &stats_.packets_dropped_brownout);
  exports_.counter(scope, "bytes_dropped", kBytes, &stats_.bytes_dropped);
  exports_.counter(scope, "flaps", kCount, &stats_.flaps);
  exports_.counter(scope, "down_ns", kNanoseconds, &stats_.down_ns);
  exports_.counter(scope, "busy_ns", kNanoseconds, &stats_.busy_ns);
  obs_queued_bytes_ = &m.gauge(scope, "queued_bytes", kBytes);
  obs_jitter_ns_ = &m.histogram(scope, "jitter_ns", kNanoseconds);
}

bool Link::send(Packet&& p) {
  assert(sink_ && "link sink not connected");
  const std::uint64_t cap =
      buffer_override_active_ ? buffer_override_ : config_.buffer_bytes;
  if (cap != 0 && queued_bytes_ + p.wire_size > cap) {
    ++stats_.packets_dropped_buffer;
    if (buffer_override_active_) {
      ++stats_.packets_dropped_brownout;
    }
    sim_.recorder().record(sim_.now(), TraceKind::kPktDrop, name_.c_str(),
                           p.id, p.wire_size, /*c=*/1);
    return false;
  }
  queued_bytes_ += p.wire_size;
  obs_queued_bytes_->set(static_cast<std::int64_t>(queued_bytes_));
  (p.control ? q_control_ : q_data_).push_back(std::move(p));
  if (!busy_) start_next();
  return true;
}

void Link::set_down(bool down) {
  if (down == down_) return;
  down_ = down;
  if (down) {
    ++down_epoch_;  // kills everything serializing or propagating
    ++stats_.flaps;
    down_since_ = sim_.now();
    sim_.recorder().record(sim_.now(), TraceKind::kLinkDown, name_.c_str(),
                           queued_bytes_);
  } else {
    const sim::Duration outage = sim_.now() - down_since_;
    stats_.down_ns += outage;
    sim_.recorder().record(sim_.now(), TraceKind::kLinkUp, name_.c_str(),
                           outage);
    if (!busy_) start_next();
  }
}

void Link::set_buffer_override(std::uint64_t bytes) {
  buffer_override_active_ = true;
  buffer_override_ = bytes;
  sim_.recorder().record(sim_.now(), TraceKind::kBrownoutStart, name_.c_str(),
                         bytes, config_.buffer_bytes);
}

void Link::clear_buffer_override() {
  buffer_override_active_ = false;
  sim_.recorder().record(sim_.now(), TraceKind::kBrownoutEnd, name_.c_str(),
                         config_.buffer_bytes);
}

void Link::drop_down(const Packet& p) {
  ++stats_.packets_dropped_down;
  stats_.bytes_dropped += p.wire_size;
  sim_.recorder().record(sim_.now(), TraceKind::kPktDrop, name_.c_str(), p.id,
                         p.wire_size, /*c=*/4);
}

void Link::deliver_via_channel(const std::shared_ptr<Packet>& pkt,
                               sim::Duration delay) {
  const sim::Time arrival = sim_.now() + delay;
  // Replicate the sequential in-flight epoch check from the static
  // fault schedule: a down transition strictly after serialization end
  // and no later than arrival kills the packet mid-flight. (Transitions
  // at or before serialization end were already caught by the sender's
  // down/epoch check above.)
  const auto flap =
      std::upper_bound(down_starts_.begin(), down_starts_.end(), sim_.now());
  if (flap != down_starts_.end() && *flap <= arrival) {
    drop_down(*pkt);
    return;
  }
  // Delivered-side accounting happens at push time on the sender's
  // site: the counters are run totals read after the drain, and the
  // trace row carries the arrival timestamp, so end states match the
  // sequential run exactly.
  if (sim_.recorder().armed())
    sim_.recorder().record(arrival, TraceKind::kPktDeliver, name_.c_str(),
                           pkt->id, pkt->wire_size);
  ++stats_.packets_delivered;
  stats_.bytes_delivered += pkt->wire_size;
  // on_serialized already fired on this site; clear it here so the
  // destination's copy never touches sender-site captures.
  pkt->on_serialized = nullptr;
  channel_->push(arrival, [this, pkt] {
    // Runs on the destination site's worker at `arrival`; the sink and
    // the packet are immutable after the push.
    Packet delivered = *pkt;
    sink_(std::move(delivered));
  });
}

void Link::start_next() {
  if (down_) {  // serializer pauses; set_down(false) restarts it
    busy_ = false;
    return;
  }
  std::deque<Packet>* q =
      !q_control_.empty() ? &q_control_ : (!q_data_.empty() ? &q_data_ : nullptr);
  if (q == nullptr) {
    busy_ = false;
    return;
  }
  busy_ = true;
  auto pkt = pkt_pool_.alloc(std::move(q->front()));
  q->pop_front();
  const sim::Duration ser = sim::duration_ceil(
      static_cast<double>(pkt->wire_size) / config_.bytes_per_ns);
  if (sim_.recorder().armed())
    sim_.recorder().record(sim_.now(), TraceKind::kPktSend, name_.c_str(),
                           pkt->id, pkt->wire_size);
  const std::uint64_t epoch = down_epoch_;
  sim_.schedule(ser, [this, pkt, ser, epoch] {
    queued_bytes_ -= pkt->wire_size;
    ++stats_.packets_sent;
    stats_.bytes_sent += pkt->wire_size;
    stats_.busy_ns += ser;
    obs_queued_bytes_->set(static_cast<std::int64_t>(queued_bytes_));
    if (pkt->on_serialized) pkt->on_serialized();
    if (down_ || epoch != down_epoch_) {
      // The flap hit while this packet was on the wire.
      drop_down(*pkt);
      recycle_packet(pkt);
      start_next();
      return;
    }
    // Flat config loss draws from the link's own stream, so it never
    // perturbs the main one and stays on the sender's site under PDES.
    if (config_.loss_rate > 0.0 && !loss_rng_) {
      loss_rng_ = sim_.rng_stream(name_ + "/loss");
    }
    if (loss_rng_ && loss_rng_->chance(config_.loss_rate)) {
      ++stats_.packets_dropped_loss;
      stats_.bytes_dropped += pkt->wire_size;
      sim_.recorder().record(sim_.now(), TraceKind::kPktDrop, name_.c_str(),
                             pkt->id, pkt->wire_size, /*c=*/2);
      recycle_packet(pkt);
    } else if (loss_model_ && loss_model_(*pkt)) {
      ++stats_.packets_dropped_fault;
      stats_.bytes_dropped += pkt->wire_size;
      sim_.recorder().record(sim_.now(), TraceKind::kPktDrop, name_.c_str(),
                             pkt->id, pkt->wire_size, /*c=*/3);
      recycle_packet(pkt);
    } else {
      sim::Duration delay = config_.propagation + extra_delay_;
      if (jitter_model_) {
        const sim::Duration jitter = jitter_model_();
        obs_jitter_ns_->observe(static_cast<std::uint64_t>(jitter));
        delay += jitter;
      }
      if (channel_ != nullptr) {
        deliver_via_channel(pkt, delay);
      } else {
        const std::uint64_t fly_epoch = down_epoch_;
        deliver_lane_.schedule(delay, [this, pkt, fly_epoch] {
          if (fly_epoch != down_epoch_) {
            // A flap killed the packet mid-flight, even if the link is
            // already back up by now.
            drop_down(*pkt);
            recycle_packet(pkt);
            return;
          }
          if (sim_.recorder().armed())
            sim_.recorder().record(sim_.now(), TraceKind::kPktDeliver,
                                   name_.c_str(), pkt->id, pkt->wire_size);
          ++stats_.packets_delivered;
          stats_.bytes_delivered += pkt->wire_size;
          // The pool's pointer is the sole owner here (unlike the shared
          // channel packet above), so move rather than copy.
          Packet delivered = std::move(*pkt);
          delivered.on_serialized = nullptr;
          recycle_packet(pkt);
          sink_(std::move(delivered));
        });
      }
    }
    start_next();
  });
}

}  // namespace ibwan::net
