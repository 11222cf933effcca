// Point-to-point unidirectional link.
//
// A link serializes packets at a fixed byte rate, then delivers them to
// its sink after a propagation delay (plus an adjustable extra delay —
// the Obsidian Longbow distance-emulation knob). Two queues feed the
// serializer: a control lane (transport ACK/NAK and similar) that is
// always scheduled ahead of the bulk-data lane, modelling the arbitration
// real ports perform so responder traffic is not starved by deep send
// queues. Optional finite buffering and random loss support
// failure-injection experiments.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"

namespace ibwan::net {

class Link {
 public:
  struct Config {
    /// Serialization rate in bytes per nanosecond (8 Gb/s data = 1.0).
    double bytes_per_ns = 1.0;
    /// Propagation delay, sender to receiver.
    sim::Duration propagation = 0;
    /// Bytes that may be queued awaiting serialization; 0 = unbounded.
    std::uint64_t buffer_bytes = 0;
    /// Probability that a packet is corrupted in flight and discarded,
    /// drawn from the named stream "<name>/loss" (Simulator::rng_stream).
    double loss_rate = 0.0;
  };

  // The counters below carry the conservation invariant and may only be
  // written by link.cpp (ibwan-lint INV001 enforces the `lint:conserved`
  // ones; bytes_sent shares its name with per-QP/MPI stats whose writes
  // are equally legal, so it is covered by the invariant check in tests
  // rather than the name-keyed lint).
  struct Stats {
    std::uint64_t packets_sent = 0;       // lint:conserved
    std::uint64_t bytes_sent = 0;
    std::uint64_t packets_delivered = 0;  // lint:conserved
    std::uint64_t bytes_delivered = 0;    // lint:conserved
    std::uint64_t packets_dropped_buffer = 0;    // lint:conserved
    std::uint64_t packets_dropped_loss = 0;      // lint:conserved
    std::uint64_t packets_dropped_fault = 0;     // lint:conserved (injected)
    std::uint64_t packets_dropped_down = 0;      // lint:conserved (flaps)
    std::uint64_t packets_dropped_brownout = 0;  // lint:conserved (squeeze)
    /// Bytes of every in-flight drop (loss + fault + down). Buffer drops
    /// never reach the wire, so after the queue drains:
    ///   bytes_sent == bytes_delivered + bytes_dropped.
    std::uint64_t bytes_dropped = 0;  // lint:conserved
    std::uint64_t flaps = 0;          // lint:conserved
    std::uint64_t down_ns = 0;        // lint:conserved
    std::uint64_t busy_ns = 0;        // serialization time
  };

  Link(sim::Simulator& sim, Config config, std::string name = "link");

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Receiver of delivered packets. Must be set before first send.
  void set_sink(std::function<void(Packet&&)> sink) {
    sink_ = std::move(sink);
  }

  /// Enqueues a packet. Returns false when dropped (buffer overflow).
  bool send(Packet&& p);

  /// Additional one-way delay (Longbow emulated distance). Takes effect
  /// for packets serialized after the call.
  void set_extra_delay(sim::Duration d) { extra_delay_ = d; }
  sim::Duration extra_delay() const { return extra_delay_; }

  // --- Fault-injection hooks (driven by net::FaultPlan) -------------

  /// Per-packet injected-loss decision, consulted at serialization time.
  /// The model must draw from its own RNG stream (Simulator::rng_stream),
  /// never Simulator::rng(), so installing it cannot perturb fault-free
  /// runs. Applied after the flat config loss_rate draw; drops count as
  /// packets_dropped_fault.
  void set_loss_model(std::function<bool(const Packet&)> model) {
    loss_model_ = std::move(model);
  }

  /// Per-packet extra propagation delay (WAN jitter); same RNG-stream
  /// rule as set_loss_model. Jitter may reorder deliveries, as real
  /// WAN jitter does.
  void set_jitter_model(std::function<sim::Duration()> model) {
    jitter_model_ = std::move(model);
  }

  /// Takes the link down / brings it back up. Going down kills whatever
  /// is serializing or propagating (it was on the wire) and pauses the
  /// serializer; queued packets wait and resume on the up transition.
  void set_down(bool down);
  bool down() const { return down_; }

  /// Temporarily squeezes (or relaxes) the send buffer — a WAN-router
  /// brownout. Overflow drops during the override additionally count as
  /// packets_dropped_brownout; clear restores config().buffer_bytes.
  void set_buffer_override(std::uint64_t bytes);
  void clear_buffer_override();

  // --- Site-parallel execution (sim/engine.hpp, DESIGN.md §13) ------

  /// Makes this link an LP boundary: instead of scheduling a local
  /// delivery event, serialized packets are pushed into `ch` stamped
  /// with their arrival time, and the sink runs on the destination
  /// site. Serialization, loss draws, jitter, and flap handling stay on
  /// the sender's site, so RNG streams and counters are byte-identical
  /// to the sequential path. Set during wiring, before any traffic.
  void set_channel(sim::SiteEngine::Channel* ch) { channel_ = ch; }

  /// Absolute times at which a *scheduled* fault plan takes this link
  /// down (union window starts, ascending). Channel mode consults the
  /// schedule at push time to kill in-flight packets exactly where the
  /// sequential epoch check would: a down transition strictly after
  /// serialization end and no later than arrival. Direct set_down()
  /// calls outside the registered schedule do not kill channel-mode
  /// in-flight packets — scheduled plans (net::FaultPlan) are the
  /// supported fault source under PDES.
  void set_down_schedule(std::vector<sim::Time> down_starts) {
    down_starts_ = std::move(down_starts);
  }

  /// Bytes currently waiting to go onto the wire.
  std::uint64_t queued_bytes() const { return queued_bytes_; }

  const Stats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  const std::string& name() const { return name_; }

 private:
  void start_next();
  void drop_down(const Packet& p);
  void deliver_via_channel(const std::shared_ptr<Packet>& pkt,
                           sim::Duration delay);
  /// Channel-mode (LP-boundary) links never pool: the destination site
  /// drops its reference on another thread, so handing the pointer back
  /// to this link's pool would race. Their pool therefore stays empty.
  void recycle_packet(const std::shared_ptr<Packet>& pkt) {
    if (channel_ == nullptr) pkt_pool_.recycle(pkt);
  }

  sim::Simulator& sim_;
  /// Local deliveries. Serialization ends in order, so arrival times only
  /// go backwards under jitter or a set_extra_delay cut, which the lane
  /// turns into plain events.
  sim::Simulator::Lane& deliver_lane_;
  Config config_;
  std::string name_;
  std::function<void(Packet&&)> sink_;
  std::function<bool(const Packet&)> loss_model_;
  std::function<sim::Duration()> jitter_model_;
  /// Config loss_rate stream, taken at the first draw: owners seed the
  /// simulator after building the fabric.
  std::optional<sim::Rng> loss_rng_;
  std::deque<Packet> q_control_;
  std::deque<Packet> q_data_;
  bool busy_ = false;
  bool down_ = false;
  std::uint64_t down_epoch_ = 0;  // bumped on every down transition
  sim::Time down_since_ = 0;
  bool buffer_override_active_ = false;
  std::uint64_t buffer_override_ = 0;
  std::uint64_t queued_bytes_ = 0;
  sim::Duration extra_delay_ = 0;
  sim::SiteEngine::Channel* channel_ = nullptr;
  std::vector<sim::Time> down_starts_;
  PacketPool pkt_pool_{256};
  Stats stats_;
  // Registered metrics (docs/METRICS.md §net.link); scope "<name>/net.link".
  sim::CounterExports exports_{sim_.metrics()};
  sim::Gauge* obs_queued_bytes_;
  sim::Histogram* obs_jitter_ns_;
};

}  // namespace ibwan::net
