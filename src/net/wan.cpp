#include "net/wan.hpp"

#include <utility>

#include "net/faults.hpp"

namespace ibwan::net {

void Longbow::forward(Packet&& p, Link* out) {
  if (out == nullptr) {
    ++drops_no_port_;
    sim_.recorder().record(sim_.now(), sim::TraceKind::kPktDrop,
                           name_.c_str(), p.id, p.wire_size, /*c=*/5);
    return;
  }
  ++pkts_forwarded_;
  auto shared = pkt_pool_.alloc(std::move(p));
  lane_.schedule(latency_, [this, out, shared] {
    Packet fwd = std::move(*shared);
    pkt_pool_.recycle(shared);
    out->send(std::move(fwd));
  });
}

LongbowPair::LongbowPair(sim::Simulator& sim_a, sim::Simulator& sim_b,
                         const Config& config)
    : LongbowPair(sim_a, sim_b, config, Names{}) {}

LongbowPair::LongbowPair(sim::Simulator& sim_a, sim::Simulator& sim_b,
                         const Config& config, const Names& names)
    : sim_(sim_a), sim_b_(sim_b) {
  // Each side — router and outbound long-haul link — lives on its own
  // site's simulator, so serialization, loss draws, and flap events for
  // a direction all run on the sending site (sequential mode passes the
  // same simulator twice and nothing changes).
  a_ = std::make_unique<Longbow>(sim_a, names.side_a, config.pipeline_latency);
  b_ = std::make_unique<Longbow>(sim_b, names.side_b, config.pipeline_latency);

  Link::Config wan{.bytes_per_ns = config.wan_rate,
                   .propagation = config.base_propagation,
                   .buffer_bytes = config.buffer_bytes,
                   .loss_rate = config.loss_rate};
  a_to_b_ = std::make_unique<Link>(sim_a, wan, names.wan_a2b);
  b_to_a_ = std::make_unique<Link>(sim_b, wan, names.wan_b2a);
  a_to_b_->set_sink([this](Packet&& p) { b_->receive_from_wan(std::move(p)); });
  b_to_a_->set_sink([this](Packet&& p) { a_->receive_from_wan(std::move(p)); });
  a_->set_wan_tx(a_to_b_.get());
  b_->set_wan_tx(b_to_a_.get());
}

LongbowPair::~LongbowPair() = default;

void LongbowPair::apply_faults(const FaultPlanConfig& cfg) {
  faults_a_to_b_ = std::make_unique<FaultPlan>(sim_, *a_to_b_, cfg);
  faults_b_to_a_ = std::make_unique<FaultPlan>(sim_b_, *b_to_a_, cfg);
}

}  // namespace ibwan::net
