// SDR transport behavior over the simulated WAN: clean delivery, local
// parity repair, selective-repeat fallback when loss exceeds the
// correction budget, duplicate/reorder handling, flap recovery, the
// adaptive redundancy policy, determinism, and the site-parallel
// differential (ISSUE 7).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/testbed.hpp"
#include "ib/hca.hpp"
#include "net/fabric.hpp"
#include "net/faults.hpp"
#include "net/link.hpp"
#include "net/wan.hpp"
#include "sdr/sdr.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ibwan::sdr {
namespace {

using namespace ibwan::sim::literals;

constexpr std::uint64_t kChunkPayload = 2048 - kSdrHeaderBytes;

/// Two hosts across the Longbow WAN, one SDR endpoint each. Seeding
/// happens before endpoint construction so the named adaptive stream
/// binds to the test seed.
struct SdrWorld {
  explicit SdrWorld(SdrConfig cfg = {}, std::uint64_t seed = 42,
                    sim::Duration wan_delay = 0)
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        hca_a(fabric.node(fabric.node_id(net::Cluster::kA, 0)), {}),
        hca_b(fabric.node(fabric.node_id(net::Cluster::kB, 0)), {}) {
    sim.seed(seed);
    fabric.set_wan_delay(wan_delay);
    ep_a = std::make_unique<SdrEndpoint>(hca_a, cfg);
    ep_b = std::make_unique<SdrEndpoint>(hca_b, cfg);
  }

  net::Link& wan_ab() { return fabric.longbows()->wan_link_a_to_b(); }
  net::Link& wan_ba() { return fabric.longbows()->wan_link_b_to_a(); }

  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca hca_a;
  ib::Hca hca_b;
  std::unique_ptr<SdrEndpoint> ep_a;
  std::unique_ptr<SdrEndpoint> ep_b;
};

/// Drops the n-th, m-th, ... full-size (chunk-carrying) WAN packets.
/// Control datagrams are far smaller, so counting only large frames
/// targets data/parity chunks deterministically.
std::function<bool(const net::Packet&)> drop_chunks(
    std::vector<int> ordinals) {
  auto count = std::make_shared<int>(0);
  return [count, ordinals](const net::Packet& p) {
    if (p.wire_size < kChunkPayload) return false;
    ++*count;
    for (const int o : ordinals) {
      if (*count == o) return true;
    }
    return false;
  };
}

TEST(SdrTransport, CleanDeliveryConservesBytes) {
  SdrWorld w;
  const std::uint64_t bytes = 1u << 20;
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), bytes, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  const SdrStats& tx = w.ep_a->stats();
  const SdrStats& rx = w.ep_b->stats();
  EXPECT_EQ(tx.msgs_completed, 1u);
  EXPECT_EQ(tx.msgs_failed, 0u);
  EXPECT_EQ(tx.retrans_chunks_sent, 0u);
  EXPECT_EQ(rx.msgs_delivered, 1u);
  EXPECT_EQ(rx.msg_bytes_delivered, bytes);
  EXPECT_EQ(rx.decoded_bytes, bytes);
  EXPECT_EQ(rx.chunks_repaired, 0u);
  EXPECT_EQ(rx.nacks_sent, 0u);
  EXPECT_EQ(rx.data_chunks_received, tx.data_chunks_sent);
  // Every data chunk the message needs was delivered exactly once.
  const std::uint64_t chunks = (bytes + kChunkPayload - 1) / kChunkPayload;
  EXPECT_EQ(rx.data_chunks_delivered, chunks);
}

TEST(SdrTransport, SingleChunkMessage) {
  SdrWorld w;
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), 100, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.ep_a->stats().data_chunks_sent, 1u);
  EXPECT_EQ(w.ep_b->stats().msg_bytes_delivered, 100u);
}

TEST(SdrTransport, ParityRepairsLossWithoutRoundTrip) {
  // One group (16 data + 2 parity); two data chunks die on the WAN.
  // Reed-Solomon repairs both locally: no NACK, no retransmission.
  SdrWorld w;
  const std::uint64_t bytes = 16 * kChunkPayload;
  w.wan_ab().set_loss_model(drop_chunks({3, 7}));
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), bytes, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  const SdrStats& rx = w.ep_b->stats();
  EXPECT_EQ(rx.chunks_repaired, 2u);
  EXPECT_EQ(rx.nacks_sent, 0u);
  EXPECT_EQ(w.ep_a->stats().retrans_chunks_sent, 0u);
  EXPECT_EQ(rx.msg_bytes_delivered, bytes);
  EXPECT_EQ(rx.data_chunks_delivered, 16u);
  EXPECT_EQ(rx.groups_decoded, 1u);
}

TEST(SdrTransport, LossBeyondBudgetFallsBackToSelectiveRepeat) {
  // Five losses in a 16+2 group exceed the r=2 budget: the receiver
  // must NACK the holes and deliver uncorrupted after retransmission.
  SdrConfig cfg;
  cfg.nack_timeout = 500 * sim::kMicrosecond;  // keep the test quick
  SdrWorld w(cfg);
  const std::uint64_t bytes = 16 * kChunkPayload;
  w.wan_ab().set_loss_model(drop_chunks({1, 4, 8, 12, 15}));
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), bytes, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  const SdrStats& tx = w.ep_a->stats();
  const SdrStats& rx = w.ep_b->stats();
  EXPECT_GE(rx.nacks_sent, 1u);
  EXPECT_EQ(tx.retrans_chunks_sent, 5u);
  EXPECT_EQ(rx.msg_bytes_delivered, bytes);
  EXPECT_EQ(rx.decoded_bytes, bytes);
  EXPECT_EQ(rx.data_chunks_delivered, 16u);
  // No corruption: deliveries are backed by receptions or repairs.
  EXPECT_LE(rx.data_chunks_delivered,
            rx.data_chunks_received + rx.chunks_repaired);
}

TEST(SdrTransport, LostDoneIsReplayedOnProbe) {
  // The receiver's DONE dies on the return path; the sender's probe
  // makes the receiver replay it from completed-transfer state. Late
  // arrivals for the finished message count as duplicates, not data.
  SdrConfig cfg;
  cfg.probe_timeout = 1 * sim::kMillisecond;
  SdrWorld w(cfg);
  auto count = std::make_shared<int>(0);
  w.wan_ba().set_loss_model([count](const net::Packet& p) {
    if (p.wire_size >= kChunkPayload) return false;  // only control
    ++*count;
    return *count == 1;  // the first DONE
  });
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), 8 * kChunkPayload, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_GE(w.ep_a->stats().probes_sent, 1u);
  EXPECT_EQ(w.ep_b->stats().dones_sent, 2u);
  EXPECT_EQ(w.ep_a->stats().msgs_completed, 1u);
  EXPECT_EQ(w.ep_b->stats().msgs_delivered, 1u);
}

TEST(SdrTransport, JitterReorderingIsHarmless) {
  // Per-packet jitter reorders chunk arrivals; the receive bitmap is
  // order-independent, so delivery and byte conservation must hold.
  net::FaultPlanConfig plan;
  plan.jitter_max = 50 * sim::kMicrosecond;
  SdrConfig cfg;
  SdrWorld w(cfg, /*seed=*/7, /*wan_delay=*/100 * sim::kMicrosecond);
  w.fabric.longbows()->apply_faults(plan);
  const std::uint64_t bytes = 64 * kChunkPayload;
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), bytes, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  const SdrStats& rx = w.ep_b->stats();
  EXPECT_EQ(rx.msg_bytes_delivered, bytes);
  EXPECT_EQ(rx.decoded_bytes, bytes);
  EXPECT_LE(rx.data_chunks_received + rx.parity_chunks_received +
                rx.dup_chunks,
            w.ep_a->stats().data_chunks_sent +
                w.ep_a->stats().parity_chunks_sent +
                w.ep_a->stats().retrans_chunks_sent);
}

TEST(SdrTransport, FlapMidTransferRecovers) {
  // A link flap kills every chunk in flight on the WAN; selective
  // repeat must fill the crater and deliver the full message.
  net::FaultPlanConfig plan;
  plan.flaps.push_back({.down_at = 200 * sim::kMicrosecond,
                        .down_for = 100 * sim::kMicrosecond});
  SdrConfig cfg;
  cfg.nack_timeout = 500 * sim::kMicrosecond;
  SdrWorld w(cfg, /*seed=*/5);
  w.fabric.longbows()->apply_faults(plan);
  const std::uint64_t bytes = 1u << 20;  // ~1.1 ms of wire time
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), bytes, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  const SdrStats& tx = w.ep_a->stats();
  const SdrStats& rx = w.ep_b->stats();
  EXPECT_GT(tx.retrans_chunks_sent + rx.chunks_repaired, 0u);
  EXPECT_EQ(rx.msg_bytes_delivered, bytes);
  EXPECT_EQ(rx.decoded_bytes, bytes);
}

TEST(SdrTransport, SeveredWanFailsTheSend) {
  // Nothing crosses in either direction: the probe budget must bound
  // the retry effort and fail the message instead of hanging the run.
  SdrConfig cfg;
  cfg.max_probes = 3;
  SdrWorld w(cfg);
  w.wan_ab().set_loss_model([](const net::Packet&) { return true; });
  w.wan_ba().set_loss_model([](const net::Packet&) { return true; });
  bool called = false;
  bool ok = true;
  w.ep_a->send(w.ep_b->dest(), 32 * kChunkPayload, [&](bool s) {
    called = true;
    ok = s;
  });
  w.sim.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
  EXPECT_EQ(w.ep_a->stats().msgs_failed, 1u);
  EXPECT_EQ(w.ep_a->stats().msgs_completed, 0u);
}

TEST(SdrTransport, AdaptivePolicyRaisesParityUnderLoss) {
  net::FaultPlanConfig plan;
  plan.ge.p_good_to_bad = 0.05;
  plan.ge.p_bad_to_good = 0.2;
  plan.ge.loss_good = 0.05;
  plan.ge.loss_bad = 0.5;
  SdrConfig cfg;
  cfg.adaptive = true;
  cfg.nack_timeout = 500 * sim::kMicrosecond;
  SdrWorld w(cfg, /*seed=*/42);
  w.fabric.longbows()->apply_faults(plan);
  // Messages sent back to back; each DONE's loss feedback feeds the
  // EWMA, so later messages carry parity while the first cannot.
  const std::uint64_t bytes = 48 * kChunkPayload;
  int remaining = 5;
  std::function<void(bool)> chain = [&](bool) {
    if (--remaining > 0) w.ep_a->send(w.ep_b->dest(), bytes, chain);
  };
  w.ep_a->send(w.ep_b->dest(), bytes, chain);
  w.sim.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_GT(w.ep_a->loss_ewma(), 0.0);
  EXPECT_GT(w.ep_a->stats().parity_chunks_sent, 0u);
  EXPECT_GT(w.ep_a->next_parity(), 0);
}

TEST(SdrTransport, AdaptiveWithoutFaultsDrawsNothing) {
  // Faults off => zero observed loss => the dithered rounding never
  // draws from the "sdr.adaptive" stream and no parity is emitted, so
  // enabling the knob cannot perturb a clean run (determinism guard).
  SdrConfig cfg;
  cfg.adaptive = true;
  SdrWorld w(cfg);
  bool ok = false;
  w.ep_a->send(w.ep_b->dest(), 64 * kChunkPayload, [&](bool s) { ok = s; });
  w.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(w.ep_a->stats().parity_chunks_sent, 0u);
  EXPECT_EQ(w.ep_a->loss_ewma(), 0.0);
  EXPECT_EQ(w.ep_a->next_parity(), 0);
}

struct RunResult {
  sim::Time end = 0;
  SdrStats tx;
  SdrStats rx;
};

RunResult chaotic_run(std::uint64_t seed) {
  net::FaultPlanConfig plan;
  plan.ge.p_good_to_bad = 0.01;
  plan.ge.p_bad_to_good = 0.2;
  plan.ge.loss_good = 0.001;
  plan.ge.loss_bad = 0.3;
  plan.jitter_max = 5 * sim::kMicrosecond;
  SdrConfig cfg;
  cfg.adaptive = true;
  cfg.nack_timeout = 500 * sim::kMicrosecond;
  SdrWorld w(cfg, seed, /*wan_delay=*/1 * sim::kMillisecond);
  w.fabric.longbows()->apply_faults(plan);
  int left = 3;
  std::function<void(bool)> chain = [&](bool) {
    if (--left > 0) w.ep_a->send(w.ep_b->dest(), 100 * kChunkPayload, chain);
  };
  w.ep_a->send(w.ep_b->dest(), 100 * kChunkPayload, chain);
  w.sim.run();
  return {w.sim.now(), w.ep_a->stats(), w.ep_b->stats()};
}

bool stats_equal(const SdrStats& a, const SdrStats& b) {
  return a.msgs_initiated == b.msgs_initiated &&
         a.msgs_completed == b.msgs_completed &&
         a.msgs_failed == b.msgs_failed &&
         a.data_chunks_sent == b.data_chunks_sent &&
         a.parity_chunks_sent == b.parity_chunks_sent &&
         a.retrans_chunks_sent == b.retrans_chunks_sent &&
         a.chunk_bytes_sent == b.chunk_bytes_sent &&
         a.nacks_received == b.nacks_received &&
         a.probes_sent == b.probes_sent &&
         a.data_chunks_received == b.data_chunks_received &&
         a.parity_chunks_received == b.parity_chunks_received &&
         a.dup_chunks == b.dup_chunks &&
         a.chunks_repaired == b.chunks_repaired &&
         a.data_chunks_delivered == b.data_chunks_delivered &&
         a.decoded_bytes == b.decoded_bytes &&
         a.groups_decoded == b.groups_decoded &&
         a.nacks_sent == b.nacks_sent && a.dones_sent == b.dones_sent &&
         a.msgs_delivered == b.msgs_delivered &&
         a.msg_bytes_delivered == b.msg_bytes_delivered &&
         a.msgs_abandoned == b.msgs_abandoned;
}

TEST(SdrTransport, DeterministicUnderChaos) {
  const RunResult one = chaotic_run(1337);
  const RunResult two = chaotic_run(1337);
  EXPECT_EQ(one.end, two.end);
  EXPECT_TRUE(stats_equal(one.tx, two.tx));
  EXPECT_TRUE(stats_equal(one.rx, two.rx));
  // A different seed sees different loss: the run must actually be
  // exercising the fault plan for the comparison above to mean much.
  const RunResult other = chaotic_run(4242);
  EXPECT_NE(one.end, other.end);
}

RunResult testbed_run(int par_sites) {
  const net::FaultPlanConfig plan = net::bursty_loss_plan();
  core::Testbed tb(core::TestbedOptions{.nodes_a = 1,
                                        .nodes_b = 1,
                                        .wan_delay = 1 * sim::kMillisecond,
                                        .seed = 42,
                                        .faults = &plan,
                                        .par_sites = par_sites});
  ib::Hca hca_a(tb.fabric().node(tb.node_a()), {});
  ib::Hca hca_b(tb.fabric().node(tb.node_b()), {});
  SdrConfig cfg;
  cfg.nack_timeout = 500 * sim::kMicrosecond;
  SdrEndpoint ep_a(hca_a, cfg);
  SdrEndpoint ep_b(hca_b, cfg);
  // Traffic in both directions at once: the site-parallel engine must
  // reproduce the sequential interleaving exactly (DESIGN.md §13).
  ep_a.send(ep_b.dest(), 60 * kChunkPayload);
  ep_b.send(ep_a.dest(), 60 * kChunkPayload);
  tb.run();
  RunResult r;
  r.end = tb.now();
  r.tx = ep_a.stats();
  r.rx = ep_b.stats();
  return r;
}

TEST(SdrConfigValidate, AcceptsDefaultsAndBoundaryGroups) {
  EXPECT_EQ(validate(SdrConfig{}), "");
  SdrConfig max_group;
  max_group.group_data_chunks = 251;
  max_group.parity_per_group = 4;
  max_group.adaptive_max_parity = 4;  // k + max(r) == 255 exactly
  EXPECT_EQ(validate(max_group), "");
}

TEST(SdrConfigValidate, RejectsOutOfRangeGroupShapes) {
  // The chunk header carries k/r as uint16 and a GF(2^8) group holds
  // at most 255 symbols; these used to truncate silently at encode.
  SdrConfig zero_k;
  zero_k.group_data_chunks = 0;
  EXPECT_NE(validate(zero_k), "");

  SdrConfig huge_k;
  huge_k.group_data_chunks = 70000;  // would wrap as uint16
  EXPECT_NE(validate(huge_k), "");

  SdrConfig negative_parity;
  negative_parity.parity_per_group = -1;
  EXPECT_NE(validate(negative_parity), "");

  SdrConfig overfull;
  overfull.group_data_chunks = 200;
  overfull.parity_per_group = 100;  // k + r > 255
  EXPECT_NE(validate(overfull), "");

  SdrConfig adaptive_overfull;
  adaptive_overfull.group_data_chunks = 200;
  adaptive_overfull.adaptive = true;
  adaptive_overfull.adaptive_max_parity = 100;
  EXPECT_NE(validate(adaptive_overfull), "");
}

TEST(SdrTransport, SiteParallelMatchesSequential) {
  const RunResult seq = testbed_run(1);
  const RunResult par = testbed_run(2);
  EXPECT_EQ(seq.end, par.end);
  EXPECT_TRUE(stats_equal(seq.tx, par.tx));
  EXPECT_TRUE(stats_equal(seq.rx, par.rx));
  EXPECT_GT(seq.tx.msgs_completed + seq.tx.msgs_failed, 0u);
}

}  // namespace
}  // namespace ibwan::sdr
