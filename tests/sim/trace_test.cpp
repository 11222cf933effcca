#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ibwan::sim {
namespace {

TEST(FlightRecorder, DisarmedRecordIsANoOp) {
  FlightRecorder fr(8);
  fr.record(100, TraceKind::kPktSend, "link", 1, 2);
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.recorded(), 0u);
  EXPECT_FALSE(fr.armed());
}

TEST(FlightRecorder, RingWrapsKeepingTheNewestEvents) {
  FlightRecorder fr(4);
  fr.arm();
  for (std::uint64_t i = 0; i < 6; ++i) {
    fr.record(static_cast<Time>(i * 10), TraceKind::kPktSend, "link", i);
  }
  fr.disarm();

  EXPECT_EQ(fr.recorded(), 6u);
  EXPECT_EQ(fr.size(), 4u);
  const std::vector<TraceEvent> evs = fr.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest surviving event first: 2, 3, 4, 5.
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_EQ(evs[i].a, i + 2);
    EXPECT_EQ(evs[i].time, static_cast<Time>((i + 2) * 10));
  }
}

TEST(FlightRecorder, SetCapacityClearsAndResizes) {
  FlightRecorder fr(4);
  fr.arm();
  fr.record(1, TraceKind::kPktSend, "l");
  fr.disarm();
  fr.set_capacity(2);
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.capacity(), 2u);
  fr.arm();
  for (int i = 0; i < 5; ++i) fr.record(i, TraceKind::kPktDrop, "l");
  fr.disarm();
  EXPECT_EQ(fr.size(), 2u);
}

TEST(FlightRecorder, FormatIsStableAndTagged) {
  FlightRecorder fr(4);
  fr.arm();
  fr.record(1'500, TraceKind::kWindowStall, "rc-qp3", 9, 16);
  fr.disarm();
  const std::string line = fr.events()[0].format();
  EXPECT_NE(line.find("window-stall"), std::string::npos);
  EXPECT_NE(line.find("rc-qp3"), std::string::npos);
  EXPECT_NE(line.find("a=9"), std::string::npos);
  EXPECT_NE(line.find("b=16"), std::string::npos);
}

/// A pure-sim seeded workload: a chain of events that records one
/// trace entry per firing with rng-drawn payloads and delays.
std::vector<std::string> run_seeded_workload(std::uint64_t seed) {
  Simulator sim;
  sim.seed(seed);
  FlightRecorder& fr = sim.recorder();
  fr.set_capacity(64);
  fr.arm();
  struct Hop {
    Simulator* sim;
    int remaining;
    void fire() {
      sim->recorder().record(sim->now(), TraceKind::kPktSend, "hop",
                             sim->rng().uniform(1000));
      if (--remaining > 0) {
        const Duration d = 1 + sim->rng().uniform(50);
        sim->schedule(d, [this] { fire(); });
      }
    }
  };
  Hop hop{&sim, 40};
  sim.schedule(0, [&hop] { hop.fire(); });
  sim.run();
  fr.disarm();

  std::vector<std::string> lines;
  for (const TraceEvent& ev : fr.events()) lines.push_back(ev.format());
  return lines;
}

TEST(FlightRecorder, DeterministicOrderingUnderSeededWorkloads) {
  const auto first = run_seeded_workload(42);
  const auto second = run_seeded_workload(42);
  ASSERT_EQ(first.size(), 40u);
  EXPECT_EQ(first, second);
  // A different seed produces a different (but equally sized) tape.
  const auto other = run_seeded_workload(43);
  ASSERT_EQ(other.size(), 40u);
  EXPECT_NE(first, other);
}

/// Dump-on-failure guard: the pattern README documents for debugging —
/// arm a recorder for the scenario, and dump the tape only when the
/// test actually failed.
TEST(FlightRecorder, DumpOnFailureGuardStaysSilentOnSuccess) {
  Simulator sim;
  FlightRecorder& fr = sim.recorder();
  fr.arm();
  fr.record(10, TraceKind::kAckRecv, "rc-qp0", 5, 1);
  fr.disarm();

  EXPECT_EQ(fr.size(), 1u);
  if (::testing::Test::HasFailure()) fr.dump(stderr);
  // (Nothing failed above, so nothing was printed; the guard itself is
  // what this test exercises.)
  EXPECT_FALSE(::testing::Test::HasFailure());
}

}  // namespace
}  // namespace ibwan::sim
