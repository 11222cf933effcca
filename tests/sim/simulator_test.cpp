#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <tuple>
#include <utility>
#include <vector>

namespace ibwan::sim {
namespace {

using namespace ibwan::sim::literals;

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, ExecutesEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, SameTimeEventsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  Time seen = 0;
  sim.schedule(1234, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 1234u);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule(100, chain);
  };
  sim.schedule(100, chain);
  sim.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, CancelUnknownIdIsNoOp) {
  Simulator sim;
  sim.cancel(99999);
  bool ran = false;
  sim.schedule(1, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(20, [&] { ++fired; });
  sim.schedule(30, [&] { ++fired; });
  const bool more = sim.run_until(20);
  EXPECT_TRUE(more);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilWithNoEventsAdvancesClock) {
  Simulator sim;
  EXPECT_FALSE(sim.run_until(1000));
  EXPECT_EQ(sim.now(), 1000u);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim;
  sim.run_until(100);
  int fired = 0;
  sim.schedule(50, [&] { ++fired; });
  sim.schedule(250, [&] { ++fired; });
  sim.run_for(100);
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator sim;
  sim.run_until(42);
  Time seen = 1;
  sim.schedule(0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 42u);
}

TEST(Simulator, EventCountersTrack) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(i, [] {});
  EXPECT_EQ(sim.pending(), 7u);
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelBeforeFireThenLaterEventsStillRun) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] { order.push_back(1); });
  EventId victim = sim.schedule(20, [&] { order.push_back(2); });
  sim.schedule(30, [&] { order.push_back(3); });
  sim.cancel(victim);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, CancelAfterFireIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventId id = sim.schedule(10, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.cancel(id);  // already fired: must not disturb anything
  bool ran = false;
  sim.schedule(5, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, DoubleCancelIsNoOp) {
  Simulator sim;
  bool victim_ran = false;
  bool other_ran = false;
  EventId id = sim.schedule(10, [&] { victim_ran = true; });
  sim.schedule(20, [&] { other_ran = true; });
  sim.cancel(id);
  sim.cancel(id);  // second cancel of the same id
  sim.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(other_ran);
}

TEST(Simulator, SelfCancelDuringCallbackIsNoOp) {
  Simulator sim;
  int fired = 0;
  EventId id = 0;
  id = sim.schedule(10, [&] {
    ++fired;
    sim.cancel(id);  // cancelling the event currently executing
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelZeroDelayEvent) {
  Simulator sim;
  sim.run_until(50);
  bool ran = false;
  std::vector<int> order;
  sim.schedule(0, [&] { order.push_back(1); });
  EventId id = sim.schedule(0, [&] { ran = true; });
  sim.schedule(0, [&] { order.push_back(2); });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, MixedZeroDelayAndHeapEventsInterleaveBySequence) {
  // Events at the same instant must run in global insertion order even
  // when some were scheduled with delay 0 (FIFO path) and others with a
  // positive delay landing at the same time (heap path).
  Simulator sim;
  std::vector<int> order;
  // Both outer events land at t=10 and run in insertion order. The inner
  // zero-delay event is scheduled while the first executes, so its
  // sequence number is allocated after the second outer event's and it
  // must run last despite taking the fast path.
  sim.schedule(10, [&] {
    order.push_back(0);
    sim.schedule(0, [&] { order.push_back(1); });
  });
  sim.schedule(10, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(Simulator, CancelledEventsDoNotLeakSlots) {
  // Regression: the previous engine accumulated cancelled ids in a
  // tombstone set; ids cancelled after their event had already fired
  // were never erased. The slot pool must stay bounded under a
  // schedule/cancel churn loop.
  Simulator sim;
  for (int i = 0; i < 100; ++i) {
    EventId id = sim.schedule(1, [] {});
    sim.cancel(id);
  }
  sim.run();
  const std::size_t settled = sim.slot_capacity();
  for (int round = 0; round < 10'000; ++round) {
    EventId pending = sim.schedule(1, [] {});
    sim.cancel(pending);
    EventId fired = sim.schedule(1, [] {});
    sim.run();
    sim.cancel(fired);  // cancel-after-fire must not grow anything either
  }
  EXPECT_EQ(sim.slot_capacity(), settled);
}

TEST(Simulator, PendingCountTracksCancellation) {
  Simulator sim;
  EventId a = sim.schedule(10, [] {});
  sim.schedule(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Simulator, DeterministicAcrossRunsWithSameSeed) {
  // Two identical stochastic workloads must execute the same number of
  // events in the same order — the property every figure regeneration
  // depends on.
  auto run_workload = [](std::uint64_t seed) {
    Simulator sim;
    sim.seed(seed);
    std::vector<std::uint64_t> trace;
    std::function<void()> tick = [&] {
      trace.push_back(sim.now());
      if (trace.size() < 500) {
        sim.schedule(sim.rng().uniform(1, 100), tick);
        if (trace.size() % 3 == 0) {
          EventId id =
              sim.schedule(sim.rng().uniform(1, 100), [&] {
                trace.push_back(~sim.now());
              });
          if (trace.size() % 6 == 0) sim.cancel(id);
        }
      }
    };
    sim.schedule(1, tick);
    sim.run();
    return std::pair(trace, sim.events_executed());
  };
  const auto a = run_workload(42);
  const auto b = run_workload(42);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  const auto c = run_workload(7);
  EXPECT_NE(a.first, c.first);
}

TEST(Simulator, ManyEventsStressOrdering) {
  // Larger-scale ordering check exercising heap growth, removal from the
  // middle, and the 4-ary sift paths.
  Simulator sim;
  sim.seed(123);
  std::vector<std::pair<Time, int>> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    const Time t = sim.rng().uniform(0, 500);
    ids.push_back(
        sim.schedule_at(t, [&fired, &sim, i] { fired.push_back({sim.now(), i}); }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
  sim.run();
  EXPECT_EQ(fired.size(), 2000u - (2000u + 2) / 3);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);  // insertion order
    }
  }
}

// Runs one seeded random script of schedule(), schedule(0), cancel() and
// lane pushes. With `use_lanes` false every lane push becomes a plain
// schedule_at() at the same time, which is the ordering oracle.
class LaneScript {
 public:
  using Fired = std::tuple<Time, int, std::size_t>;  // now, label, pending

  LaneScript(std::uint64_t seed, bool use_lanes) : use_lanes_(use_lanes) {
    sim_.seed(seed);
    for (auto& lane : lanes_) lane = &sim_.make_lane();
  }

  std::vector<Fired> run() {
    for (int i = 0; i < 64; ++i) op();
    sim_.run();
    return fired_;
  }

  std::uint64_t events() const { return sim_.events_executed(); }

 private:
  static constexpr int kBudget = 6000;

  auto body(int label) {
    return [this, label] {
      fired_.emplace_back(sim_.now(), label, sim_.pending());
      const auto n = sim_.rng().uniform(0, 3);
      for (std::uint64_t i = 0; i < n && next_label_ < kBudget; ++i) op();
    };
  }

  void op() {
    Rng& r = sim_.rng();
    const int label = next_label_++;
    switch (r.uniform(0, 5)) {
      case 0:
        ids_.push_back(sim_.schedule(r.uniform(1, 40), body(label)));
        break;
      case 1:
        ids_.push_back(sim_.schedule(0, body(label)));
        break;
      case 2:
        if (!ids_.empty()) sim_.cancel(ids_[r.uniform(0, ids_.size() - 1)]);
        break;
      default: {
        const auto k = r.uniform(0, lanes_.size() - 1);
        Time t;
        if (r.chance(0.75)) {
          // In order, often tied with the tail or with now().
          t = std::max(sim_.now(), tail_[k]) + r.uniform(0, 4);
        } else {
          // Anywhere ahead of now(), so sometimes before the tail.
          t = sim_.now() + r.uniform(0, 30);
        }
        tail_[k] = std::max(tail_[k], t);
        if (use_lanes_) {
          lanes_[k]->schedule_at(t, body(label));
        } else {
          sim_.schedule_at(t, body(label));
        }
      }
    }
  }

  Simulator sim_;
  bool use_lanes_;
  std::array<Simulator::Lane*, 3> lanes_{};
  std::array<Time, 3> tail_{};
  std::vector<EventId> ids_;
  std::vector<Fired> fired_;
  int next_label_ = 0;
};

TEST(SimulatorLane, RandomScriptFiresExactlyAsPlainSchedule) {
  for (std::uint64_t seed : {1u, 2u, 3u, 42u, 1337u}) {
    LaneScript lanes(seed, /*use_lanes=*/true);
    LaneScript plain(seed, /*use_lanes=*/false);
    const auto a = lanes.run();
    const auto b = plain.run();
    ASSERT_GT(b.size(), 1000u) << "seed " << seed;
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(lanes.events(), plain.events()) << "seed " << seed;
  }
}

TEST(SimulatorLane, PendingCountsLaneBacklog) {
  Simulator sim;
  Simulator::Lane& lane = sim.make_lane();
  lane.schedule(10, [] {});
  lane.schedule(20, [] {});
  lane.schedule(20, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.schedule(15, [] {});
  EXPECT_EQ(sim.pending(), 4u);
  ASSERT_TRUE(sim.step());  // lane head at 10
  EXPECT_EQ(sim.pending(), 3u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 4u);
}

TEST(SimulatorLane, OutOfOrderPushFallsBackToPlainEvent) {
  Simulator sim;
  Simulator::Lane& lane = sim.make_lane();
  std::vector<int> order;
  lane.schedule_at(50, [&] { order.push_back(50); });
  lane.schedule_at(20, [&] { order.push_back(20); });  // before the tail
  lane.schedule_at(50, [&] { order.push_back(51); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{20, 50, 51}));
  EXPECT_EQ(sim.now(), 50u);
}

TEST(SimulatorLane, HorizonStopsExactlyAtLaneHead) {
  // The site-parallel engine's window loop: run_events_before(h) must
  // leave a lane entry at exactly h unfired, and peek_next_time() must
  // see the promoted head.
  Simulator sim;
  Simulator::Lane& lane = sim.make_lane();
  std::vector<Time> fired;
  auto rec = [&] { fired.push_back(sim.now()); };
  lane.schedule_at(100, rec);
  lane.schedule_at(100, rec);
  lane.schedule_at(200, rec);
  lane.schedule_at(300, rec);
  sim.schedule_at(150, rec);
  EXPECT_EQ(sim.run_events_before(100), 0u);
  EXPECT_EQ(sim.run_events_before(200), 3u);
  EXPECT_EQ(sim.now(), 150u);
  EXPECT_EQ(sim.peek_next_time(), 200u);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.run_until(200));
  EXPECT_EQ(sim.now(), 200u);
  EXPECT_EQ(sim.peek_next_time(), 300u);
  EXPECT_FALSE(sim.run_until(300));
  EXPECT_EQ(fired, (std::vector<Time>{100, 100, 150, 200, 300}));
}

TEST(DurationCeil, RoundsUpFractionalNanoseconds) {
  EXPECT_EQ(duration_ceil(0.0), 0u);
  EXPECT_EQ(duration_ceil(1.0), 1u);
  EXPECT_EQ(duration_ceil(1.0001), 2u);
  EXPECT_EQ(duration_ceil(1024.0), 1024u);
  EXPECT_EQ(duration_ceil(1023.5), 1024u);
}

TEST(TimeLiterals, ConvertCorrectly) {
  EXPECT_EQ(3_us, 3000u);
  EXPECT_EQ(2_ms, 2'000'000u);
  EXPECT_EQ(1_s, 1'000'000'000u);
  EXPECT_DOUBLE_EQ(to_microseconds(1500), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(500'000'000), 0.5);
}

}  // namespace
}  // namespace ibwan::sim
