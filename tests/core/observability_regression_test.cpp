// Observability must be free: enabling the metrics registry (and even
// arming the flight recorder) may not change a single simulated
// outcome. These tests rerun miniature fig5- and fig9-style
// measurements with observability off and on and require bit-identical
// results — the same property the bench CSVs rely on to stay
// byte-identical with the registry compiled in.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "core/mpi_bench.hpp"
#include "core/testbed.hpp"
#include "ib/perftest.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace ibwan::core {
namespace {

struct RcRun {
  double mbytes_per_sec;
  sim::Time end_time;
};

RcRun run_fig5_point(bool observed) {
  Testbed tb(1, 1'000'000);  // 1 ms one-way: deep in the knee
  if (observed) {
    tb.sim().metrics().set_enabled(true);
    tb.sim().recorder().arm();
  }
  const auto bw = ib::perftest::run_bandwidth(
      tb.fabric(), tb.node_a(), tb.node_b(),
      ib::perftest::Transport::kRc, {.msg_size = 64 << 10, .iterations = 64});
  if (observed) tb.sim().recorder().disarm();
  return {bw.mbytes_per_sec, tb.sim().now()};
}

TEST(ObservabilityRegression, Fig5RcBandwidthIsBitIdentical) {
  const RcRun off = run_fig5_point(false);
  const RcRun on = run_fig5_point(true);
  EXPECT_EQ(off.mbytes_per_sec, on.mbytes_per_sec);  // exact, not near
  EXPECT_EQ(off.end_time, on.end_time);
}

double run_fig9_point(bool observed) {
  Testbed tb(1, 100'000);
  if (observed) {
    tb.sim().metrics().set_enabled(true);
    tb.sim().recorder().arm();
  }
  const double mbps = mpibench::osu_bw(
      tb, {.msg_size = 32 << 10,
           .window = 16,
           .iterations = 6,
           .warmup = 1,
           .rendezvous_threshold = 16 << 10});
  if (observed) tb.sim().recorder().disarm();
  return mbps;
}

TEST(ObservabilityRegression, Fig9MpiThresholdSweepIsBitIdentical) {
  EXPECT_EQ(run_fig9_point(false), run_fig9_point(true));
}

TEST(ObservabilityRegression, MetricsActuallyPopulateWhenEnabled) {
  // Sanity check that the "observed" arm above exercised real
  // instruments (a no-op registry would also be bit-identical). The
  // QPs are gone by the time run_bandwidth returns, so the exact RC
  // values also pin the fold of a destroyed component's counters.
  Testbed tb(1, 1'000'000);
  tb.sim().metrics().set_enabled(true);
  ib::perftest::run_bandwidth(tb.fabric(), tb.node_a(), tb.node_b(),
                              ib::perftest::Transport::kRc,
                              {.msg_size = 64 << 10, .iterations = 64});
  const sim::MetricsSnapshot snap = tb.sim().metrics().snapshot();
  ASSERT_FALSE(snap.empty());
  std::map<std::string, std::uint64_t> value;
  for (const auto& row : snap.counters) value[row.path] = row.value;
  EXPECT_EQ(value["node0/ib.rc/msgs_sent"], 64u);
  EXPECT_EQ(value["node0/ib.rc/send_completions"], 64u);
  EXPECT_EQ(value["node0/ib.rc/bytes_sent"], 64u * (64u << 10));
  EXPECT_GT(value["wan-a2b/net.link/bytes_sent"], 0u);
}

}  // namespace
}  // namespace ibwan::core
