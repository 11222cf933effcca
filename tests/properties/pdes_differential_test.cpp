// PDES differential oracle (DESIGN.md §13): small versions of the
// paper's heavy scenarios (fig5 RC bandwidth, fig12 NAS, ext_kv)
// executed on the sequential engine (IBWAN_THREADS=1, the exact path
// the committed CSVs were generated with) and site-parallel under 2
// and 4 worker threads. Simulated results, total event counts, merged
// end times, and the metrics JSON export must be *bitwise* identical —
// site-parallel execution is a pure wall-clock optimization, so any
// difference is a determinism bug, not a tolerance question.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/nas.hpp"
#include "core/kv_replicas.hpp"
#include "core/testbed.hpp"
#include "ib/perftest.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "mpi/mpi.hpp"
#include "sim/metrics.hpp"

namespace ibwan {
namespace {

struct Outcome {
  double result = 0;           // scenario's headline number
  std::uint64_t events = 0;    // events across all sites
  sim::Time end = 0;           // merged simulated end time
  int sites = 0;               // partition actually constructed
  std::string metrics_json;    // full metrics export, bytes
};

std::string json_of(const sim::MetricsSnapshot& snap) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  snap.write_json(f);
  std::fclose(f);
  std::string s(buf, len);
  std::free(buf);
  return s;
}

Outcome fig5_small() {
  core::Testbed tb(core::TestbedOptions{.wan_delay = 1'000'000,
                                        .metrics = true,
                                        .par_sites = 2});
  Outcome o;
  o.result = ib::perftest::run_bandwidth(
                 tb.fabric(), tb.node_a(), tb.node_b(),
                 ib::perftest::Transport::kRc,
                 {.msg_size = 64u << 10, .iterations = 64})
                 .mbytes_per_sec;
  o.events = tb.engine().events_executed();
  o.end = tb.now();
  o.sites = tb.engine().sites();
  o.metrics_json = json_of(tb.metrics_snapshot());
  return o;
}

Outcome fig12_small() {
  core::Testbed tb(core::TestbedOptions{.nodes_a = 4,
                                        .nodes_b = 4,
                                        .wan_delay = 1'000'000,
                                        .metrics = true,
                                        .par_sites = 2});
  mpi::Job job(tb.fabric(), mpi::Job::split_placement(tb.fabric(), 4));
  Outcome o;
  o.result = apps::run_nas(
      job, apps::make_ft({.cls = apps::NasClass::kS, .iterations = 1}));
  o.events = tb.engine().events_executed();
  o.end = tb.now();
  o.sites = tb.engine().sites();
  o.metrics_json = json_of(tb.metrics_snapshot());
  return o;
}

Outcome ext_kv_small() {
  core::Testbed tb(core::TestbedOptions{.wan_delay = 1'000'000,
                                        .metrics = true,
                                        .par_sites = 2});
  const net::NodeId client = tb.node_b();
  core::KvReplicas replicas(tb.fabric(), client, {tb.node_a()},
                            core::KvReplicas::Transport::kRc);
  replicas.preload(64, 4096);
  kv::ReplicatedKv coord(
      tb.sim_for(client), client, replicas.channels(),
      {.read_quorum = 1, .write_quorum = 1, .op_timeout = 10 * sim::kSecond});
  kv::LoadGen gen(tb.sim_for(client), coord,
                  {.concurrency = 4,
                   .total_ops = 200,
                   .get_fraction = 0.9,
                   .key_space = 64,
                   .zipf_s = 0,
                   .value_bytes = 4096});
  gen.start();
  tb.run();
  Outcome o;
  o.result = kv::make_slo_report(gen.stats()).goodput_kops;
  o.events = tb.engine().events_executed();
  o.end = tb.now();
  o.sites = tb.engine().sites();
  o.metrics_json = json_of(tb.metrics_snapshot());
  return o;
}

// Runs `scenario` once under the sequential oracle and once per
// parallel thread budget, asserting every observable is bitwise equal.
void expect_differential_identical(Outcome (*scenario)(), const char* name) {
  ::setenv("IBWAN_THREADS", "1", 1);  // oracle: collapses to one site
  const Outcome seq = scenario();
  EXPECT_EQ(seq.sites, 1) << name << ": oracle did not collapse";
  for (const char* threads : {"2", "4"}) {
    ::setenv("IBWAN_THREADS", threads, 1);
    const Outcome par = scenario();
    SCOPED_TRACE(std::string(name) + " IBWAN_THREADS=" + threads);
    EXPECT_EQ(par.sites, 2) << "scenario silently fell back to sequential";
    EXPECT_EQ(seq.result, par.result);  // bitwise, not near
    EXPECT_EQ(seq.events, par.events);
    EXPECT_EQ(seq.end, par.end);
    EXPECT_EQ(seq.metrics_json, par.metrics_json);
  }
  ::unsetenv("IBWAN_THREADS");
}

TEST(PdesDifferential, Fig5RcBandwidthByteIdentical) {
  expect_differential_identical(&fig5_small, "fig5_small");
}

TEST(PdesDifferential, Fig12NasFtByteIdentical) {
  expect_differential_identical(&fig12_small, "fig12_small");
}

TEST(PdesDifferential, ExtKvWorkloadByteIdentical) {
  expect_differential_identical(&ext_kv_small, "ext_kv_small");
}

}  // namespace
}  // namespace ibwan
