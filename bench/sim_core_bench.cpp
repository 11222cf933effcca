// Microbenchmarks for the simulator's hot paths (these gate how large a
// WAN experiment is practical to simulate).
//
// Default mode runs hand-rolled event-mix benchmarks against both the
// current engine (sim/simulator.hpp: indexed 4-ary heap + same-instant
// FIFO + inline callbacks) and a benchmark-local copy of the previous
// engine (std::function + std::priority_queue + tombstone set), reports
// events/sec for each, and writes BENCH_sim_core.json.
//
// Pass --pdes to run the site-parallel scaling suite instead: heavy
// scenarios (NAS kernels at 2 x 16 ranks, the WAN KV service, an RC
// incast on a 4-site hub/spoke graph, quorum-replicated KV serving on
// a 3-site mesh) executed sequentially and site-parallel (one LP per
// topology site), reporting wall-clock speedup and asserting the
// simulated results and event counts match exactly. Writes
// BENCH_pdes.json.
//
// Any other argument is a usage error (exit 2).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <vector>

#include "apps/nas.hpp"
#include "core/kv_replicas.hpp"
#include "core/parallel.hpp"
#include "core/testbed.hpp"
#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace baseline {

// The engine this repository shipped with before the event-core rewrite,
// kept verbatim as the comparison baseline for the mix benchmarks below.
// It is not used anywhere outside this file.
using ibwan::sim::Duration;
using ibwan::sim::Time;
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  EventId schedule(Duration delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  EventId schedule_at(Time t, Callback cb) {
    const EventId id = next_seq_++;
    queue_.push(Entry{t, id, std::move(cb)});
    return id;
  }

  void cancel(EventId id) { cancelled_.insert(id); }

  void run() {
    while (step()) {
    }
  }

  bool step() {
    while (!queue_.empty()) {
      Entry& top = const_cast<Entry&>(queue_.top());
      const Time t = top.time;
      const EventId id = top.seq;
      Callback cb = std::move(top.cb);
      queue_.pop();
      if (auto it = cancelled_.find(id); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      now_ = t;
      ++executed_;
      cb();
      return true;
    }
    return false;
  }

  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Entry {
    Time time;
    EventId seq;
    Callback cb;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_set<EventId> cancelled_;
  Time now_ = 0;
  EventId next_seq_ = 1;
  std::uint64_t executed_ = 0;
};

}  // namespace baseline

namespace {

using namespace ibwan;
using namespace ibwan::sim::literals;

// ---------------------------------------------------------------------------
// Event mixes. Each is a template over the engine so the exact same
// callbacks (capture sizes included) run on both implementations.
// ---------------------------------------------------------------------------

struct Lcg {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

// Steady-state schedule/fire mix, protocol-shaped: each "wire" event
// (delayed, like a packet arrival) schedules the next wire event plus two
// same-instant dispatch events (like CQ callbacks / coroutine resumes).
// Captures are 40 bytes — past std::function's 16-byte inline buffer, the
// size real packet/completion callbacks have in this codebase.
template <class Sim>
struct ProtocolMix {
  Sim& sim;
  std::uint64_t remaining;
  std::uint64_t sink = 0;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    const std::uint64_t p[4] = {remaining, sink, remaining ^ sink, 42};
    sim.schedule(0, [this, p] { sink += p[0] ^ p[3]; });
    sim.schedule(0, [this, p] { sink += p[1] + p[2]; });
    sim.schedule(100_ns, [this] { fire(); });
  }

  void seed_queue(int depth) {
    for (int i = 0; i < depth; ++i) {
      sim.schedule(static_cast<sim::Duration>(i + 1), [this] { fire(); });
    }
  }
};

// Churn mix: a pool of `depth` self-rescheduling events with
// pseudo-random delays — a pure heap workout with no same-instant
// shortcut available.
template <class Sim>
struct ChurnMix {
  Sim& sim;
  std::uint64_t remaining;
  Lcg lcg;
  std::uint64_t sink = 0;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    const std::uint64_t p[4] = {remaining, sink, lcg.state, 7};
    sim.schedule(static_cast<sim::Duration>(lcg.next() % 8192 + 1),
                 [this, p] {
                   sink += p[0] + p[1] + p[2] + p[3];
                   fire();
                 });
  }

  void seed_queue(int depth) {
    for (int i = 0; i < depth; ++i) fire();
  }
};

// Schedule/cancel timer mix: every completion schedules a guard timeout
// and a completion; the completion fires first and cancels the timeout —
// the retransmit-timer pattern in the TCP and RC transport layers.
template <class Sim>
struct CancelMix {
  Sim& sim;
  std::uint64_t remaining;
  Lcg lcg;
  std::uint64_t sink = 0;

  void step() {
    if (remaining == 0) return;
    --remaining;
    const auto timeout = sim.schedule(10_us, [this] { ++sink; });
    sim.schedule(static_cast<sim::Duration>(lcg.next() % 1000 + 1),
                 [this, timeout] {
                   sim.cancel(timeout);
                   step();
                 });
  }
};

struct MixResult {
  std::string name;
  std::uint64_t events_baseline = 0;
  std::uint64_t events_engine = 0;
  double baseline_eps = 0;
  double engine_eps = 0;
  double speedup() const {
    return baseline_eps > 0 ? engine_eps / baseline_eps : 0;
  }
};

template <class Fn>
double best_events_per_sec(int reps, Fn&& run, std::uint64_t* events_out) {
  double best = 0;
  for (int r = 0; r < reps; ++r) {
    // NOLINT-IBWAN(DET001): measures the harness's real wall-clock
    // throughput (events/sec of the engine itself), not simulated time
    const auto t0 = std::chrono::steady_clock::now();
    const std::uint64_t events = run();
    // NOLINT-IBWAN(DET001): same wall-clock measurement as t0 above
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (events_out != nullptr) *events_out = events;
    if (secs > 0) best = std::max(best, static_cast<double>(events) / secs);
  }
  return best;
}

template <template <class> class Mix>
MixResult run_mix(const std::string& name, int depth, std::uint64_t work,
                  int reps) {
  MixResult r;
  r.name = name;
  r.baseline_eps = best_events_per_sec(
      reps,
      [&] {
        baseline::Simulator s;
        Mix<baseline::Simulator> mix{s, work};
        if constexpr (requires { mix.seed_queue(depth); }) {
          mix.seed_queue(depth);
        } else {
          mix.step();
        }
        s.run();
        return s.events_executed();
      },
      &r.events_baseline);
  r.engine_eps = best_events_per_sec(
      reps,
      [&] {
        sim::Simulator s;
        Mix<sim::Simulator> mix{s, work};
        if constexpr (requires { mix.seed_queue(depth); }) {
          mix.seed_queue(depth);
        } else {
          mix.step();
        }
        s.run();
        return s.events_executed();
      },
      &r.events_engine);
  return r;
}

int run_mix_suite() {
  const int reps = 3;
  std::vector<MixResult> results;
  results.push_back(
      run_mix<ProtocolMix>("steady_state_schedule_fire_d256", 256, 500'000,
                           reps));
  results.push_back(
      run_mix<ProtocolMix>("steady_state_schedule_fire_d1024", 1024, 500'000,
                           reps));
  results.push_back(run_mix<ChurnMix>("churn_random_delay_d64", 64, 1'500'000,
                                      reps));
  results.push_back(
      run_mix<ChurnMix>("churn_random_delay_d1024", 1024, 1'500'000, reps));
  results.push_back(
      run_mix<ChurnMix>("churn_random_delay_d16384", 16384, 1'500'000, reps));
  results.push_back(run_mix<CancelMix>("schedule_cancel_timers", 1, 300'000,
                                       reps));

  std::printf("%-36s %14s %14s %9s\n", "mix", "baseline ev/s", "engine ev/s",
              "speedup");
  for (const auto& r : results) {
    std::printf("%-36s %14.0f %14.0f %8.2fx\n", r.name.c_str(),
                r.baseline_eps, r.engine_eps, r.speedup());
    if (r.events_baseline != r.events_engine) {
      std::printf("  WARNING: executed-event mismatch (%llu vs %llu)\n",
                  static_cast<unsigned long long>(r.events_baseline),
                  static_cast<unsigned long long>(r.events_engine));
    }
  }

  std::FILE* f = std::fopen("BENCH_sim_core.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_sim_core.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"sim_core\",\n  \"unit\": "
                  "\"events_per_second\",\n  \"mixes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"baseline_events_per_sec\": %.0f, "
                 "\"engine_events_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                 r.name.c_str(),
                 static_cast<unsigned long long>(r.events_engine),
                 r.baseline_eps, r.engine_eps, r.speedup(),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json: BENCH_sim_core.json]\n");
  return 0;
}

// ---------------------------------------------------------------------------
// Site-parallel (PDES) scaling suite (run with --pdes).
// ---------------------------------------------------------------------------

/// One measured execution: total events across all sites plus the
/// scenario's simulated result (used as an exactness witness between
/// the sequential and site-parallel runs).
struct PdesRun {
  std::uint64_t events = 0;
  double result = 0;
};

struct PdesScenario {
  std::string name;
  std::function<PdesRun()> run;
};

PdesRun run_nas_scenario(const apps::NasBenchmark& b, int per_cluster) {
  core::Testbed tb(per_cluster, 1'000'000);  // 1 ms one-way: a real WAN
  mpi::Job job(tb.fabric(),
               mpi::Job::split_placement(tb.fabric(), per_cluster));
  const double secs = apps::run_nas(job, b);
  return {tb.engine().events_executed(), secs};
}

/// The ext_kv_datacenter workload with 4 KB values: closed-loop workers
/// against one replica (R = W = N = 1) across the WAN.
PdesRun run_kv_scenario(int clients, int ops_per_client) {
  core::Testbed tb(1, 1'000'000);
  const net::NodeId client = tb.node_b();
  core::KvReplicas replicas(tb.fabric(), client, {tb.node_a()},
                            core::KvReplicas::Transport::kRc);
  replicas.preload(256, 4096);
  kv::ReplicatedKv coord(
      tb.sim_for(client), client, replicas.channels(),
      {.read_quorum = 1, .write_quorum = 1, .op_timeout = 10 * sim::kSecond});
  kv::LoadGen gen(
      tb.sim_for(client), coord,
      {.concurrency = clients,
       .total_ops = static_cast<std::uint64_t>(clients * ops_per_client),
       .get_fraction = 0.9,
       .key_space = 256,
       .zipf_s = 0,
       .value_bytes = 4096});
  gen.start();
  tb.run();
  return {tb.engine().events_executed(),
          kv::make_slo_report(gen.stats()).goodput_kops};
}

/// Concurrent RC incast on an N-site hub/spoke graph (one node per
/// site, 1 ms WAN edges): the smallest scenario whose site-parallel run
/// exercises more than two LPs and the hub's WAN-ingress demux. One
/// hand-rolled verbs flow per spoke, windowed like ext_incast.
PdesRun run_incast_scenario(int spokes, int iters) {
  net::TopologyConfig topo = net::TopologyConfig::hub_spoke(spokes, 1);
  core::Testbed tb(core::TestbedOptions{.topology = &topo,
                                        .wan_delay = 1'000'000});
  net::Fabric& fabric = tb.fabric();
  constexpr std::uint32_t kMsg = 8192;

  net::Node& hub_node = fabric.node(tb.node_at(0));
  ib::Hca hub_hca(hub_node, {});
  ib::Cq hub_scq(hub_node.sim());
  ib::Cq hub_rcq(hub_node.sim());

  struct Flow {
    std::unique_ptr<ib::Hca> hca;
    std::unique_ptr<ib::Cq> scq;
    std::unique_ptr<ib::Cq> rcq;
    ib::RcQp* qp = nullptr;
    int posted = 0;
  };
  std::vector<std::unique_ptr<Flow>> flows;

  int received = 0;
  sim::Time last_arrival = 0;
  hub_rcq.set_callback([&](const ib::Cqe&) {
    ++received;
    if (received == spokes * iters) last_arrival = hub_node.sim().now();
  });

  for (int s = 0; s < spokes; ++s) {
    auto flow = std::make_unique<Flow>();
    net::Node& sp_node = fabric.node(tb.node_at(s + 1));
    flow->hca = std::make_unique<ib::Hca>(sp_node, ib::HcaConfig{});
    flow->scq = std::make_unique<ib::Cq>(sp_node.sim());
    flow->rcq = std::make_unique<ib::Cq>(sp_node.sim());
    flow->qp = &flow->hca->create_rc_qp(*flow->scq, *flow->rcq);
    ib::RcQp& hub_qp = hub_hca.create_rc_qp(hub_scq, hub_rcq);
    flow->qp->connect(hub_hca.lid(), hub_qp.qpn());
    hub_qp.connect(flow->hca->lid(), flow->qp->qpn());
    for (int i = 0; i < iters; ++i) {
      hub_qp.post_recv(ib::RecvWr{.max_length = kMsg});
    }
    flows.push_back(std::move(flow));
  }

  for (auto& fp : flows) {
    Flow* f = fp.get();
    auto post_one = [f]() {
      ++f->posted;
      f->qp->post_send(ib::SendWr{
          .wr_id = static_cast<std::uint64_t>(f->posted), .length = kMsg});
    };
    f->scq->set_callback([f, post_one, iters](const ib::Cqe&) {
      if (f->posted < iters) post_one();
    });
    const int burst = std::min(16, iters);
    for (int i = 0; i < burst; ++i) post_one();
  }

  tb.run();
  const double goodput =
      last_arrival > 0 ? static_cast<double>(received) * kMsg /
                             static_cast<double>(last_arrival) * 1e3
                       : 0;
  return {tb.engine().events_executed(), goodput};
}

/// Quorum-replicated KV serving over an N-site full mesh (two nodes
/// per site): R/W fan-out from a client LP to one replica LP per site,
/// driven by the deterministic open-loop generator. Exercises the
/// coroutine-heavy RPC quorum/timeout path under site parallelism.
PdesRun run_serving_scenario(int sites, std::uint64_t total_ops) {
  net::TopologyConfig topo = net::TopologyConfig::full_mesh(sites, 2);
  core::Testbed tb(core::TestbedOptions{.topology = &topo,
                                        .wan_delay = 1'000'000});
  const net::NodeId client_node = tb.node_at(0, 1);
  std::vector<net::NodeId> replica_nodes;
  for (int s = 0; s < sites; ++s) replica_nodes.push_back(tb.node_at(s));
  core::KvReplicas replicas(tb.fabric(), client_node, replica_nodes,
                            core::KvReplicas::Transport::kRc);
  replicas.preload(64, 4096);
  kv::QuorumConfig qc;
  qc.op_timeout = 250 * sim::kMillisecond;
  kv::ReplicatedKv coord(tb.sim_for(client_node), client_node,
                         replicas.channels(), qc);
  kv::LoadGenConfig lc;
  lc.mode = kv::ArrivalMode::kOpen;
  lc.offered_kops = 0.8;
  lc.total_ops = total_ops;
  lc.key_space = 64;
  lc.value_bytes = 4096;
  kv::LoadGen gen(tb.sim_for(client_node), coord, lc);
  gen.start();
  tb.run();
  return {tb.engine().events_executed(),
          kv::make_slo_report(gen.stats()).goodput_kops};
}

struct PdesResult {
  std::string name;
  std::uint64_t events = 0;
  double seq_seconds = 0;
  double pdes_seconds = 0;
  bool exact = true;  // result + event count identical across modes
  double speedup() const {
    return pdes_seconds > 0 ? seq_seconds / pdes_seconds : 0;
  }
};

int run_pdes_suite() {
  const apps::NasConfig nas_cfg{.cls = apps::NasClass::kB, .iterations = 2};
  const std::vector<PdesScenario> scenarios = {
      {"nas_ft_2x16_1ms",
       [&] { return run_nas_scenario(apps::make_ft(nas_cfg), 16); }},
      {"nas_is_2x16_1ms",
       [&] { return run_nas_scenario(apps::make_is(nas_cfg), 16); }},
      {"nas_cg_2x16_1ms",
       [&] { return run_nas_scenario(apps::make_cg(nas_cfg), 16); }},
      {"ext_kv_16clients_1ms", [] { return run_kv_scenario(16, 300); }},
      {"incast_hub3spokes_1ms", [] { return run_incast_scenario(3, 2000); }},
      {"kv_serving_3site_1ms", [] { return run_serving_scenario(3, 400); }},
  };

  // NOLINT-IBWAN(DET001): reported context for the perf gate — speedup
  // claims are only meaningful on multi-core hosts
  const unsigned hw = std::thread::hardware_concurrency();
  const int reps = 2;
  std::vector<PdesResult> results;
  int exact_failures = 0;

  for (const PdesScenario& s : scenarios) {
    PdesResult r;
    r.name = s.name;
    PdesRun seq_run, pdes_run;
    core::set_par_sites(1);
    double seq_best = 1e300;
    for (int i = 0; i < reps; ++i) {
      // NOLINT-IBWAN(DET001): wall-clock measurement of the harness
      const auto t0 = std::chrono::steady_clock::now();
      seq_run = s.run();
      // NOLINT-IBWAN(DET001): wall-clock measurement of the harness
      const auto t1 = std::chrono::steady_clock::now();
      seq_best =
          std::min(seq_best, std::chrono::duration<double>(t1 - t0).count());
    }
    core::set_par_sites(2);
    double pdes_best = 1e300;
    for (int i = 0; i < reps; ++i) {
      // NOLINT-IBWAN(DET001): wall-clock measurement of the harness
      const auto t0 = std::chrono::steady_clock::now();
      pdes_run = s.run();
      // NOLINT-IBWAN(DET001): wall-clock measurement of the harness
      const auto t1 = std::chrono::steady_clock::now();
      pdes_best =
          std::min(pdes_best, std::chrono::duration<double>(t1 - t0).count());
    }
    core::set_par_sites(1);
    r.events = seq_run.events;
    r.seq_seconds = seq_best;
    r.pdes_seconds = pdes_best;
    r.exact = seq_run.events == pdes_run.events &&
              seq_run.result == pdes_run.result;
    if (!r.exact) {
      ++exact_failures;
      std::printf(
          "  EXACTNESS FAILURE %s: events %llu vs %llu, result %.17g vs "
          "%.17g\n",
          s.name.c_str(), static_cast<unsigned long long>(seq_run.events),
          static_cast<unsigned long long>(pdes_run.events), seq_run.result,
          pdes_run.result);
    }
    results.push_back(r);
  }

  std::printf("hardware threads: %u (speedup is ~1.0 by design on 1 core)\n",
              hw);
  std::printf("%-28s %12s %10s %10s %9s %6s\n", "scenario", "events",
              "seq s", "pdes s", "speedup", "exact");
  for (const auto& r : results) {
    std::printf("%-28s %12llu %10.3f %10.3f %8.2fx %6s\n", r.name.c_str(),
                static_cast<unsigned long long>(r.events), r.seq_seconds,
                r.pdes_seconds, r.speedup(), r.exact ? "yes" : "NO");
  }

  std::FILE* f = std::fopen("BENCH_pdes.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_pdes.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"benchmark\": \"pdes\",\n  \"unit\": \"seconds\",\n"
               "  \"hw_concurrency\": %u,\n  \"scenarios\": [\n",
               hw);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"events\": %llu, "
                 "\"seq_seconds\": %.4f, \"pdes_seconds\": %.4f, "
                 "\"speedup\": %.3f, \"exact\": %s}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.events),
                 r.seq_seconds, r.pdes_seconds, r.speedup(),
                 r.exact ? "true" : "false",
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json: BENCH_pdes.json]\n");
  return exact_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool pdes = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != "--pdes") {
      std::fprintf(stderr, "unknown argument '%s' (accepted: --pdes)\n",
                   argv[i]);
      return 2;
    }
    pdes = true;
  }
  return pdes ? run_pdes_suite() : run_mix_suite();
}
