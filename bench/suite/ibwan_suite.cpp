// ibwan_suite: the driver of the repository benchmark (bench/suite/README.md).
//
// One invocation runs every cell of one workload once, in this process,
// and prints JSON lines on stdout:
//
//   {"plan": {...}}     the workload, its LP counts and its cell names
//   {"cell": {...}}     one per cell, as it finishes, with its PDES stats
//   {"summary": {...}}  process totals; per-layer metrics with --trace
//
// Every time is host time, measured around calls into the simulator's
// public API; nothing under src/ is instrumented. Names containing
// "sim" are simulated quantities read back from the model. run.py spawns
// one process per (workload, rep), checks the cell fingerprints across
// processes and aggregates.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "apps/nas.hpp"
#include "check/oracles.hpp"
#include "core/calibration.hpp"
#include "core/testbed.hpp"
#include "ib/hca.hpp"
#include "ib/perftest.hpp"
#include "ipoib/ipoib.hpp"
#include "kv/loadgen.hpp"
#include "kv/replicated.hpp"
#include "kv/slo.hpp"
#include "mpi/mpi.hpp"
#include "net/link.hpp"
#include "rpc/rpc.hpp"
#include "sdr/sdr.hpp"
#include "sim/stats.hpp"
#include "tcp/tcp.hpp"

// Global allocation counter behind proc.heap_allocs. Armed only while a
// traced run executes its cells; otherwise each allocation pays one
// predictable branch.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

using namespace ibwan;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

rusage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

/// User + system CPU seconds of the whole process (all threads).
double cpu_seconds() {
  const rusage ru = usage();
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak RSS of this process image in MiB. VmHWM rather than ru_maxrss:
/// Linux carries the parent's high-water mark into ru_maxrss across
/// exec, so a rep launched from a large parent would read the parent's.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return static_cast<double>(usage().ru_maxrss) / 1024.0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Adds the wall time of its scope to `acc`.
class Lap {
 public:
  explicit Lap(double& acc) : acc_(acc), t0_(Clock::now()) {}
  ~Lap() { acc_ += since(t0_); }
  Lap(const Lap&) = delete;
  Lap& operator=(const Lap&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool smoke = false;  // tiny cells, for tests only
  bool trace = false;  // metrics registry, conservation checks, probes
  int par_sites = 0;   // 0: the workload's own engine
};

/// Host seconds spent in each module's set-up calls.
struct ModuleSetup {
  double net = 0;  // testbed and fabric
  double ib = 0;   // HCAs, QPs, SDR endpoints
  double mpi = 0;  // MPI job (its ranks build their own HCAs)
  double rpc = 0;  // RPC endpoints, with their IPoIB/TCP stacks
  double kv = 0;   // replicas, preload, coordinator, load generator
};

struct Cell {
  std::string name;
  Clock::time_point start;
  ModuleSetup setup_by_module;
  double setup_s = 0;    // cell start to the simulation call
  double run_s = 0;      // inside the simulation call
  double run_cpu_s = 0;  // process CPU seconds inside it
  std::uint64_t events = 0;
  sim::Time end_ns = 0;
  int threads = 1;
  sim::SiteEngine::Stats pdes;  // all zero on the sequential engine
  std::string result;  // the simulated result, canonical text
  sim::MetricsSnapshot snap;  // traced runs only
  check::OracleReport checks;
  double check_s = 0;
  std::string error;  // what() of an exception the cell threw
};

/// Closes the cell's set-up phase, times `body` (the simulation call)
/// and records the testbed's end state.
template <class F>
auto simulate(Cell& c, const Options& opt, core::Testbed& tb, F&& body) {
  c.setup_s = since(c.start);
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  auto r = body();
  c.run_s = since(t0);
  c.run_cpu_s = cpu_seconds() - cpu0;
  sim::SiteEngine& eng = tb.engine();
  c.events = eng.events_executed();
  c.end_ns = tb.now();
  c.threads = eng.threads();
  c.pdes = eng.stats();
  if (opt.trace) c.snap = tb.metrics_snapshot();
  return r;
}

core::TestbedOptions testbed_options(const Options& opt, int par_sites) {
  core::TestbedOptions o;
  o.seed = opt.seed;
  o.metrics = opt.trace;
  o.par_sites = par_sites;
  return o;
}

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

using CellFn = std::function<void(Cell&)>;
struct CellSpec {
  std::string name;
  CellFn run;
};

// ---- nas_wan -------------------------------------------------------------

/// NAS FT, IS and CG (class B, 2 timed iterations, 16+16 ranks) at 1 ms
/// and 10 ms one-way: the mpi, ib.rc, net and event-heap paths do nearly
/// all the work, on a clean WAN.
std::vector<CellSpec> nas_cells(const Options& opt, int par_sites) {
  const int per_cluster = opt.smoke ? 4 : 16;
  const apps::NasConfig cfg{
      .cls = opt.smoke ? apps::NasClass::kS : apps::NasClass::kB,
      .iterations = opt.smoke ? 1 : 2};
  using Maker = apps::NasBenchmark (*)(const apps::NasConfig&);
  const std::pair<const char*, Maker> kernels[] = {
      {"ft", apps::make_ft}, {"is", apps::make_is}, {"cg", apps::make_cg}};
  std::vector<CellSpec> cells;
  for (const sim::Duration delay : {1 * sim::kMillisecond, 10 * sim::kMillisecond}) {
    for (const auto& kernel : kernels) {
      const Maker make = kernel.second;
      const std::string name = format("%s_%llums", kernel.first,
                                      static_cast<unsigned long long>(delay / sim::kMillisecond));
      cells.push_back({name, [=, &opt](Cell& c) {
        core::TestbedOptions o = testbed_options(opt, par_sites);
        o.nodes_a = o.nodes_b = per_cluster;
        o.wan_delay = delay;
        std::unique_ptr<core::Testbed> tb;
        {
          Lap lap(c.setup_by_module.net);
          tb = std::make_unique<core::Testbed>(o);
        }
        std::unique_ptr<mpi::Job> job;
        {
          Lap lap(c.setup_by_module.mpi);
          job = std::make_unique<mpi::Job>(
              tb->fabric(), mpi::Job::split_placement(tb->fabric(), per_cluster));
        }
        const apps::NasBenchmark bench = make(cfg);
        const double secs =
            simulate(c, opt, *tb, [&] { return apps::run_nas(*job, bench); });
        c.result = format("nas_s=%.17g", secs);
        Lap lap(c.check_s);
        c.checks.expect_true("nas-time", c.name, std::isfinite(secs) && secs > 0,
                             c.result);
      }});
    }
  }
  return cells;
}

// ---- kv_mesh -------------------------------------------------------------

enum class RpcTransport { kRc, kSdr, kTcp };

/// Replica endpoints; only the chosen transport's members are set.
struct Replica {
  std::unique_ptr<ib::Hca> hca;
  std::unique_ptr<kv::ReplicaServer> server;
  std::unique_ptr<rpc::RdmaRpcServer> rdma_server;
  std::unique_ptr<rpc::RdmaRpcClient> rdma_client;
  std::unique_ptr<ipoib::IpoibDevice> dev;
  std::unique_ptr<tcp::TcpStack> stack;
  std::unique_ptr<rpc::TcpRpcServer> tcp_server;
  std::unique_ptr<rpc::TcpRpcClient> tcp_client;
  std::unique_ptr<rpc::SdrRpcServer> sdr_server;
  std::unique_ptr<rpc::SdrRpcClient> sdr_client;
};

constexpr int kKvReplicas = 3;
constexpr std::uint64_t kKvKeys = 256;

sdr::SdrConfig rs_16_4() {
  sdr::SdrConfig cfg;
  cfg.scheme = sdr::Scheme::kRs;
  cfg.group_data_chunks = 16;
  cfg.parity_per_group = 4;
  return cfg;
}

/// One open-loop quorum-KV cell on full_mesh(3, 2) at 1 ms one-way: the
/// client on site 0 node 1, one replica on node 0 of every site.
void kv_cell(Cell& c, const Options& opt, int par_sites, RpcTransport transport,
             double kops, double get_fraction) {
  const net::TopologyConfig topo = net::TopologyConfig::full_mesh(kKvReplicas, 2);
  core::TestbedOptions o = testbed_options(opt, par_sites);
  o.topology = &topo;
  o.wan_delay = 1 * sim::kMillisecond;
  std::unique_ptr<core::Testbed> tb;
  {
    Lap lap(c.setup_by_module.net);
    tb = std::make_unique<core::Testbed>(o);
  }
  net::Fabric& fabric = tb->fabric();
  const net::NodeId client_node = tb->node_at(0, 1);

  std::unique_ptr<ib::Hca> client_hca;
  {
    Lap lap(c.setup_by_module.ib);
    client_hca = std::make_unique<ib::Hca>(fabric.node(client_node), ib::HcaConfig{});
  }
  std::unique_ptr<ipoib::IpoibDevice> client_dev;
  std::unique_ptr<tcp::TcpStack> client_stack;
  if (transport == RpcTransport::kTcp) {
    Lap lap(c.setup_by_module.rpc);
    client_dev = std::make_unique<ipoib::IpoibDevice>(*client_hca, core::ipoib_ud());
    client_stack = std::make_unique<tcp::TcpStack>(*client_dev, core::tcp_window());
  }

  kv::LoadGenConfig load;
  load.mode = kv::ArrivalMode::kOpen;
  load.offered_kops = kops;
  load.total_ops = opt.smoke ? 100 : 2000;
  load.get_fraction = get_fraction;
  load.key_space = kKvKeys;
  load.zipf_s = 0.99;
  load.value_bytes = 16384;

  std::vector<std::unique_ptr<Replica>> replicas;
  std::vector<rpc::RpcClient*> channels;
  for (int s = 0; s < kKvReplicas; ++s) {
    const net::NodeId rn = tb->node_at(s);
    auto r = std::make_unique<Replica>();
    {
      Lap lap(c.setup_by_module.ib);
      r->hca = std::make_unique<ib::Hca>(fabric.node(rn), ib::HcaConfig{});
    }
    {
      Lap lap(c.setup_by_module.kv);
      r->server = std::make_unique<kv::ReplicaServer>(tb->sim_for(rn), rn,
                                                      kv::ReplicaConfig{});
      for (std::uint64_t k = 0; k < kKvKeys; ++k) {
        r->server->preload(k, load.value_bytes);
      }
    }
    Lap lap(c.setup_by_module.rpc);
    switch (transport) {
      case RpcTransport::kRc:
        r->rdma_server = std::make_unique<rpc::RdmaRpcServer>(*r->hca);
        r->rdma_server->set_handler(r->server->handler());
        r->rdma_client =
            std::make_unique<rpc::RdmaRpcClient>(*client_hca, *r->rdma_server);
        channels.push_back(r->rdma_client.get());
        break;
      case RpcTransport::kSdr:
        r->sdr_server = std::make_unique<rpc::SdrRpcServer>(*r->hca, rs_16_4());
        r->sdr_server->set_handler(r->server->handler());
        r->sdr_client = std::make_unique<rpc::SdrRpcClient>(
            *client_hca, *r->sdr_server, rs_16_4());
        channels.push_back(r->sdr_client.get());
        break;
      case RpcTransport::kTcp:
        r->dev = std::make_unique<ipoib::IpoibDevice>(*r->hca, core::ipoib_ud());
        ipoib::IpoibDevice::link(*client_dev, *r->dev);
        r->stack = std::make_unique<tcp::TcpStack>(*r->dev, core::tcp_window());
        r->tcp_server = std::make_unique<rpc::TcpRpcServer>(*r->stack, 7000);
        r->tcp_server->set_handler(r->server->handler());
        r->tcp_client = std::make_unique<rpc::TcpRpcClient>(*client_stack,
                                                            r->stack->lid(), 7000);
        channels.push_back(r->tcp_client.get());
        break;
    }
    replicas.push_back(std::move(r));
  }

  kv::QuorumConfig qc;
  qc.read_quorum = 2;
  qc.write_quorum = 2;
  qc.op_timeout = 250 * sim::kMillisecond;
  qc.max_retries = 1;
  std::unique_ptr<kv::ReplicatedKv> coord;
  std::unique_ptr<kv::LoadGen> gen;
  {
    Lap lap(c.setup_by_module.kv);
    coord = std::make_unique<kv::ReplicatedKv>(tb->sim_for(client_node), client_node,
                                               std::move(channels), qc);
    gen = std::make_unique<kv::LoadGen>(tb->sim_for(client_node), *coord, load);
    gen->start();
  }
  simulate(c, opt, *tb, [&] {
    tb->run();
    return 0;
  });
  const kv::SloReport slo = kv::make_slo_report(gen->stats());
  c.result = kv::to_json(slo);
  Lap lap(c.check_s);
  c.checks.expect_eq_u64("kv-op-accounting", c.name,
                         slo.completed + slo.timed_out + slo.aborted, slo.issued);
  c.checks.expect_eq_u64("kv-ops-issued", c.name, slo.issued, load.total_ops);
}

/// Open-loop quorum KV (R=W=2, 250 ms timeout, 1 retry) at 0.4 and 1.6
/// kops, 90 % and 50 % reads, over RC, SDR RS(16,4) and TCP: the kv, rpc,
/// coroutine, timer and tcp/ipoib paths; site-parallel, narrow PDES
/// windows. RC at 1.6 kops with 50 % writes sits on its SLO cliff.
std::vector<CellSpec> kv_cells(const Options& opt, int par_sites) {
  const std::pair<const char*, RpcTransport> transports[] = {
      {"rc", RpcTransport::kRc}, {"sdr", RpcTransport::kSdr}, {"tcp", RpcTransport::kTcp}};
  std::vector<CellSpec> cells;
  for (const auto& transport : transports) {
    const RpcTransport t = transport.second;
    for (const double kops : {0.4, 1.6}) {
      for (const double gets : {0.9, 0.5}) {
        const std::string name =
            format("%s_%.1fkops_get%.0f", transport.first, kops, gets * 100);
        cells.push_back({name, [=, &opt](Cell& c) {
          kv_cell(c, opt, par_sites, t, kops, gets);
        }});
      }
    }
  }
  return cells;
}

// ---- wan_loss ------------------------------------------------------------

constexpr std::uint64_t kLossMsgBytes = 2ull << 20;
constexpr sim::Duration kLossDelay = 40 * sim::kMillisecond;  // 8000 km

/// ext_sdr_fec's Gilbert-Elliott plan: ~2 % of time in a bad state that
/// loses 20 % of packets, in bursts.
net::FaultPlanConfig bursty_plan() {
  net::FaultPlanConfig plan;
  plan.ge.p_good_to_bad = 0.002;
  plan.ge.p_bad_to_good = 0.1;
  plan.ge.loss_good = 0.0001;
  plan.ge.loss_bad = 0.2;
  return plan;
}

core::TestbedOptions loss_testbed(const Options& opt, int par_sites,
                                  const net::FaultPlanConfig& plan) {
  core::TestbedOptions o = testbed_options(opt, par_sites);
  o.wan_delay = kLossDelay;
  o.faults = &plan;
  return o;
}

/// 2 MB SDR messages, 16 in flight, each completion issuing the next.
void sdr_cell(Cell& c, const Options& opt, int par_sites, sdr::SdrConfig cfg) {
  const net::FaultPlanConfig plan = bursty_plan();
  std::unique_ptr<core::Testbed> tb;
  {
    Lap lap(c.setup_by_module.net);
    tb = std::make_unique<core::Testbed>(loss_testbed(opt, par_sites, plan));
  }
  std::unique_ptr<ib::Hca> hca_a, hca_b;
  std::unique_ptr<sdr::SdrEndpoint> src, dst;
  {
    Lap lap(c.setup_by_module.ib);
    hca_a = std::make_unique<ib::Hca>(tb->fabric().node(tb->node_a()), ib::HcaConfig{});
    hca_b = std::make_unique<ib::Hca>(tb->fabric().node(tb->node_b()), ib::HcaConfig{});
    src = std::make_unique<sdr::SdrEndpoint>(*hca_a, cfg);
    dst = std::make_unique<sdr::SdrEndpoint>(*hca_b, cfg);
  }
  const std::uint64_t total = opt.smoke ? 8 : 192;
  std::uint64_t issued = 0, completed = 0;
  std::function<void()> issue_next = [&] {
    if (issued == total) return;
    ++issued;
    src->send(dst->dest(), kLossMsgBytes, [&](bool ok) {
      if (ok) ++completed;
      issue_next();
    });
  };
  for (int i = 0; i < 16; ++i) issue_next();
  simulate(c, opt, *tb, [&] {
    tb->run();
    return 0;
  });
  const std::uint64_t delivered = dst->stats().msg_bytes_delivered;
  c.result = format("completed=%llu delivered_bytes=%llu",
                    static_cast<unsigned long long>(completed),
                    static_cast<unsigned long long>(delivered));
  Lap lap(c.check_s);
  c.checks.expect_eq_u64("sdr-delivered-bytes", c.name, delivered,
                         completed * kLossMsgBytes);
  c.checks.expect_eq_u64("sdr-completed", c.name, completed, total);
}

/// perftest RC streaming of 256 KB messages (192 MB) through the same
/// loss. With 2 MB messages each loss burst re-sends up to a 32 MB
/// window, so a run's cost and peak RSS hang on a handful of bursts
/// (events +-9 %, RSS +-3 MB between seeds); 256 KB messages spread the
/// same go-back-N work over many more, cheaper bursts.
void rc_cell(Cell& c, const Options& opt, int par_sites) {
  const net::FaultPlanConfig plan = bursty_plan();
  std::unique_ptr<core::Testbed> tb;
  {
    Lap lap(c.setup_by_module.net);
    tb = std::make_unique<core::Testbed>(loss_testbed(opt, par_sites, plan));
  }
  const ib::perftest::TestConfig cfg{
      .msg_size = 256 * 1024,
      .iterations = opt.smoke ? 32 : 768};
  const ib::perftest::BandwidthResult bw = simulate(c, opt, *tb, [&] {
    return ib::perftest::run_bandwidth(tb->fabric(), tb->node_a(), tb->node_b(),
                                       ib::perftest::Transport::kRc, cfg);
  });
  c.result = format("mbps=%.17g bytes=%llu", bw.mbytes_per_sec,
                    static_cast<unsigned long long>(bw.total_bytes));
  Lap lap(c.check_s);
  const check::Tolerances tol;
  c.checks.expect_le("rc-wire-peak", c.name, bw.mbytes_per_sec,
                     check::rc_wire_peak_mbps(core::fabric_defaults(1, 1),
                                              cfg.hca, cfg.msg_size),
                     tol.bound_slack);
}

/// Two sites at 40 ms one-way under bursty loss: SDR RS(16,4), SDR
/// adaptive and RC perftest exercise net.faults, the sdr endpoint, ib.ud
/// and RC go-back-N.
std::vector<CellSpec> loss_cells(const Options& opt, int par_sites) {
  sdr::SdrConfig adaptive = rs_16_4();
  adaptive.parity_per_group = 0;
  adaptive.adaptive = true;
  return {
      {"sdr_rs", [&opt, par_sites](Cell& c) { sdr_cell(c, opt, par_sites, rs_16_4()); }},
      {"sdr_adaptive",
       [&opt, par_sites, adaptive](Cell& c) { sdr_cell(c, opt, par_sites, adaptive); }},
      {"rc_perftest", [&opt, par_sites](Cell& c) { rc_cell(c, opt, par_sites); }},
  };
}

/// Every workload runs on the sequential engine unless --par-sites asks
/// otherwise: the timed reps stay single-threaded, so their wall time
/// does not hang on how a shared host schedules barrier-bound threads.
/// A traced run adds one site-parallel rep with `pdes_sites` LPs.
struct Workload {
  const char* name;
  int pdes_sites;  // LPs of the traced run's site-parallel rep
  std::vector<CellSpec> (*cells)(const Options&, int);
};

constexpr Workload kWorkloads[] = {
    {"nas_wan", 2, nas_cells},
    {"kv_mesh", 3, kv_cells},
    {"wan_loss", 2, loss_cells},
};

// ---- probes (traced runs) ------------------------------------------------

std::uint64_t lcg(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

/// Host ns per Simulator::schedule + fire, 1024 events per batch, at
/// delays spread over 1-4096 ns.
double probe_event_ns(std::uint64_t seed, int batches) {
  using namespace sim::literals;
  sim::Simulator s;
  std::uint64_t x = seed, fired = 0;
  const Clock::time_point t0 = Clock::now();
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < 1024; ++i) {
      s.schedule(1_ns + (lcg(x) >> 52), [&fired] { ++fired; });
    }
    s.run();
  }
  return since(t0) * 1e9 / static_cast<double>(fired);
}

/// Host ns per LogHistogram::add over values of every magnitude.
double probe_hist_add_ns(std::uint64_t seed, int n) {
  sim::LogHistogram h;
  std::uint64_t x = seed;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    const std::uint64_t v = lcg(x);
    h.add(v >> (v & 63));
  }
  const double s = since(t0);
  if (h.total() != static_cast<std::uint64_t>(n)) std::abort();
  return s * 1e9 / n;
}

/// Host ns per 2 KB packet from Link::send to the sink, 256 per batch.
double probe_link_pkt_ns(int batches) {
  sim::Simulator s;
  net::Link link(s, net::Link::Config{.bytes_per_ns = 2.0, .propagation = 100},
                 "probe-link");
  std::uint64_t delivered = 0;
  link.set_sink([&delivered](net::Packet&&) { ++delivered; });
  std::uint64_t id = 0;
  const Clock::time_point t0 = Clock::now();
  for (int b = 0; b < batches; ++b) {
    for (int i = 0; i < 256; ++i) {
      net::Packet p;
      p.wire_size = 2048;
      p.id = ++id;
      link.send(std::move(p));
    }
    s.run();
  }
  return since(t0) * 1e9 / static_cast<double>(delivered);
}

/// Host us per 64 KB RC message, post_send to send CQE, back to back
/// across a zero-delay WAN.
double probe_rc_msg_us(std::uint64_t seed, int msgs) {
  core::Testbed tb(core::TestbedOptions{.seed = seed, .par_sites = 1});
  ib::Hca a(tb.fabric().node(tb.node_a()), {});
  ib::Hca b(tb.fabric().node(tb.node_b()), {});
  ib::Cq a_scq(a.sim()), a_rcq(a.sim()), b_scq(b.sim()), b_rcq(b.sim());
  ib::RcQp& qa = a.create_rc_qp(a_scq, a_rcq);
  ib::RcQp& qb = b.create_rc_qp(b_scq, b_rcq);
  qa.connect(b.lid(), qb.qpn());
  qb.connect(a.lid(), qa.qpn());
  constexpr std::uint64_t kBytes = 64 * 1024;
  for (int i = 0; i < msgs; ++i) {
    qb.post_recv(ib::RecvWr{.wr_id = static_cast<std::uint64_t>(i), .max_length = kBytes});
  }
  int done = 0;
  const auto post = [&] {
    qa.post_send(ib::SendWr{.wr_id = static_cast<std::uint64_t>(done), .length = kBytes});
  };
  a_scq.set_callback([&](const ib::Cqe&) {
    if (++done < msgs) post();
  });
  const Clock::time_point t0 = Clock::now();
  post();
  tb.run();
  return since(t0) * 1e6 / done;
}

// ---- per-layer metrics -----------------------------------------------------

/// Counter sums keyed "<layer>/<leaf>" over a snapshot's
/// "<instance>/<layer>/<leaf>" paths.
class LayerSums {
 public:
  explicit LayerSums(const sim::MetricsSnapshot& snap) {
    for (const auto& r : snap.counters) sums_[key(r.path)] += static_cast<double>(r.value);
  }
  double operator()(const char* k) const {
    const auto it = sums_.find(k);
    return it == sums_.end() ? 0.0 : it->second;
  }
  static std::string key(const std::string& path) {
    const std::size_t leaf = path.rfind('/');
    const std::size_t layer = leaf == 0 || leaf == std::string::npos
                                  ? std::string::npos
                                  : path.rfind('/', leaf - 1);
    return layer == std::string::npos ? path : path.substr(layer + 1);
  }

 private:
  std::map<std::string, double> sums_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::map<std::string, double> layer_metrics(const std::vector<Cell>& cells,
                                            std::uint64_t allocs, double cpu_s,
                                            std::uint64_t seed, bool smoke) {
  sim::MetricsSnapshot all;
  ModuleSetup setup;
  double events = 0, run_s = 0, check_s = 0;
  double sdr_bytes = 0, sdr_sim_s = 0;
  for (const Cell& c : cells) {
    all.merge(c.snap);
    setup.net += c.setup_by_module.net;
    setup.ib += c.setup_by_module.ib;
    setup.mpi += c.setup_by_module.mpi;
    setup.rpc += c.setup_by_module.rpc;
    setup.kv += c.setup_by_module.kv;
    events += static_cast<double>(c.events);
    run_s += c.run_s;
    check_s += c.check_s;
    const double delivered = LayerSums(c.snap)("sdr/msg_bytes_delivered");
    if (delivered > 0) {
      sdr_bytes += delivered;
      sdr_sim_s += sim::to_seconds(c.end_ns);
    }
  }
  const LayerSums t(all);
  double kv_p99_ns = 0;
  for (const auto& h : all.histograms) {
    if (LayerSums::key(h.path) == "kv.client/op_ns") {
      kv_p99_ns = std::max(kv_p99_ns, static_cast<double>(h.p99));
    }
  }
  const int scale = smoke ? 1 : 8;
  std::map<std::string, double> m;
  m["sim.events"] = events;
  m["sim.ns_per_event"] = ratio(run_s * 1e9, events);
  m["sim.probe.event_ns"] = probe_event_ns(seed, 64 * scale);
  m["sim.probe.hist_add_ns"] = probe_hist_add_ns(seed, 1'000'000 * scale);
  m["proc.cpu_s"] = cpu_s;
  m["proc.heap_allocs"] = static_cast<double>(allocs);
  m["proc.allocs_per_event"] = ratio(static_cast<double>(allocs), events);
  m["net.setup_s"] = setup.net;
  m["net.pkts_sent"] = t("net.link/pkts_sent");
  m["net.pkts_dropped"] = t("net.link/drops_buffer") + t("net.link/drops_loss") +
                          t("net.link/drops_fault") + t("net.link/drops_link_down") +
                          t("net.switch/drops_no_route") + t("net.wan/drops_no_port");
  m["net.switch_forwarded"] = t("net.switch/pkts_forwarded");
  m["net.probe.link_pkt_ns"] = probe_link_pkt_ns(32 * scale);
  m["ib.setup_s"] = setup.ib;
  m["ib.rc.msgs_sent"] = t("ib.rc/msgs_sent");
  m["ib.rc.retx_frac"] = ratio(t("ib.rc/pkts_retransmitted"), t("ib.hca/pkts_tx"));
  m["ib.rc.window_stall_ms"] = t("ib.rc/window_stall_ns") / 1e6;
  m["ib.ud.datagrams_sent"] = t("ib.ud/datagrams_sent");
  m["ib.probe.rc_msg_us"] = probe_rc_msg_us(seed, 64 * scale);
  m["mpi.setup_s"] = setup.mpi;
  m["mpi.msgs_sent"] = t("mpi/eager_sent") + t("mpi/rndv_sent");
  m["mpi.unexpected_frac"] = ratio(t("mpi/unexpected"), t("mpi/msgs_received"));
  const double data_chunks = t("sdr/data_chunks_sent");
  const double extra_chunks = t("sdr/parity_chunks_sent") + t("sdr/retrans_chunks_sent");
  m["sdr.chunks_sent"] = data_chunks + extra_chunks;
  m["sdr.overhead_frac"] = ratio(extra_chunks, data_chunks);
  m["sdr.repaired"] = t("sdr/chunks_repaired");
  m["sdr.goodput_mbps"] = ratio(sdr_bytes / 1e6, sdr_sim_s);
  m["tcp.segs_sent"] = t("tcp/segs_sent");
  m["tcp.retx_frac"] = ratio(t("tcp/retransmits"), t("tcp/segs_sent"));
  m["rpc.setup_s"] = setup.rpc;
  m["rpc.calls"] = t("rpc.rdma/calls") + t("rpc.sdr/calls") + t("rpc.tcp/calls");
  m["rpc.call_failures"] =
      t("rpc.rdma/call_failures") + t("rpc.sdr/call_failures") + t("rpc.tcp/call_failures");
  m["kv.setup_s"] = setup.kv;
  m["kv.ops"] = t("kv.client/ops_issued");
  m["kv.timeout_frac"] = ratio(t("kv.client/ops_timed_out"), t("kv.client/ops_issued"));
  m["kv.replica_calls_per_op"] =
      ratio(t("kv.client/replica_calls"), t("kv.client/ops_issued"));
  m["kv.p99_sim_ms"] = kv_p99_ns / 1e6;
  m["check.s"] = check_s;
  return m;
}

// ---- JSON output ---------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += format("\\u%04x", static_cast<unsigned>(ch));
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jnum(double v) { return std::isfinite(v) ? format("%.17g", v) : "null"; }

void emit_cell(const Cell& c) {
  std::string failed;
  for (const check::CheckResult& r : c.checks.checks()) {
    if (r.pass) continue;
    failed += (failed.empty() ? "" : ",") +
              jstr(r.oracle + " " + r.context + ": " + r.detail);
  }
  std::printf(
      "{\"cell\": {\"name\": %s, \"ok\": %s, \"error\": %s, \"setup_s\": %s, "
      "\"run_s\": %s, \"cpu_s\": %s, \"threads\": %d, \"events\": %llu, "
      "\"end_ns\": %llu, \"windows\": %llu, \"channel_msgs\": %llu, "
      "\"tie_arrivals\": %llu, \"result\": %s, \"checks\": %zu, "
      "\"failed_checks\": [%s]}}\n",
      jstr(c.name).c_str(), c.error.empty() && c.checks.ok() ? "true" : "false",
      jstr(c.error).c_str(), jnum(c.setup_s).c_str(), jnum(c.run_s).c_str(),
      jnum(c.run_cpu_s).c_str(), c.threads, static_cast<unsigned long long>(c.events),
      static_cast<unsigned long long>(c.end_ns),
      static_cast<unsigned long long>(c.pdes.windows),
      static_cast<unsigned long long>(c.pdes.channel_msgs),
      static_cast<unsigned long long>(c.pdes.tie_arrivals), jstr(c.result).c_str(),
      c.checks.total(), failed.c_str());
  std::fflush(stdout);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "ibwan_suite: %s\nusage: ibwan_suite --workload NAME [--seed N] "
               "[--smoke] [--trace] [--par-sites N]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_uint(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *s != '\0' && *s != '-' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!parse_uint(argv[++i], opt.seed)) return usage("--seed takes an unsigned integer");
    } else if (a == "--par-sites" && has_value) {
      std::uint64_t n = 0;
      if (!parse_uint(argv[++i], n) || n < 1 || n > 64) {
        return usage("--par-sites takes an integer in [1, 64]");
      }
      opt.par_sites = static_cast<int>(n);
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--trace") {
      opt.trace = true;
    } else {
      return usage(("unknown or incomplete argument " + a).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (opt.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage("unknown or missing --workload");

  const int par_sites = opt.par_sites > 0 ? opt.par_sites : 1;
  const std::vector<CellSpec> specs = w->cells(opt, par_sites);
  std::string names;
  for (const CellSpec& s : specs) names += (names.empty() ? "" : ", ") + jstr(s.name);
  std::printf(
      "{\"plan\": {\"workload\": %s, \"par_sites\": %d, \"pdes_sites\": %d, "
      "\"cells\": [%s]}}\n",
      jstr(w->name).c_str(), par_sites, w->pdes_sites, names.c_str());
  std::fflush(stdout);

  g_count_allocs.store(opt.trace);
  std::vector<Cell> cells;
  bool all_ok = true;
  for (const CellSpec& spec : specs) {
    Cell c;
    c.name = spec.name;
    c.start = Clock::now();
    try {
      spec.run(c);
      if (opt.trace) {
        Lap lap(c.check_s);
        check::check_conservation(c.checks, c.name, c.snap);
      }
    } catch (const std::exception& e) {
      c.error = e.what();
    }
    emit_cell(c);
    all_ok = all_ok && c.error.empty() && c.checks.ok();
    cells.push_back(std::move(c));
  }
  g_count_allocs.store(false);
  const std::uint64_t allocs = g_allocs.load();
  const double cpu_s = cpu_seconds();
  // Peak RSS is read before the probes run, so it covers the cells only.
  const double rss_mb = peak_rss_mb();

  std::string layers;
  if (opt.trace) {
    for (const auto& [name, value] :
         layer_metrics(cells, allocs, cpu_s, opt.seed, opt.smoke)) {
      layers += (layers.empty() ? "" : ", ") + jstr(name) + ": " + jnum(value);
    }
  }
  std::printf("{\"summary\": {\"peak_rss_mb\": %s, \"layers\": {%s}}}\n",
              jnum(rss_mb).c_str(), layers.c_str());
  return all_ok ? 0 : 1;
}
