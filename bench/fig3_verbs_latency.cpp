// Figure 3: verbs-level small-message latency for Send/Recv over UD,
// Send/Recv over RC, and RDMA Write over RC — through the Longbow pair
// at zero emulated delay — against back-to-back connected nodes.
//
// Expected shape: the Longbow pair adds ~5 us; RDMA Write stays below
// Send/Recv; both clusters are DDR so back-to-back latency is low.
#include "bench_common.hpp"
#include "core/testbed.hpp"
#include "ib/perftest.hpp"
#include "net/fabric.hpp"

using namespace ibwan;
using ib::perftest::Op;
using ib::perftest::Transport;

namespace {

double through_longbows(Transport t, Op op, std::uint32_t size, int iters) {
  core::Testbed tb(1, 0);
  return ib::perftest::run_latency(tb.fabric(), tb.node_a(), tb.node_b(), t,
                                   op, {.msg_size = size, .iterations = iters})
      .avg_us;
}

double back_to_back(Transport t, Op op, std::uint32_t size, int iters) {
  const net::TopologyConfig topo = net::to_topology(
      {.nodes_a = 1, .nodes_b = 1, .back_to_back = true});
  core::Testbed tb({.topology = &topo});
  return ib::perftest::run_latency(tb.fabric(), tb.node_a(), tb.node_b(), t,
                                   op, {.msg_size = size, .iterations = iters})
      .avg_us;
}

}  // namespace

int main(int argc, char** argv) {
  ibwan::bench::init(argc, argv);
  core::banner(
      "Figure 3: Verbs-level latency (us), Longbow pair at 0 km vs "
      "back-to-back");

  const int iters = 200 * bench::scale();
  const std::vector<std::uint32_t> sizes = {1u, 8u, 64u, 256u, 1024u};

  core::Table table("one-way latency (us) by message size", "msg_bytes");
  bench::sweep_into(table, sizes, [&](std::uint32_t size) {
    bench::Rows rows;
    rows.push_back({"SendRecv/UD", static_cast<double>(size),
                    through_longbows(Transport::kUd, Op::kSendRecv, size,
                                     iters)});
    rows.push_back({"SendRecv/RC", static_cast<double>(size),
                    through_longbows(Transport::kRc, Op::kSendRecv, size,
                                     iters)});
    rows.push_back({"RDMAWrite/RC", static_cast<double>(size),
                    through_longbows(Transport::kRc, Op::kRdmaWrite, size,
                                     iters)});
    rows.push_back({"BackToBack-SR/RC", static_cast<double>(size),
                    back_to_back(Transport::kRc, Op::kSendRecv, size, iters)});
    rows.push_back({"BackToBack-Write/RC", static_cast<double>(size),
                    back_to_back(Transport::kRc, Op::kRdmaWrite, size,
                                 iters)});
    return rows;
  });
  bench::finish(table, "fig3_verbs_latency");

  // Oracle audit: the through-Longbow curves must equal the closed-form
  // per-hop latency model exactly (back-to-back uses a different path,
  // so only the generic table-sane checks cover it).
  if (bench::selfcheck_enabled() && net::global_fault_plan() == nullptr) {
    auto& report = check::selfcheck_report();
    const net::FabricConfig fc = core::fabric_defaults(1, 1);
    const check::Tolerances tol;
    const struct {
      const char* series;
      Transport t;
      Op op;
    } curves[] = {
        {"SendRecv/UD", Transport::kUd, Op::kSendRecv},
        {"SendRecv/RC", Transport::kRc, Op::kSendRecv},
        {"RDMAWrite/RC", Transport::kRc, Op::kRdmaWrite},
    };
    for (const auto& c : curves) {
      for (std::uint32_t size : sizes) {
        report.expect_near(
            "latency-model",
            "fig3 " + std::string(c.series) + " " + std::to_string(size) + "B",
            table.series(c.series).at(size),
            check::verbs_latency_model_us(fc, {}, c.t, c.op, size, 0),
            tol.exact_rel);
      }
    }
  }
  return bench::selfcheck_exit();
}
