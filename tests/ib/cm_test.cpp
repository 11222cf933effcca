// Connection Manager: on-the-wire REQ/REP/RTU establishment.
#include "ib/cm.hpp"

#include <gtest/gtest.h>

#include "ib/hca.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace ibwan::ib {
namespace {

using namespace ibwan::sim::literals;

struct CmWorld {
  explicit CmWorld(double loss = 0)
      : fabric(sim, make_fabric(loss)),
        hca_a(fabric.node(0), {}),
        hca_b(fabric.node(1), {}),
        cm_a(hca_a),
        cm_b(hca_b),
        scq_a(sim), rcq_a(sim), scq_b(sim), rcq_b(sim) {}
  static net::FabricConfig make_fabric(double loss) {
    net::FabricConfig fc{.nodes_a = 1, .nodes_b = 1};
    fc.longbow.loss_rate = loss;
    return fc;
  }
  sim::Simulator sim;
  net::Fabric fabric;
  Hca hca_a, hca_b;
  CmAgent cm_a, cm_b;
  Cq scq_a, rcq_a, scq_b, rcq_b;
};

TEST(Cm, EstablishesWorkingConnection) {
  CmWorld w;
  RcQp* server_qp = nullptr;
  w.cm_b.listen(42, w.scq_b, w.rcq_b,
                [&](RcQp& qp) { server_qp = &qp; });
  RcQp* client_qp = nullptr;
  [](CmWorld& cw, RcQp** out) -> sim::Task {
    *out = co_await cw.cm_a.connect(1, 42, cw.scq_a, cw.rcq_a);
  }(w, &client_qp);
  w.sim.run();
  ASSERT_NE(client_qp, nullptr);
  ASSERT_NE(server_qp, nullptr);
  EXPECT_TRUE(client_qp->connected());
  EXPECT_TRUE(server_qp->connected());

  // The connection must actually carry data.
  server_qp->post_recv(RecvWr{.wr_id = 5});
  client_qp->post_send(SendWr{.length = 4096});
  w.sim.run();
  auto cqe = w.rcq_b.poll();
  ASSERT_TRUE(cqe.has_value());
  EXPECT_EQ(cqe->byte_len, 4096u);
}

TEST(Cm, UnknownServiceIsRejected) {
  CmWorld w;
  RcQp* qp = reinterpret_cast<RcQp*>(1);
  [](CmWorld& cw, RcQp** out) -> sim::Task {
    *out = co_await cw.cm_a.connect(1, 999, cw.scq_a, cw.rcq_a);
  }(w, &qp);
  w.sim.run();
  EXPECT_EQ(qp, nullptr);
  EXPECT_EQ(w.cm_b.stats().rejects_sent, 1u);
}

TEST(Cm, HandshakeCostsOneRoundTripOverWan) {
  CmWorld w;
  w.fabric.set_wan_delay(1000_us);
  w.cm_b.listen(42, w.scq_b, w.rcq_b, [](RcQp&) {});
  sim::Time done = 0;
  [](CmWorld& cw, sim::Time* t) -> sim::Task {
    co_await cw.cm_a.connect(1, 42, cw.scq_a, cw.rcq_a);
    *t = cw.sim.now();
  }(w, &done);
  w.sim.run();
  EXPECT_GT(done, 2000_us);  // REQ there + REP back
  EXPECT_LT(done, 2200_us);
}

TEST(Cm, SurvivesMadLoss) {
  // Brutal datagram loss: every seed must connect exactly once, and
  // across the seeds some MADs must have been lost and retried.
  std::uint64_t retries = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    CmWorld w(0.25);
    w.sim.seed(seed);
    int connected = 0;
    w.cm_b.listen(42, w.scq_b, w.rcq_b, [&](RcQp&) { ++connected; });
    RcQp* qp = nullptr;
    [](CmWorld& cw, RcQp** out) -> sim::Task {
      *out = co_await cw.cm_a.connect(1, 42, cw.scq_a, cw.rcq_a);
    }(w, &qp);
    w.sim.run();
    ASSERT_NE(qp, nullptr) << "seed " << seed;
    EXPECT_TRUE(qp->connected()) << "seed " << seed;
    EXPECT_EQ(connected, 1) << "seed " << seed;  // dedup: one accept
    retries += w.cm_a.stats().retries;
  }
  EXPECT_GT(retries, 0u);
}

TEST(Cm, ManyConcurrentConnections) {
  CmWorld w;
  int accepted = 0;
  w.cm_b.listen(42, w.scq_b, w.rcq_b, [&](RcQp&) { ++accepted; });
  int established = 0;
  for (int i = 0; i < 10; ++i) {
    [](CmWorld& cw, int* count) -> sim::Task {
      RcQp* qp = co_await cw.cm_a.connect(1, 42, cw.scq_a, cw.rcq_a);
      if (qp != nullptr) ++*count;
    }(w, &established);
  }
  w.sim.run();
  EXPECT_EQ(established, 10);
  EXPECT_EQ(accepted, 10);
  EXPECT_EQ(w.cm_a.stats().connections, 10u);
}

TEST(Cm, BothDirectionsSimultaneously) {
  CmWorld w;
  w.cm_a.listen(7, w.scq_a, w.rcq_a, [](RcQp&) {});
  w.cm_b.listen(7, w.scq_b, w.rcq_b, [](RcQp&) {});
  int ok = 0;
  [](CmWorld& cw, int* count) -> sim::Task {
    if (co_await cw.cm_a.connect(1, 7, cw.scq_a, cw.rcq_a)) ++*count;
  }(w, &ok);
  [](CmWorld& cw, int* count) -> sim::Task {
    if (co_await cw.cm_b.connect(0, 7, cw.scq_b, cw.rcq_b)) ++*count;
  }(w, &ok);
  w.sim.run();
  EXPECT_EQ(ok, 2);
}

}  // namespace
}  // namespace ibwan::ib
