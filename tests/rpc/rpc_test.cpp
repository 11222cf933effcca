// Direct RPC-transport tests (TCP, RDMA and SDR flavours): xid
// matching under concurrency, bulk paths in both directions, chunking
// arithmetic, and the give-up paths on a severed WAN.
#include "rpc/rpc.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ib/hca.hpp"
#include "ipoib/ipoib.hpp"
#include "net/fabric.hpp"
#include "net/wan.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "tcp/tcp.hpp"

namespace ibwan::rpc {
namespace {

using namespace ibwan::sim::literals;

struct EchoArgs {
  int id = 0;
};

/// Handler: replies after a per-call delay with sizes derived from args.
Handler make_echo_handler(sim::Simulator& sim, std::uint64_t bulk_out) {
  return [&sim, bulk_out](const CallArgs& call) -> sim::Coro<ReplyInfo> {
    co_await sim::SleepAwaiter(sim, 10'000);
    ReplyInfo r;
    r.reply_bytes = 64;
    r.data_to_client = bulk_out;
    r.body = call.body;  // echo the typed body back
    co_return r;
  };
}

struct RdmaWorld {
  explicit RdmaWorld(sim::Duration delay = 0, RdmaRpcConfig cfg = {})
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        server_hca(fabric.node(0), {}),
        client_hca(fabric.node(1), {}),
        server(server_hca, cfg),
        client(client_hca, server) {
    fabric.set_wan_delay(delay);
  }
  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca server_hca, client_hca;
  RdmaRpcServer server;
  RdmaRpcClient client;
};

struct SdrWorld {
  SdrWorld()
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        server_hca(fabric.node(0), {}),
        client_hca(fabric.node(1), {}),
        server(server_hca),
        client(client_hca, server) {}
  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca server_hca, client_hca;
  SdrRpcServer server;
  SdrRpcClient client;
};

/// Cuts both WAN directions permanently.
void sever_wan(net::Fabric& fabric) {
  fabric.longbows()->wan_link_a_to_b().set_down(true);
  fabric.longbows()->wan_link_b_to_a().set_down(true);
}

/// Client-side metric scope, "node<lid>/rpc.<transport>".
std::string client_scope(const ib::Hca& hca, const char* transport) {
  return "node" + std::to_string(hca.lid()) + "/rpc." + transport;
}

/// Value of counter `<scope>/<name>` in a fresh snapshot of `m`.
std::uint64_t counter_value(const sim::MetricsRegistry& m,
                            const std::string& scope, const char* name) {
  const std::string path = scope + "/" + name;
  for (const auto& row : m.snapshot().counters) {
    if (row.path == path) return row.value;
  }
  ADD_FAILURE() << "no counter " << path;
  return 0;
}

struct TcpWorld {
  TcpWorld()
      : fabric(sim, {.nodes_a = 1, .nodes_b = 1}),
        server_hca(fabric.node(0), {}),
        client_hca(fabric.node(1), {}),
        server_dev(server_hca, {}),
        client_dev(client_hca, {}),
        server_stack(server_dev),
        client_stack(client_dev),
        server(server_stack, 111),
        client(client_stack, 0, 111) {
    ipoib::IpoibDevice::link(server_dev, client_dev);
  }
  sim::Simulator sim;
  net::Fabric fabric;
  ib::Hca server_hca, client_hca;
  ipoib::IpoibDevice server_dev, client_dev;
  tcp::TcpStack server_stack, client_stack;
  TcpRpcServer server;
  TcpRpcClient client;
};

TEST(RdmaRpc, EchoPreservesTypedBody) {
  RdmaWorld w;
  w.server.set_handler(make_echo_handler(w.sim, 0));
  int got = 0;
  [](RdmaWorld& rw, int* out) -> sim::Task {
    auto body = std::make_shared<EchoArgs>();
    body->id = 42;
    CallArgs call{.proc = 1, .arg_bytes = 16, .body = std::move(body)};
    ReplyInfo r = co_await rw.client.call(std::move(call));
    *out = static_cast<const EchoArgs*>(r.body.get())->id;
  }(w, &got);
  w.sim.run();
  EXPECT_EQ(got, 42);
}

TEST(RdmaRpc, ConcurrentCallsMatchByXid) {
  RdmaWorld w;
  // Handler delays proportionally to id so replies complete out of
  // submission order.
  w.server.set_handler([&](const CallArgs& call) -> sim::Coro<ReplyInfo> {
    const int id = call.args_as<EchoArgs>().id;
    co_await sim::SleepAwaiter(w.sim, (10 - id) * 100'000);
    ReplyInfo r;
    r.reply_bytes = 64;
    r.body = call.body;
    co_return r;
  });
  std::vector<int> results(8, -1);
  for (int i = 0; i < 8; ++i) {
    [](RdmaWorld& rw, int idx, std::vector<int>* out) -> sim::Task {
      auto body = std::make_shared<EchoArgs>();
      body->id = idx;
      CallArgs call{.proc = 1, .arg_bytes = 16, .body = std::move(body)};
      ReplyInfo r = co_await rw.client.call(std::move(call));
      (*out)[idx] = static_cast<const EchoArgs*>(r.body.get())->id;
    }(w, i, &results);
  }
  w.sim.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i], i);
}

TEST(RdmaRpc, BulkToClientArrivesBeforeReply) {
  // RC ordering: the reply (and thus call completion) implies all the
  // chunked writes landed. Completion time must cover data transfer.
  RdmaWorld w(100_us);
  w.server.set_handler(make_echo_handler(w.sim, 4 << 20));
  sim::Time done = 0;
  [](RdmaWorld& rw, sim::Time* t) -> sim::Task {
    co_await rw.client.call(CallArgs{.proc = 1, .arg_bytes = 16});
    *t = rw.sim.now();
  }(w, &done);
  w.sim.run();
  // 4 MB at ~1 GB/s is >= 4 ms on top of the round trip.
  EXPECT_GT(done, 4'000_us);
}

TEST(RdmaRpc, BulkToServerUsesRdmaReads) {
  RdmaWorld w;
  std::uint64_t seen_data = 0;
  w.server.set_handler([&](const CallArgs& call) -> sim::Coro<ReplyInfo> {
    seen_data = call.data_to_server;
    co_return ReplyInfo{.reply_bytes = 64};
  });
  [](RdmaWorld& rw) -> sim::Task {
    co_await rw.client.call(
        CallArgs{.proc = 2, .arg_bytes = 16, .data_to_server = 100'000});
  }(w);
  w.sim.run();
  EXPECT_EQ(seen_data, 100'000u);
}

TEST(RdmaRpc, ChunkSizeControlsWanCliff) {
  auto time_call = [](std::uint32_t chunk) {
    RdmaWorld w(1000_us, RdmaRpcConfig{.chunk_bytes = chunk});
    w.server.set_handler(make_echo_handler(w.sim, 1 << 20));
    sim::Time done = 0;
    [](RdmaWorld& rw, sim::Time* t) -> sim::Task {
      co_await rw.client.call(CallArgs{.proc = 1, .arg_bytes = 16});
      *t = rw.sim.now();
    }(w, &done);
    w.sim.run();
    return done;
  };
  EXPECT_LT(time_call(64 << 10), time_call(4 << 10));
}

TEST(TcpRpc, EchoAndConcurrency) {
  TcpWorld w;
  w.server.set_handler(make_echo_handler(w.sim, 10'000));
  std::vector<int> results(5, -1);
  for (int i = 0; i < 5; ++i) {
    [](TcpWorld& rw, int idx, std::vector<int>* out) -> sim::Task {
      auto body = std::make_shared<EchoArgs>();
      body->id = idx;
      CallArgs call{.proc = 1, .arg_bytes = 16, .body = std::move(body)};
      ReplyInfo r = co_await rw.client.call(std::move(call));
      (*out)[idx] = static_cast<const EchoArgs*>(r.body.get())->id;
    }(w, i, &results);
  }
  w.sim.run();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(results[i], i);
}

TEST(TcpRpc, LargeInlineBulkBothDirections) {
  TcpWorld w;
  std::uint64_t seen = 0;
  w.server.set_handler([&](const CallArgs& call) -> sim::Coro<ReplyInfo> {
    seen = call.data_to_server;
    co_return ReplyInfo{.reply_bytes = 64, .data_to_client = 2 << 20};
  });
  bool done = false;
  [](TcpWorld& rw, bool* flag) -> sim::Task {
    co_await rw.client.call(
        CallArgs{.proc = 3, .arg_bytes = 32, .data_to_server = 1 << 20});
    *flag = true;
  }(w, &done);
  w.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(seen, 1u << 20);
}

TEST(RdmaRpc, SeveredWanFailsEveryCallInXidOrder) {
  RdmaWorld w;
  w.sim.metrics().set_enabled(true);
  w.server.set_handler(make_echo_handler(w.sim, 0));
  sever_wan(w.fabric);
  // Every call's send sits unacknowledged in the RC window; retry
  // exhaustion flushes it, and the flushed CQE fails the whole table.
  constexpr int kCalls = 6;
  std::vector<int> order;
  std::vector<bool> ok(kCalls, true);
  for (int i = 0; i < kCalls; ++i) {
    [](RdmaWorld& rw, int idx, std::vector<int>* done,
       std::vector<bool>* oks) -> sim::Task {
      ReplyInfo r =
          co_await rw.client.call(CallArgs{.proc = 1, .arg_bytes = 16});
      (*oks)[idx] = r.ok;
      done->push_back(idx);
    }(w, i, &order, &ok);
  }
  w.sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kCalls));
  for (int i = 0; i < kCalls; ++i) {
    EXPECT_EQ(order[i], i) << "calls must fail in ascending xid order";
    EXPECT_FALSE(ok[i]);
  }
  auto& m = w.sim.metrics();
  const std::string scope = client_scope(w.client_hca, "rdma");
  EXPECT_EQ(counter_value(m, scope, "call_failures"),
            static_cast<std::uint64_t>(kCalls));
  EXPECT_EQ(m.gauge(scope, "inflight").value(), 0);
  EXPECT_EQ(m.gauge(scope, "inflight").max(), kCalls);

  // The QP is in error now: a new call is flushed at once instead of
  // waiting on a channel that can never deliver.
  const sim::Time issued = w.sim.now();
  sim::Time finished = 0;
  bool late_ok = true;
  [](RdmaWorld& rw, sim::Time* t, bool* out) -> sim::Task {
    ReplyInfo r =
        co_await rw.client.call(CallArgs{.proc = 1, .arg_bytes = 16});
    *out = r.ok;
    *t = rw.sim.now();
  }(w, &finished, &late_ok);
  w.sim.run();
  EXPECT_FALSE(late_ok);
  EXPECT_LT(finished - issued, 10_us);
  EXPECT_EQ(counter_value(m, scope, "call_failures"),
            static_cast<std::uint64_t>(kCalls + 1));
  EXPECT_EQ(m.gauge(scope, "inflight").value(), 0);
}

TEST(SdrRpc, EchoPreservesTypedBody) {
  SdrWorld w;
  w.server.set_handler(make_echo_handler(w.sim, 0));
  int got = 0;
  bool ok = false;
  [](SdrWorld& sw, int* out, bool* flag) -> sim::Task {
    auto body = std::make_shared<EchoArgs>();
    body->id = 42;
    CallArgs call{.proc = 1, .arg_bytes = 16, .body = std::move(body)};
    ReplyInfo r = co_await sw.client.call(std::move(call));
    *flag = r.ok;
    *out = static_cast<const EchoArgs*>(r.body.get())->id;
  }(w, &got, &ok);
  w.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(got, 42);
}

TEST(SdrRpc, ConcurrentCallsMatchByXid) {
  SdrWorld w;
  // Handler delays inversely to id so replies complete out of
  // submission order.
  w.server.set_handler([&](const CallArgs& call) -> sim::Coro<ReplyInfo> {
    const int id = call.args_as<EchoArgs>().id;
    co_await sim::SleepAwaiter(w.sim, (10 - id) * 100'000);
    ReplyInfo r;
    r.reply_bytes = 64;
    r.body = call.body;
    co_return r;
  });
  std::vector<int> results(8, -1);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    [](SdrWorld& sw, int idx, std::vector<int>* out,
       std::vector<int>* done) -> sim::Task {
      auto body = std::make_shared<EchoArgs>();
      body->id = idx;
      CallArgs call{.proc = 1, .arg_bytes = 16, .body = std::move(body)};
      ReplyInfo r = co_await sw.client.call(std::move(call));
      (*out)[idx] = static_cast<const EchoArgs*>(r.body.get())->id;
      done->push_back(idx);
    }(w, i, &results, &order);
  }
  w.sim.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(results[i], i);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order.front(), 7) << "the shortest handler delay replies first";
  EXPECT_EQ(order.back(), 0);
}

TEST(SdrRpc, BulkBothDirections) {
  SdrWorld w;
  w.fabric.set_wan_delay(100_us);
  std::uint64_t seen = 0;
  w.server.set_handler([&](const CallArgs& call) -> sim::Coro<ReplyInfo> {
    seen = call.data_to_server;
    co_return ReplyInfo{.reply_bytes = 64, .data_to_client = 2 << 20};
  });
  sim::Time done = 0;
  bool ok = false;
  [](SdrWorld& sw, sim::Time* t, bool* flag) -> sim::Task {
    ReplyInfo r = co_await sw.client.call(
        CallArgs{.proc = 3, .arg_bytes = 32, .data_to_server = 1 << 20});
    *flag = r.ok;
    *t = sw.sim.now();
  }(w, &done, &ok);
  w.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(seen, 1u << 20);
  // 3 MB of payload at ~1 GB/s is >= 3 ms on top of the round trip.
  EXPECT_GT(done, 3'000_us);
}

TEST(SdrRpc, SeveredWanFailsCallOnProbeExhaustion) {
  SdrWorld w;
  w.sim.metrics().set_enabled(true);
  bool served = false;
  w.server.set_handler([&](const CallArgs&) -> sim::Coro<ReplyInfo> {
    served = true;
    co_return ReplyInfo{.reply_bytes = 64};
  });
  sever_wan(w.fabric);
  bool ok = true;
  bool finished = false;
  [](SdrWorld& sw, bool* out, bool* flag) -> sim::Task {
    ReplyInfo r =
        co_await sw.client.call(CallArgs{.proc = 1, .arg_bytes = 16});
    *out = r.ok;
    *flag = true;
  }(w, &ok, &finished);
  w.sim.run();
  EXPECT_TRUE(finished) << "the call must terminate on a severed WAN";
  EXPECT_FALSE(ok);
  EXPECT_FALSE(served);
  auto& m = w.sim.metrics();
  const std::string scope = client_scope(w.client_hca, "sdr");
  EXPECT_EQ(counter_value(m, scope, "call_failures"), 1u);
  EXPECT_EQ(m.gauge(scope, "inflight").value(), 0);
}

}  // namespace
}  // namespace ibwan::rpc
