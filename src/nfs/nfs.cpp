#include "nfs/nfs.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <string>

namespace ibwan::nfs {

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

NfsServer::NfsServer(sim::Simulator& sim, NfsConfig config)
    : sim_(sim), config_(config) {
  auto& m = sim_.metrics();
  const std::string scope = "nfs-server/nfs";
  using enum sim::MetricUnit;
  exports_.counter(scope, "reads", kCount, &stats_.reads);
  exports_.counter(scope, "writes", kCount, &stats_.writes);
  exports_.counter(scope, "getattrs", kCount, &stats_.getattrs);
  exports_.counter(scope, "bytes_read", kBytes, &stats_.bytes_read);
  exports_.counter(scope, "bytes_written", kBytes, &stats_.bytes_written);
  obs_inflight_ops_ = &m.gauge(scope, "inflight_ops", kCount);
  obs_op_ns_ = &m.histogram(scope, "op_ns", kNanoseconds);
}

rpc::Handler NfsServer::handler() {
  return [this](const rpc::CallArgs& call) { return dispatch(call); };
}

sim::SleepAwaiter NfsServer::charge_cpu(sim::Duration d) {
  cpu_busy_ = std::max(sim_.now(), cpu_busy_) + d;
  return sim::SleepAwaiter(sim_, cpu_busy_ - sim_.now());
}

sim::Coro<rpc::ReplyInfo> NfsServer::dispatch(const rpc::CallArgs& call) {
  const sim::Time t0 = sim_.now();
  obs_inflight_ops_->set(++inflight_);
  rpc::ReplyInfo reply = co_await dispatch_inner(call);
  obs_inflight_ops_->set(--inflight_);
  obs_op_ns_->observe(sim_.now() - t0);
  co_return reply;
}

sim::Coro<rpc::ReplyInfo> NfsServer::dispatch_inner(
    const rpc::CallArgs& call) {
  switch (static_cast<Proc>(call.proc)) {
    case Proc::kGetattr: {
      ++stats_.getattrs;
      co_await charge_cpu(config_.per_op_cpu);
      co_return rpc::ReplyInfo{.reply_bytes = 96};
    }
    case Proc::kRead: {
      const auto& args = call.args_as<ReadArgs>();
      ++stats_.reads;
      const std::uint64_t size = file_size(args.fh);
      const std::uint64_t n =
          args.offset >= size
              ? 0
              : std::min<std::uint64_t>(args.count, size - args.offset);
      sim::Duration cpu = config_.per_op_cpu;
      if (config_.chunk_bytes > 0 && n > 0) {
        const std::uint64_t chunks =
            (n + config_.chunk_bytes - 1) / config_.chunk_bytes;
        cpu += chunks * config_.per_chunk_cpu;
      }
      co_await charge_cpu(cpu);
      stats_.bytes_read += n;
      co_return rpc::ReplyInfo{.reply_bytes = 120, .data_to_client = n};
    }
    case Proc::kWrite: {
      const auto& args = call.args_as<WriteArgs>();
      ++stats_.writes;
      sim::Duration cpu = config_.per_op_cpu;
      if (config_.chunk_bytes > 0 && args.count > 0) {
        const std::uint64_t chunks =
            (args.count + config_.chunk_bytes - 1) / config_.chunk_bytes;
        cpu += chunks * config_.per_chunk_cpu;
      }
      co_await charge_cpu(cpu);
      auto& size = files_[args.fh];
      size = std::max(size, args.offset + args.count);
      stats_.bytes_written += args.count;
      co_return rpc::ReplyInfo{.reply_bytes = 120};
    }
  }
  assert(false && "unknown NFS procedure");
  co_return rpc::ReplyInfo{};
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

sim::Coro<std::uint64_t> NfsClient::read(FileHandle fh, std::uint64_t offset,
                                         std::uint64_t count) {
  auto args = std::make_shared<ReadArgs>();
  args->fh = fh;
  args->offset = offset;
  args->count = count;
  // Named locals rather than temporaries inside the co_await expression:
  // GCC 12 double-destroys aggregate temporaries passed by value into an
  // awaited coroutine.
  rpc::CallArgs call{.proc = std::uint32_t(Proc::kRead),
                     .arg_bytes = 48,
                     .body = std::move(args)};
  rpc::ReplyInfo reply = co_await rpc_.call(std::move(call));
  co_return reply.data_to_client;
}

sim::Coro<void> NfsClient::write(FileHandle fh, std::uint64_t offset,
                                 std::uint64_t count) {
  auto args = std::make_shared<WriteArgs>();
  args->fh = fh;
  args->offset = offset;
  args->count = count;
  rpc::CallArgs call{.proc = std::uint32_t(Proc::kWrite),
                     .arg_bytes = 48,
                     .data_to_server = count,
                     .body = std::move(args)};
  co_await rpc_.call(std::move(call));
}

sim::Coro<std::uint64_t> NfsClient::getattr(FileHandle fh) {
  auto args = std::make_shared<ReadArgs>();
  args->fh = fh;
  rpc::CallArgs call{.proc = std::uint32_t(Proc::kGetattr),
                     .arg_bytes = 32,
                     .body = std::move(args)};
  rpc::ReplyInfo reply = co_await rpc_.call(std::move(call));
  co_return reply.reply_bytes;
}

// ---------------------------------------------------------------------------
// IOzone-style driver
// ---------------------------------------------------------------------------

namespace {
sim::Task iozone_thread(NfsClient& client, const IozoneConfig& cfg,
                        std::uint64_t begin, std::uint64_t end,
                        std::uint64_t* moved, sim::WaitGroup* wg) {
  for (std::uint64_t off = begin; off < end; off += cfg.record_bytes) {
    const std::uint64_t n =
        std::min<std::uint64_t>(cfg.record_bytes, end - off);
    if (cfg.write) {
      co_await client.write(cfg.fh, off, n);
      *moved += n;
    } else {
      *moved += co_await client.read(cfg.fh, off, n);
    }
  }
  wg->done();
}
}  // namespace

IozoneResult run_iozone(sim::Simulator& sim, NfsClient& client,
                        const IozoneConfig& cfg, sim::SiteEngine* engine) {
  assert(cfg.threads >= 1);
  sim::WaitGroup wg(sim);
  wg.add(cfg.threads);
  std::uint64_t moved = 0;
  const std::uint64_t region =
      (cfg.file_bytes + cfg.threads - 1) / cfg.threads;
  const sim::Time t0 = sim.now();
  for (int t = 0; t < cfg.threads; ++t) {
    const std::uint64_t begin = static_cast<std::uint64_t>(t) * region;
    const std::uint64_t end =
        std::min<std::uint64_t>(cfg.file_bytes, begin + region);
    if (begin >= end) {
      wg.done();
      continue;
    }
    iozone_thread(client, cfg, begin, end, &moved, &wg);
  }
  bool finished = false;
  [](sim::WaitGroup& w, bool* flag) -> sim::Task {
    co_await w.wait();
    *flag = true;
  }(wg, &finished);
  if (engine != nullptr) {
    engine->run();
  } else {
    sim.run();
  }
  assert(finished && "IOzone workload deadlocked");
  IozoneResult r;
  r.bytes = moved;
  // The merged end time (max over site clocks) equals the sequential
  // run's final now(), so both modes report identical seconds.
  const sim::Time t_end = engine != nullptr ? engine->now() : sim.now();
  r.seconds = sim::to_seconds(t_end - t0);
  r.mbytes_per_sec =
      r.seconds > 0 ? static_cast<double>(moved) / r.seconds / 1e6 : 0;
  return r;
}

}  // namespace ibwan::nfs
