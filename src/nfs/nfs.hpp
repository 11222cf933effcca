// NFS over RDMA and over IPoIB.
//
// Single-server / multiple-clients, ONC-RPC based, as in the paper's
// Section 2.3 and the NFS/RDMA design it measures (Noronha et al.,
// ICPP'07). The server is transport-agnostic: the same handler serves a
// TcpRpcServer (NFS over IPoIB) or an RdmaRpcServer (NFS/RDMA, where
// READ replies are placed by 4 KB RDMA writes).
//
// An IOzone-style multi-threaded sequential read/write driver reproduces
// the paper's Figure 13 workload (512 MB file, 256 KB records).
#pragma once

#include <cstdint>
#include <unordered_map>

#include "rpc/rpc.hpp"
#include "sim/coro.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"

namespace ibwan::nfs {

using FileHandle = std::uint32_t;

enum class Proc : std::uint32_t {
  kGetattr = 1,
  kRead = 6,
  kWrite = 7,
};

struct ReadArgs {
  FileHandle fh = 0;
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
};

struct WriteArgs {
  FileHandle fh = 0;
  std::uint64_t offset = 0;
  std::uint64_t count = 0;
};

struct NfsConfig {
  /// Server CPU per RPC (request decode, export/cache lookup, encode).
  sim::Duration per_op_cpu = 25 * sim::kMicrosecond;
  /// Server CPU per bulk chunk (RDMA work-request posting and
  /// registration handling). Only charged when chunk_bytes > 0.
  sim::Duration per_chunk_cpu = 3 * sim::kMicrosecond;
  /// Chunk size the transport fragments bulk data into; 0 for inline
  /// (TCP) transports.
  std::uint32_t chunk_bytes = 0;
};

/// In-memory export: a set of files with sizes (the paper's working set
/// is server-cached; no disk model is needed to reproduce Figure 13).
class NfsServer {
 public:
  NfsServer(sim::Simulator& sim, NfsConfig config);

  void add_file(FileHandle fh, std::uint64_t size) { files_[fh] = size; }
  std::uint64_t file_size(FileHandle fh) const {
    auto it = files_.find(fh);
    return it == files_.end() ? 0 : it->second;
  }

  /// The RPC dispatch to install on a transport server.
  rpc::Handler handler();

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t getattrs = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  sim::Coro<rpc::ReplyInfo> dispatch(const rpc::CallArgs& call);
  sim::Coro<rpc::ReplyInfo> dispatch_inner(const rpc::CallArgs& call);
  /// Serializes handler CPU on the (single) server, like knfsd threads
  /// contending for cores.
  sim::SleepAwaiter charge_cpu(sim::Duration d);

  sim::Simulator& sim_;
  NfsConfig config_;
  std::unordered_map<FileHandle, std::uint64_t> files_;
  sim::Time cpu_busy_ = 0;
  Stats stats_;

  // Registered metrics (docs/METRICS.md §nfs); scope "nfs-server/nfs".
  sim::CounterExports exports_{sim_.metrics()};
  sim::Gauge* obs_inflight_ops_;
  sim::Histogram* obs_op_ns_;
  std::int64_t inflight_ = 0;
};

/// Client-side NFS operations over any RPC transport.
class NfsClient {
 public:
  explicit NfsClient(rpc::RpcClient& rpc) : rpc_(rpc) {}

  /// Returns bytes actually read (truncated at EOF).
  sim::Coro<std::uint64_t> read(FileHandle fh, std::uint64_t offset,
                                std::uint64_t count);
  sim::Coro<void> write(FileHandle fh, std::uint64_t offset,
                        std::uint64_t count);
  sim::Coro<std::uint64_t> getattr(FileHandle fh);

 private:
  rpc::RpcClient& rpc_;
};

/// IOzone-style sequential throughput driver.
struct IozoneConfig {
  FileHandle fh = 1;
  std::uint64_t file_bytes = 512ull << 20;
  std::uint64_t record_bytes = 256 << 10;
  int threads = 1;
  bool write = false;
};

struct IozoneResult {
  double mbytes_per_sec = 0;
  double seconds = 0;
  std::uint64_t bytes = 0;
};

/// Runs the workload to completion (drives the simulator) and reports
/// aggregate throughput. Threads divide the file into contiguous
/// regions and stream records concurrently over the shared mount.
/// `sim` is the client's own site; passing the owning SiteEngine drains
/// every site and reads the merged end time, which is required when the
/// testbed runs site-parallel (and equivalent when sequential).
IozoneResult run_iozone(sim::Simulator& sim, NfsClient& client,
                        const IozoneConfig& cfg,
                        sim::SiteEngine* engine = nullptr);

}  // namespace ibwan::nfs
