// MPI-like message passing library over IB verbs (MVAPICH2-style).
//
// Point-to-point uses the two protocols whose WAN behaviour the paper
// studies: eager (one send, copies on both sides) below the rendezvous
// threshold, and rendezvous (RTS -> CTS -> zero-copy RDMA write -> FIN)
// at or above it. The threshold is the Figure 9 tuning knob. Collectives
// are built on point-to-point, including the WAN-aware hierarchical
// broadcast of Figure 11.
//
// Programs are coroutines: a Job places one rank per fabric node and
// runs `Coro<void> program(Rank&)` on every rank.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "net/fabric.hpp"
#include "sim/coro.hpp"
#include "sim/task.hpp"

namespace ibwan::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct MpiConfig {
  /// Messages of at least this many bytes use the rendezvous protocol
  /// (MVAPICH2 defaults to switching around 8 KB).
  std::uint64_t rendezvous_threshold = 8 * 1024;
  /// Library header prepended to eager data on the wire.
  std::uint32_t eager_header_bytes = 32;
  /// RTS / CTS control message size.
  std::uint32_t ctrl_bytes = 64;
  /// FIN control message size.
  std::uint32_t fin_bytes = 32;
  /// Eager-path buffer copy cost, charged on each side (ns per byte).
  double copy_ns_per_byte = 0.4;
  /// Library software overhead per operation.
  sim::Duration call_overhead = 200;
  /// Receive WQEs kept posted per connection.
  int prepost_recvs_per_qp = 64;
  /// Broadcasts at or above this size use scatter + ring allgather
  /// (the MPICH-lineage large-message algorithm); below it, binomial.
  std::uint64_t bcast_large_threshold = 512 * 1024;
  /// Reduction arithmetic cost (ns per byte), for (all)reduce.
  double reduce_ns_per_byte = 0.25;
  /// Eager-message coalescing — the paper's "transferring data using
  /// large messages (message coalescing)" optimization: consecutive
  /// small eager sends to one destination share a single verbs message
  /// (one transport window slot instead of many).
  bool coalescing = false;
  /// Only messages below this size join a bundle.
  std::uint64_t coalesce_msg_max = 1024;
  /// Flush when the bundle reaches this many payload bytes.
  std::uint64_t coalesce_flush_bytes = 8192;
  /// Flush timer for stragglers (bounded added latency).
  sim::Duration coalesce_flush_delay = 5'000;
  ib::HcaConfig hca{};
};

namespace detail {
struct RequestState {
  explicit RequestState(sim::Simulator& sim) : trigger(sim) {}
  bool done = false;
  std::uint64_t bytes = 0;
  int src_rank = kAnySource;  // filled in for receives
  sim::Trigger trigger;
};
}  // namespace detail

/// Handle to a pending nonblocking operation.
class Request {
 public:
  Request() = default;
  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && state_->done; }
  /// Transferred bytes (valid once done).
  std::uint64_t bytes() const { return state_ ? state_->bytes : 0; }
  /// Matched source rank (receives; valid once done).
  int source() const { return state_ ? state_->src_rank : kAnySource; }

 private:
  friend class Rank;
  explicit Request(std::shared_ptr<detail::RequestState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

class Job;

/// Per-process MPI context. All operations must be called from that
/// rank's program coroutine.
class Rank {
 public:
  int rank() const { return rank_; }
  int size() const;
  net::Cluster cluster() const { return cluster_; }
  sim::Simulator& sim();
  Job& job() { return job_; }

  /// Models local computation.
  sim::SleepAwaiter compute(sim::Duration d) { return {sim(), d}; }

  // --- Point-to-point ---
  Request isend(int dst, std::uint64_t bytes, int tag = 0);
  Request irecv(int src, int tag = kAnyTag);
  sim::Coro<void> wait(Request r);
  sim::Coro<void> wait_all(std::vector<Request> rs);
  /// Suspends until any request completes; returns its index.
  sim::Coro<int> wait_any(std::vector<Request> rs);
  sim::Coro<void> send(int dst, std::uint64_t bytes, int tag = 0);
  /// Returns the received byte count.
  sim::Coro<std::uint64_t> recv(int src, int tag = kAnyTag);

  // --- Collectives (every rank of the job must participate) ---
  sim::Coro<void> barrier();
  /// Default broadcast: binomial below bcast_large_threshold,
  /// scatter + ring allgather at or above (MVAPICH2-style); both are
  /// topology-agnostic — the Figure 11 "Original".
  sim::Coro<void> bcast(int root, std::uint64_t bytes);
  sim::Coro<void> bcast_binomial(int root, std::uint64_t bytes);
  sim::Coro<void> bcast_scatter_allgather(int root, std::uint64_t bytes);
  /// WAN-aware broadcast: exactly one WAN crossing, then local binomial
  /// trees — the Figure 11 "Modified".
  sim::Coro<void> bcast_hierarchical(int root, std::uint64_t bytes);
  sim::Coro<void> reduce(int root, std::uint64_t bytes);
  sim::Coro<void> allreduce(std::uint64_t bytes);
  sim::Coro<void> alltoall(std::uint64_t bytes_per_pair);
  sim::Coro<void> alltoallv(const std::vector<std::uint64_t>& bytes_to);
  sim::Coro<void> allgather(std::uint64_t bytes_per_rank);
  sim::Coro<void> gather(int root, std::uint64_t bytes_per_rank);
  sim::Coro<void> scatter(int root, std::uint64_t bytes_per_rank);
  sim::Coro<void> reduce_scatter(std::uint64_t bytes_per_rank);

  /// Figure 9 knob (per-rank override of the job-wide config).
  void set_rendezvous_threshold(std::uint64_t t) {
    rendezvous_threshold_ = t;
  }
  std::uint64_t rendezvous_threshold() const {
    return rendezvous_threshold_;
  }

  /// Messaging statistics for tests.
  struct Stats {
    std::uint64_t eager_sent = 0;
    std::uint64_t rndv_sent = 0;
    std::uint64_t msgs_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t unexpected = 0;
    std::uint64_t coalesce_flushes = 0;  // bundles put on the wire
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class Job;
  Rank(Job& job, int rank, net::Node& node, const MpiConfig& cfg);

  struct MsgHeader;
  struct PostedRecv;
  struct UnexpectedMsg;

  void on_recv_cqe(const ib::Cqe& cqe);
  void on_send_cqe(const ib::Cqe& cqe);
  void handle_eager(const MsgHeader& h);
  void handle_rts(const MsgHeader& h);
  void handle_cts(const MsgHeader& h);
  void handle_fin(const MsgHeader& h);
  void complete_eager_recv(std::shared_ptr<detail::RequestState> req,
                           const MsgHeader& h);
  void send_cts(int src_rank, std::uint64_t sender_req,
                std::uint64_t recv_req);
  bool matches(const PostedRecv& r, int src, int tag) const;
  std::uint64_t next_req_id() { return next_req_id_++; }
  ib::RcQp* qp_to(int peer);
  /// Sends any pending coalesce bundle for `dst` (keeps MPI's
  /// non-overtaking order when a non-bundled message follows).
  void flush_coalesce(int dst);
  /// Charges sequential CPU time on this rank; returns completion time.
  sim::Time charge_cpu(sim::Duration d);
  void post_ctrl(int peer, const MsgHeader& h, std::uint32_t wire_bytes,
                 std::uint64_t wr_id);

  Job& job_;
  int rank_;
  net::Node& node_;
  net::Cluster cluster_;
  const MpiConfig& cfg_;
  std::uint64_t rendezvous_threshold_;
  std::unique_ptr<ib::Hca> hca_;
  std::unique_ptr<ib::Cq> scq_;
  std::unique_ptr<ib::Cq> rcq_;
  std::unordered_map<int, ib::RcQp*> qps_;
  std::unordered_map<ib::Qpn, ib::RcQp*> by_qpn_;
  sim::Time cpu_busy_ = 0;

  std::list<PostedRecv> posted_recvs_;
  std::list<UnexpectedMsg> unexpected_;
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::RequestState>>
      active_sends_;
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::RequestState>>
      active_recvs_;
  /// Rendezvous sends parked until their CTS arrives: req id -> bytes.
  std::unordered_map<std::uint64_t, std::uint64_t> rndv_bytes_;
  struct CoalesceBuf;
  std::unordered_map<int, std::unique_ptr<CoalesceBuf>> coalesce_;
  int coll_seq_ = 0;  // per-rank collective instance counter
  /// Request ids are rank-local: they key only this rank's own maps
  /// (peers echo them back opaquely), and keeping the counter here
  /// means two ranks progressing in parallel sites never share mutable
  /// state on the send path.
  std::uint64_t next_req_id_ = 1;
  Stats stats_;

  // Registered metrics (docs/METRICS.md §mpi); scope "node<id>/mpi".
  sim::CounterExports exports_;
  sim::Histogram* obs_bcast_ns_;
  char trace_tag_[12];  // "rank<N>"
};

/// A parallel job: one rank per fabric node (placement must not repeat
/// nodes — each simulated node runs a single process).
class Job {
 public:
  using Program = std::function<sim::Coro<void>(Rank&)>;

  Job(net::Fabric& fabric, std::vector<net::NodeId> placement,
      MpiConfig cfg = {});
  ~Job();

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }
  Rank& rank(int i) { return *ranks_.at(i); }
  net::Fabric& fabric() { return fabric_; }
  const MpiConfig& config() const { return cfg_; }

  /// Ranks placed in a given cluster, ascending (used by the WAN-aware
  /// collectives).
  const std::vector<int>& ranks_in(net::Cluster c) const {
    return c == net::Cluster::kA ? ranks_a_ : ranks_b_;
  }

  /// Spawns `program` on every rank. Call sim().run() (or execute()) to
  /// drive it.
  void run(Program program);

  /// Runs the program to completion and returns elapsed seconds of
  /// simulated time. Aborts if the program deadlocks (network idle with
  /// unfinished ranks).
  double execute(Program program);

  bool finished() const { return finished_ranks() == size(); }
  int finished_ranks() const;
  double elapsed_seconds() const;

  /// Convenience placement: the first `per_cluster` hosts of each side.
  static std::vector<net::NodeId> split_placement(net::Fabric& fabric,
                                                  int per_cluster);

 private:
  friend class Rank;
  sim::Task run_rank(Rank& r, Program program);
  /// Creates every cross-cluster QP pair up front when the fabric is
  /// site-partitioned. The lazy first-use path in Rank::qp_to would
  /// otherwise mutate the peer rank's tables from the sender's site
  /// mid-run; connection setup is out-of-band CM (no events, no CPU
  /// charge, no metrics), so doing it eagerly is timing-invisible.
  void preconnect_cross_site();

  static constexpr sim::Time kUnfinished = ~sim::Time{0};

  net::Fabric& fabric_;
  MpiConfig cfg_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<int> ranks_a_;
  std::vector<int> ranks_b_;
  sim::Time start_time_ = 0;
  /// Per-rank completion times (kUnfinished while running): each rank
  /// records its own site's clock, so no cross-site writes race; the
  /// job's elapsed time is the max, identical to the sequential value.
  std::vector<sim::Time> finish_time_;
};

}  // namespace ibwan::mpi
