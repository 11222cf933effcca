// Collective operations, composed from point-to-point.
//
// The default broadcast is topology-agnostic (binomial for small
// messages, scatter + ring allgather for large, as in MVAPICH2); the
// hierarchical variant is the paper's WAN-aware optimization: it crosses
// the Longbow link exactly once, then broadcasts inside each cluster.
#include <cassert>
#include <vector>

#include "mpi/mpi.hpp"
#include "sim/trace.hpp"

namespace ibwan::mpi {

namespace {
/// Internal tag space: one block of 64 tags per collective instance.
constexpr int kCollTagBase = 1 << 28;
int coll_tag(int seq, int round = 0) {
  return kCollTagBase + seq * 64 + round;
}
}  // namespace

sim::Coro<void> Rank::barrier() {
  const int seq = coll_seq_++;
  const int p = size();
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    const int to = (rank_ + k) % p;
    const int from = (rank_ - k + p) % p;
    Request s = isend(to, 1, coll_tag(seq, round));
    Request r = irecv(from, coll_tag(seq, round));
    co_await wait(s);
    co_await wait(r);
  }
}

sim::Coro<void> Rank::bcast(int root, std::uint64_t bytes) {
  if (bytes >= cfg_.bcast_large_threshold && size() > 2) {
    co_await bcast_scatter_allgather(root, bytes);
  } else {
    co_await bcast_binomial(root, bytes);
  }
}

sim::Coro<void> Rank::bcast_binomial(int root, std::uint64_t bytes) {
  const sim::Time t0 = sim().now();
  if (sim::FlightRecorder& fr = sim().recorder(); fr.armed()) {
    fr.record(t0, sim::TraceKind::kBcastStart, trace_tag_,
              static_cast<std::uint64_t>(root), bytes, 0);
  }
  const int seq = coll_seq_++;
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  auto real = [&](int v) { return (v + root) % p; };

  int recv_mask = 1;
  while (recv_mask < p) {
    if (vrank & recv_mask) {
      co_await recv(real(vrank - recv_mask), coll_tag(seq));
      break;
    }
    recv_mask <<= 1;
  }
  // Topology-unaware child schedule: ascending mask, so whichever child
  // happens to sit across the WAN is serviced on the library's generic
  // order, not first. The WAN-aware variant (bcast_hierarchical) fixes
  // exactly this — it forwards over the long link before local fan-out.
  const int limit = (vrank == 0) ? p : recv_mask;
  for (int mask = 1; mask < limit; mask <<= 1) {
    if (vrank + mask < p) {
      co_await send(real(vrank + mask), bytes, coll_tag(seq));
    }
  }
  const sim::Time elapsed = sim().now() - t0;
  obs_bcast_ns_->observe(elapsed);
  if (sim::FlightRecorder& fr = sim().recorder(); fr.armed()) {
    fr.record(sim().now(), sim::TraceKind::kBcastDone, trace_tag_,
              static_cast<std::uint64_t>(root), bytes,
              static_cast<std::uint64_t>(elapsed));
  }
}

sim::Coro<void> Rank::bcast_scatter_allgather(int root, std::uint64_t bytes) {
  const sim::Time t0 = sim().now();
  if (sim::FlightRecorder& fr = sim().recorder(); fr.armed()) {
    fr.record(t0, sim::TraceKind::kBcastStart, trace_tag_,
              static_cast<std::uint64_t>(root), bytes, 1);
  }
  const int seq = coll_seq_++;
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  auto real = [&](int v) { return (v + root) % p; };
  const std::uint64_t chunk = (bytes + p - 1) / p;
  auto block_bytes = [&](int b) {
    const std::uint64_t start = static_cast<std::uint64_t>(b) * chunk;
    return start >= bytes ? std::uint64_t{0}
                          : std::min<std::uint64_t>(chunk, bytes - start);
  };
  // Bytes owned by virtual rank v after the binomial scatter: blocks
  // [v, v + min(lowbit(v), p - v)).
  auto owned_blocks = [&](int v) {
    if (v == 0) return p;
    const int low = v & -v;
    return std::min(low, p - v);
  };
  auto owned_bytes = [&](int v, int nblocks) {
    std::uint64_t total = 0;
    for (int b = v; b < v + nblocks; ++b) total += block_bytes(b);
    return total;
  };

  // Phase 1: binomial scatter of the p blocks.
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      co_await recv(real(vrank - mask), coll_tag(seq, 0));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    const int child = vrank + mask;
    if (child < p) {
      const std::uint64_t n = owned_bytes(child, owned_blocks(child));
      if (n > 0) co_await send(real(child), n, coll_tag(seq, 0));
    }
    mask >>= 1;
  }

  // Phase 2: ring allgather of the blocks (p-1 steps).
  const int right = real((vrank + 1) % p);
  const int left = real((vrank - 1 + p) % p);
  for (int step = 0; step < p - 1; ++step) {
    const int send_block = (vrank - step + p) % p;
    const int recv_block = (vrank - step - 1 + 2 * p) % p;
    const int round = 1 + step % 63;  // rounds stay within the tag block
    std::vector<Request> reqs;
    if (block_bytes(send_block) > 0) {
      reqs.push_back(
          isend(right, block_bytes(send_block), coll_tag(seq, round)));
    }
    if (block_bytes(recv_block) > 0) {
      reqs.push_back(irecv(left, coll_tag(seq, round)));
    }
    co_await wait_all(std::move(reqs));
  }
  const sim::Time elapsed = sim().now() - t0;
  obs_bcast_ns_->observe(elapsed);
  if (sim::FlightRecorder& fr = sim().recorder(); fr.armed()) {
    fr.record(sim().now(), sim::TraceKind::kBcastDone, trace_tag_,
              static_cast<std::uint64_t>(root), bytes,
              static_cast<std::uint64_t>(elapsed));
  }
}

sim::Coro<void> Rank::bcast_hierarchical(int root, std::uint64_t bytes) {
  const sim::Time t0 = sim().now();
  if (sim::FlightRecorder& fr = sim().recorder(); fr.armed()) {
    fr.record(t0, sim::TraceKind::kBcastStart, trace_tag_,
              static_cast<std::uint64_t>(root), bytes, 2);
  }
  const int seq = coll_seq_++;
  const net::Cluster root_cluster = job_.rank(root).cluster();
  const auto& local = job_.ranks_in(cluster_);

  // Phase 1: the root forwards across the WAN to each remote cluster's
  // leader — exactly one crossing per remote cluster.
  if (rank_ == root) {
    for (net::Cluster c : {net::Cluster::kA, net::Cluster::kB}) {
      if (c == root_cluster) continue;
      const auto& remote = job_.ranks_in(c);
      if (!remote.empty()) {
        co_await send(remote.front(), bytes, coll_tag(seq, 0));
      }
    }
  } else if (cluster_ != root_cluster && !local.empty() &&
             rank_ == local.front()) {
    co_await recv(root, coll_tag(seq, 0));
  }

  // Phase 2: binomial tree within the cluster, over local indices.
  const int lp = static_cast<int>(local.size());
  if (lp <= 1) {
    const sim::Time elapsed = sim().now() - t0;
    obs_bcast_ns_->observe(elapsed);
    if (sim::FlightRecorder& fr = sim().recorder(); fr.armed()) {
      fr.record(sim().now(), sim::TraceKind::kBcastDone, trace_tag_,
                static_cast<std::uint64_t>(root), bytes,
                static_cast<std::uint64_t>(elapsed));
    }
    co_return;
  }
  int lroot = 0;
  if (cluster_ == root_cluster) {
    for (int i = 0; i < lp; ++i) {
      if (local[i] == root) lroot = i;
    }
  }
  int lrank = 0;
  for (int i = 0; i < lp; ++i) {
    if (local[i] == rank_) lrank = i;
  }
  const int vrank = (lrank - lroot + lp) % lp;
  auto real = [&](int v) { return local[(v + lroot) % lp]; };

  int mask = 1;
  while (mask < lp) {
    if (vrank & mask) {
      co_await recv(real(vrank - mask), coll_tag(seq, 1));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < lp) {
      co_await send(real(vrank + mask), bytes, coll_tag(seq, 1));
    }
    mask >>= 1;
  }
  const sim::Time elapsed = sim().now() - t0;
  obs_bcast_ns_->observe(elapsed);
  if (sim::FlightRecorder& fr = sim().recorder(); fr.armed()) {
    fr.record(sim().now(), sim::TraceKind::kBcastDone, trace_tag_,
              static_cast<std::uint64_t>(root), bytes,
              static_cast<std::uint64_t>(elapsed));
  }
}

sim::Coro<void> Rank::reduce(int root, std::uint64_t bytes) {
  const int seq = coll_seq_++;
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  auto real = [&](int v) { return (v + root) % p; };
  const auto combine = sim::duration_ceil(static_cast<double>(bytes) *
                                          cfg_.reduce_ns_per_byte);
  int mask = 1;
  while (mask < p) {
    if (vrank & mask) {
      co_await send(real(vrank - mask), bytes, coll_tag(seq));
      break;
    }
    if (vrank + mask < p) {
      co_await recv(real(vrank + mask), coll_tag(seq));
      co_await compute(combine);
    }
    mask <<= 1;
  }
}

sim::Coro<void> Rank::allreduce(std::uint64_t bytes) {
  const int p = size();
  const bool pow2 = (p & (p - 1)) == 0;
  if (!pow2) {
    // General sizes: reduce to 0 then broadcast.
    co_await reduce(0, bytes);
    co_await bcast(0, bytes);
    co_return;
  }
  const int seq = coll_seq_++;
  const auto combine = sim::duration_ceil(static_cast<double>(bytes) *
                                          cfg_.reduce_ns_per_byte);
  int round = 0;
  for (int mask = 1; mask < p; mask <<= 1, ++round) {
    const int partner = rank_ ^ mask;
    Request s = isend(partner, bytes, coll_tag(seq, round));
    Request r = irecv(partner, coll_tag(seq, round));
    co_await wait(s);
    co_await wait(r);
    co_await compute(combine);
  }
}

sim::Coro<void> Rank::alltoall(std::uint64_t bytes_per_pair) {
  // Named local: keeps the argument out of the co_await full expression
  // (GCC 12 coroutine temporary-lifetime bugs).
  const std::vector<std::uint64_t> sizes(size(), bytes_per_pair);
  co_await alltoallv(sizes);
}

sim::Coro<void> Rank::alltoallv(const std::vector<std::uint64_t>& bytes_to) {
  assert(static_cast<int>(bytes_to.size()) == size());
  const int seq = coll_seq_++;
  const int p = size();
  // Post every send and receive up front (the basic MPI_Alltoall(v)
  // algorithm for large transfers): rendezvous handshakes overlap, so
  // the shared WAN link's bandwidth — not per-step round trips — bounds
  // the exchange. This is what makes IS/FT delay-tolerant (Figure 12).
  std::vector<Request> reqs;
  reqs.reserve(2 * (p - 1));
  for (int step = 1; step < p; ++step) {
    const int to = (rank_ + step) % p;
    const int from = (rank_ - step + p) % p;
    // Zero-byte entries still send one tiny message so receivers need no
    // out-of-band size knowledge.
    reqs.push_back(
        isend(to, std::max<std::uint64_t>(bytes_to[to], 1), coll_tag(seq)));
    reqs.push_back(irecv(from, coll_tag(seq)));
  }
  co_await wait_all(std::move(reqs));
}

sim::Coro<void> Rank::gather(int root, std::uint64_t bytes_per_rank) {
  const int seq = coll_seq_++;
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  auto real = [&](int v) { return (v + root) % p; };
  // Subtree size of virtual rank v in the binomial tree.
  auto subtree = [&](int v) {
    if (v == 0) return p;
    const int low = v & -v;
    return std::min(low, p - v);
  };
  // Children deliver their whole subtree's data, largest subtree last so
  // the most data moves after the most aggregation (classic gather).
  const int limit = (vrank == 0) ? p : (vrank & -vrank);
  for (int mask = 1; mask < limit; mask <<= 1) {
    const int child = vrank + mask;
    if (child < p) {
      co_await recv(real(child), coll_tag(seq));
    }
  }
  if (vrank != 0) {
    const int parent = vrank - (vrank & -vrank);
    co_await send(real(parent),
                  static_cast<std::uint64_t>(subtree(vrank)) * bytes_per_rank,
                  coll_tag(seq));
  }
}

sim::Coro<void> Rank::scatter(int root, std::uint64_t bytes_per_rank) {
  const int seq = coll_seq_++;
  const int p = size();
  const int vrank = (rank_ - root + p) % p;
  auto real = [&](int v) { return (v + root) % p; };
  auto subtree = [&](int v) {
    if (v == 0) return p;
    const int low = v & -v;
    return std::min(low, p - v);
  };
  // Receive our subtree's block from the parent, then split it down.
  int recv_mask = 1;
  while (recv_mask < p) {
    if (vrank & recv_mask) {
      co_await recv(real(vrank - recv_mask), coll_tag(seq));
      break;
    }
    recv_mask <<= 1;
  }
  // Largest power-of-two child offset (tree edges are always powers of
  // two, even when p is not).
  int top;
  if (vrank == 0) {
    top = 1;
    while (top * 2 < p) top <<= 1;
  } else {
    top = recv_mask >> 1;
  }
  for (int mask = top; mask >= 1; mask >>= 1) {
    const int child = vrank + mask;
    if (child < p) {
      co_await send(
          real(child),
          static_cast<std::uint64_t>(subtree(child)) * bytes_per_rank,
          coll_tag(seq));
    }
  }
}

sim::Coro<void> Rank::reduce_scatter(std::uint64_t bytes_per_rank) {
  const int p = size();
  const bool pow2 = (p & (p - 1)) == 0;
  if (!pow2) {
    // General sizes: full reduce then scatter of the result.
    co_await reduce(0, static_cast<std::uint64_t>(p) * bytes_per_rank);
    co_await scatter(0, bytes_per_rank);
    co_return;
  }
  // Recursive halving: each step exchanges (and reduces) half of the
  // remaining data with a partner at decreasing distance.
  const int seq = coll_seq_++;
  const auto combine_per_byte = cfg_.reduce_ns_per_byte;
  std::uint64_t chunk = static_cast<std::uint64_t>(p) * bytes_per_rank / 2;
  int round = 0;
  for (int mask = p / 2; mask >= 1; mask >>= 1, ++round) {
    const int partner = rank_ ^ mask;
    Request s = isend(partner, chunk, coll_tag(seq, round));
    Request r = irecv(partner, coll_tag(seq, round));
    co_await wait(s);
    co_await wait(r);
    co_await compute(sim::duration_ceil(static_cast<double>(chunk) *
                                        combine_per_byte));
    chunk = std::max<std::uint64_t>(chunk / 2, 1);
  }
}

sim::Coro<void> Rank::allgather(std::uint64_t bytes_per_rank) {
  const int seq = coll_seq_++;
  const int p = size();
  const int right = (rank_ + 1) % p;
  const int left = (rank_ - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    Request s = isend(right, bytes_per_rank, coll_tag(seq, step % 64));
    Request r = irecv(left, coll_tag(seq, step % 64));
    co_await wait(s);
    co_await wait(r);
  }
}

}  // namespace ibwan::mpi
