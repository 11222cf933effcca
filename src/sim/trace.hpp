// Bounded ring-buffer flight recorder for packet/QP/TCP/MPI/RPC
// events, stamped with simulated time.
//
// The recorder is owned by the Simulator (one per run) and is off
// ("disarmed") by default: an unarmed record() is a single branch
// (see docs/METRICS.md §flight recorder and the README debugging
// section).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ibwan::sim {

/// Typed event kinds; trace_kind_name() gives the wire/dump spelling.
enum class TraceKind : std::uint8_t {
  // net
  kPktSend,        // a=packet id, b=wire bytes      (link starts serializing)
  kPktDeliver,     // a=packet id, b=wire bytes      (link hands to sink)
  kPktDrop,        // a=packet id, b=wire bytes, c=1 buffer / 2 loss /
                   //   3 fault (Gilbert–Elliott) / 4 link down / 5 no port
  // ib.rc
  kAckSend,        // a=cumulative psn acked
  kAckRecv,        // a=cumulative psn acked, b=msgs completed
  kNakSend,        // a=expected psn, b=got psn
  kRetransmit,     // a=first psn resent, b=next fresh psn
  kRtoFire,        // a=oldest unacked psn
  kWindowStall,    // a=queued msgs, b=inflight msgs  (RC send window full)
  kWindowResume,   // a=stalled ns
  // tcp
  kCwndStall,      // a=cwnd bytes, b=peer window bytes
  kRwndStall,      // a=cwnd bytes, b=peer window bytes
  kFastRetransmit, // a=seq resent
  kTcpRto,         // a=snd_una
  // mpi
  kEagerSend,      // a=dst rank, b=bytes
  kRndvRts,        // a=dst rank, b=bytes            (eager->rendezvous switch)
  kRndvCts,        // a=src rank, b=bytes
  kRndvFin,        // a=dst rank, b=bytes
  kBcastStart,     // a=root, b=bytes
  kBcastDone,      // a=root, b=elapsed ns
  // rpc / nfs
  kRpcIssue,       // a=xid, b=argument bytes
  kRpcComplete,    // a=xid, b=elapsed ns
  kChunkIssue,     // a=wr id, b=chunk bytes         (NFS/RDMA 4 KB chunk)
  kChunkComplete,  // a=wr id, b=elapsed ns
  // fault injection (src/net/faults.hpp)
  kLinkDown,       // a=in-flight+queued bytes at the flap
  kLinkUp,         // a=outage ns
  kBrownoutStart,  // a=squeezed buffer bytes, b=normal buffer bytes
  kBrownoutEnd,    // a=restored buffer bytes
  kQpError,        // a=oldest unacked psn, b=WQEs flushed (RC retry exhausted)
  // sdr (src/sdr/sdr.hpp)
  kSdrChunkSend,   // a=msg id, b=chunk index, c=0 data / 1 parity / 2 retrans
  kSdrNackSend,    // a=msg id, b=missing chunks requested
  kSdrRepair,      // a=msg id, b=group index, c=chunks repaired by parity
  kSdrMsgDone,     // a=msg id, b=message bytes, c=chunks repaired
  kSdrProbe,       // a=msg id, b=probe ordinal
};

const char* trace_kind_name(TraceKind kind);

/// Fixed-size POD record; `tag` identifies the emitting instance
/// (link name, "rc-qp3", rank id...), a/b/c are kind-specific (above).
struct TraceEvent {
  Time time = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  TraceKind kind{};
  char tag[15] = {};

  std::string format() const;  // one dump line, no newline
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Arm: start recording. Ring storage is allocated lazily on first
  /// arm.
  void arm();
  void disarm();
  bool armed() const { return armed_; }

  /// Resize (and clear) the ring. Only meaningful before/between runs.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  void record(Time now, TraceKind kind, const char* tag, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0);

  /// Events currently held, oldest first (at most capacity()).
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  /// Total events ever recorded, including overwritten ones.
  std::uint64_t recorded() const { return recorded_; }

  /// Human-readable dump, oldest first. Intended for on-demand
  /// inspection and dump-on-test-failure guards.
  void dump(std::FILE* out) const;
  void clear();

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write position
  std::uint64_t recorded_ = 0;
  bool armed_ = false;
};

}  // namespace ibwan::sim
