// Software-defined reliability transport (SDR-RDMA style, ROADMAP item
// 1 / DESIGN.md §14): reliable large-message delivery built entirely on
// unreliable datagrams.
//
// Large messages are split into MTU-sized chunks tracked by a receive
// bitmap. Chunks are grouped (k data + r parity) and protected by a
// pluggable redundancy scheme (sdr/code.hpp): none, XOR parity, or MDS
// Reed-Solomon over GF(2^8). Any loss within a group's correction
// budget is repaired locally at the receiver — no WAN round trip, which
// is why the transport keeps its goodput at high bandwidth-delay
// product where RC's retransmission window collapses (the paper's
// central negative result, bench/ext_sdr_fec.cpp). Loss beyond the
// budget falls back to selective-repeat NACKs; an adaptive policy
// retunes the redundancy ratio from a loss EWMA observed in receiver
// feedback.
//
// The transport rides UD queue pairs through the ordinary net::Link /
// LongbowPair path, so Gilbert-Elliott loss, flaps, jitter, and
// brownouts (src/net/faults.cpp) apply to it unmodified. All state and
// timers live on the owning node's simulator, so the endpoint is
// site-parallel safe (DESIGN.md §13): the only cross-site interaction
// is datagrams on the wire.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/verbs.hpp"
#include "sdr/code.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ibwan::sdr {

/// Per-chunk protocol header carried on the wire in front of the
/// payload (sequence + group geometry, like SDR-RDMA's chunk header).
inline constexpr std::uint32_t kSdrHeaderBytes = 32;
/// Fixed part of a NACK/DONE/PROBE control datagram.
inline constexpr std::uint32_t kSdrCtrlBytes = 40;

struct SdrConfig {
  Scheme scheme = Scheme::kRs;
  /// Data chunks per redundancy group (k).
  int group_data_chunks = 16;
  /// Parity chunks per group (r). kXor caps this at 1, kNone at 0.
  int parity_per_group = 2;
  /// Retune r per message from the observed-loss EWMA. Draws live on
  /// the named RNG stream "sdr.adaptive" (Simulator::rng_stream), so
  /// enabling the policy cannot perturb the main RNG sequence.
  bool adaptive = false;
  double ewma_alpha = 0.25;
  /// Target redundancy ratio = loss_safety * loss EWMA (headroom for
  /// burstiness above the mean loss rate).
  double loss_safety = 3.0;
  int adaptive_max_parity = 8;
  /// Chunks outstanding on the local wire (UD send-completion paced) —
  /// delay-independent, like perftest's tx_depth.
  int tx_depth = 64;
  /// Receiver inactivity window before a selective-repeat NACK; backs
  /// off exponentially across quiet rounds, resets on progress.
  sim::Duration nack_timeout = 2 * sim::kMillisecond;
  int max_nack_rounds = 24;
  /// Sender probe for a lost DONE (or a fully-lost tail); backs off
  /// exponentially, bounded like RC's retry count.
  sim::Duration probe_timeout = 10 * sim::kMillisecond;
  int max_probes = 24;
  /// Receiver CPU cost per repaired chunk (Gauss-Jordan solve); XOR
  /// repair is a plain wide XOR and costs ~nothing in comparison.
  sim::Duration decode_ns_per_chunk = 400;
  /// Missing-chunk indices per NACK datagram (clamped to the MTU).
  std::uint32_t max_nack_chunks = 256;
  /// Receive WQEs kept pre-posted (UD drops datagrams with no recv).
  int recv_slots = 2048;
};

/// Non-empty human-readable reason when the config is unusable (the
/// wire header carries k and r as uint16, and GF(2^8) Reed-Solomon
/// bounds a group at 255 symbols, so out-of-range values would silently
/// truncate and corrupt group accounting); empty string when valid.
/// SdrEndpoint construction rejects invalid configs with this message.
std::string validate(const SdrConfig& config);

/// Accounting; conservation identities over these are oracle-checked
/// (src/check/oracles.cpp, `/sdr` scopes):
///   msgs_completed + msgs_failed == msgs_initiated     (drained)
///   chunks_repaired              <= parity_chunks_received
///   data_chunks_delivered        <= data_chunks_received + repaired
///   msg_bytes_delivered          <= decoded_bytes
///   sum(rx chunks + dups)        <= sum(tx chunks)     (global)
/// The `lint:conserved` counters may only be written by sdr.cpp
/// (ibwan-lint INV001).
struct SdrStats {
  // --- sender ---
  // Named `msgs_initiated` (not `msgs_sent`) because INV001 ownership
  // is by bare identifier and ib::QueuePair::Stats::msgs_sent exists.
  std::uint64_t msgs_initiated = 0;       // lint:conserved
  std::uint64_t msgs_completed = 0;       // lint:conserved
  std::uint64_t msgs_failed = 0;          // lint:conserved
  std::uint64_t data_chunks_sent = 0;     // lint:conserved
  std::uint64_t parity_chunks_sent = 0;   // lint:conserved
  std::uint64_t retrans_chunks_sent = 0;  // lint:conserved
  std::uint64_t chunk_bytes_sent = 0;     // lint:conserved
  std::uint64_t nacks_received = 0;       // lint:conserved
  std::uint64_t probes_sent = 0;          // lint:conserved
  // --- receiver ---
  std::uint64_t data_chunks_received = 0;    // lint:conserved
  std::uint64_t parity_chunks_received = 0;  // lint:conserved
  std::uint64_t dup_chunks = 0;              // lint:conserved
  std::uint64_t chunks_repaired = 0;         // lint:conserved
  std::uint64_t data_chunks_delivered = 0;   // lint:conserved
  std::uint64_t decoded_bytes = 0;           // lint:conserved
  std::uint64_t groups_decoded = 0;          // lint:conserved
  std::uint64_t nacks_sent = 0;              // lint:conserved
  std::uint64_t dones_sent = 0;              // lint:conserved
  std::uint64_t msgs_delivered = 0;      // lint:conserved
  std::uint64_t msg_bytes_delivered = 0;  // lint:conserved
  std::uint64_t msgs_abandoned = 0;      // lint:conserved
  std::uint64_t decode_ns = 0;  // simulated FEC decode time
};

/// One SDR datagram's typed content, carried end-to-end through
/// SendWr::app_payload (the simulator moves byte counts; this is the
/// metadata real headers would encode).
struct SdrDatagram {
  enum class Type : std::uint8_t { kChunk, kNack, kDone, kProbe };
  Type type = Type::kChunk;
  std::uint64_t msg_id = 0;
  // Message geometry (chunk + probe): enough to (re)create receive
  // state from any single datagram.
  std::uint64_t msg_bytes = 0;
  std::uint32_t total_data_chunks = 0;
  std::uint16_t k = 0;
  std::uint16_t r = 0;
  Scheme scheme = Scheme::kNone;
  // Chunk identity.
  std::uint32_t group = 0;
  std::uint16_t idx_in_group = 0;
  bool parity = false;
  bool retrans = false;
  // Application payload descriptor (chunk datagrams only): the typed
  // message the upper layer attached to send(); every chunk carries the
  // same shared pointer, so whichever chunks survive the WAN reconstruct
  // it at the receiver (the simulator moves byte counts, not bytes).
  std::shared_ptr<const void> app;
  // NACK: missing global data-chunk indices (capped per datagram).
  std::vector<std::uint32_t> missing;
  // DONE: receiver-side loss feedback for the adaptive policy.
  std::uint64_t rx_chunks = 0;  // unique + duplicate arrivals
  std::uint32_t repaired = 0;
};

/// A reliability endpoint bound to one HCA: owns a UD QP, sends and
/// receives SDR messages. Peer discovery is out-of-band (exchange
/// dest() before the run, as CM does for RC).
class SdrEndpoint {
 public:
  using CompletionFn = std::function<void(bool ok)>;
  /// Upper-layer delivery hook: fires once per fully delivered message
  /// (the same instant `msgs_delivered` ticks), with the sender's
  /// address, the message size, and the application payload attached to
  /// send() (null when the sender attached none). Runs after the
  /// endpoint's own bookkeeping, so the handler may immediately send()
  /// on this endpoint (request/reply protocols, rpc/sdr_transport.cpp).
  using DeliveryFn = std::function<void(
      const ib::UdDest& src, std::uint64_t bytes,
      const std::shared_ptr<const void>& app)>;

  SdrEndpoint(ib::Hca& hca, SdrConfig config = {});
  ~SdrEndpoint();

  SdrEndpoint(const SdrEndpoint&) = delete;
  SdrEndpoint& operator=(const SdrEndpoint&) = delete;

  /// Address remote endpoints send to.
  ib::UdDest dest() const;

  /// Starts a reliable transfer of `bytes` to `dst`; `done(true)` fires
  /// when the receiver confirmed full delivery, `done(false)` when the
  /// probe budget is exhausted (severed WAN). Returns the message id.
  /// `app` is an opaque payload descriptor handed to the receiver's
  /// delivery handler with the completed message.
  std::uint64_t send(ib::UdDest dst, std::uint64_t bytes,
                     CompletionFn done = {},
                     std::shared_ptr<const void> app = {});

  /// Registers the receive-side delivery hook (at most one).
  void set_delivery_handler(DeliveryFn fn) { on_deliver_ = std::move(fn); }

  const SdrConfig& config() const { return cfg_; }
  const SdrStats& stats() const { return stats_; }
  /// Payload bytes per chunk (MTU minus the SDR header).
  std::uint32_t chunk_payload() const { return chunk_payload_; }
  /// Observed-loss EWMA driving the adaptive policy.
  double loss_ewma() const { return loss_ewma_; }
  /// Parity chunks per group the next message will use.
  int next_parity() const;

 private:
  struct TxMsg {
    ib::UdDest dst;
    std::uint64_t bytes = 0;
    std::uint32_t total_data = 0;
    std::uint16_t k = 0;
    std::uint16_t r = 0;
    std::uint64_t chunks_tx = 0;     // data + parity + retrans posted
    std::uint64_t wire_pending = 0;  // posted but not yet serialized
    bool all_enqueued = false;
    int probes = 0;
    sim::EventId probe_timer = 0;
    bool probe_armed = false;
    sim::Time start = 0;
    CompletionFn done;
    std::shared_ptr<const void> app;
  };
  struct RxGroup {
    std::vector<bool> data_present;
    std::vector<bool> parity_present;
    int data_have = 0;
    int parity_have = 0;
    bool decoded = false;
    bool decoding = false;
  };
  struct RxMsg {
    ib::UdDest src;
    std::uint64_t msg_bytes = 0;
    std::uint32_t total_data = 0;
    std::uint16_t k = 0;
    std::uint16_t r = 0;
    Scheme scheme = Scheme::kNone;
    std::vector<RxGroup> groups;
    std::uint32_t groups_done = 0;
    std::uint64_t rx_chunks = 0;  // unique + duplicate arrivals
    std::uint32_t repaired = 0;
    sim::Time last_arrival = 0;
    sim::EventId nack_timer = 0;
    bool nack_armed = false;
    int quiet_rounds = 0;
    std::shared_ptr<const void> app;
  };
  struct DoneInfo {
    ib::UdDest src;
    std::uint64_t rx_chunks = 0;
    std::uint32_t repaired = 0;
  };
  struct TxChunk {
    std::uint64_t msg_id = 0;
    std::uint32_t chunk = 0;  // global data index, or parity ordinal
    bool parity = false;
    bool retrans = false;
  };
  /// (sender lid << 32 | sender qpn, msg id) — sender-unique message key.
  using RxKey = std::pair<std::uint64_t, std::uint64_t>;

  void pump();
  void post_chunk(TxMsg& m, const TxChunk& c);
  void send_ctrl(const ib::UdDest& to, std::shared_ptr<SdrDatagram> d,
                 std::uint32_t wire_bytes);
  void on_send_cqe(const ib::Cqe& cqe);
  void on_recv_cqe(const ib::Cqe& cqe);
  void on_chunk(const RxKey& key, const SdrDatagram& d, const ib::UdDest& src);
  void on_nack(const SdrDatagram& d);
  void on_done(const SdrDatagram& d);
  void on_probe(const RxKey& key, const SdrDatagram& d,
                const ib::UdDest& src);
  RxMsg& ensure_rx(const RxKey& key, const SdrDatagram& d,
                   const ib::UdDest& src);
  void try_decode_group(const RxKey& key, RxMsg& m, std::uint32_t g);
  void finish_rx(const RxKey& key, RxMsg& m);
  void send_nack(const RxKey& key, RxMsg& m);
  void arm_nack_timer(const RxKey& key, RxMsg& m, sim::Duration d);
  void nack_timer_fire(const RxKey& key);
  void arm_probe_timer(std::uint64_t msg_id, TxMsg& m);
  void probe_timer_fire(std::uint64_t msg_id);
  void complete_tx(std::uint64_t msg_id, TxMsg& m, bool ok);
  void update_loss_ewma(const TxMsg& m, std::uint64_t rx_chunks);
  std::uint32_t group_k(const RxMsg& m, std::uint32_t g) const;
  std::uint32_t chunk_bytes(std::uint64_t msg_bytes,
                            std::uint32_t chunk) const;

  ib::Hca& hca_;
  sim::Simulator& sim_;
  SdrConfig cfg_;
  ib::Cq send_cq_;
  ib::Cq recv_cq_;
  ib::UdQp* qp_;
  std::uint32_t chunk_payload_;
  sim::Rng adaptive_rng_;
  double loss_ewma_ = 0.0;
  DeliveryFn on_deliver_;

  std::uint64_t next_msg_id_ = 1;
  std::map<std::uint64_t, TxMsg> tx_;
  std::deque<TxChunk> txq_;
  int wire_outstanding_ = 0;
  std::map<RxKey, RxMsg> rx_;
  std::map<RxKey, DoneInfo> rx_done_;
  /// Receives we gave up on (selective repeat exhausted): probes and
  /// stray chunks for these keys are ignored, which guarantees the
  /// probe/NACK exchange drains even under a permanently severed WAN.
  std::set<RxKey> rx_abandoned_;

  SdrStats stats_;

  // Registered metrics (docs/METRICS.md §sdr); scope "node<lid>/sdr".
  sim::CounterExports exports_{sim_.metrics()};
  sim::Gauge* obs_loss_ewma_ppm_;
  sim::Gauge* obs_parity_level_;
  sim::Histogram* obs_msg_ns_;
  char trace_tag_[12];  // "sdr-<lid>"
};

}  // namespace ibwan::sdr
