// Connection Manager (CM).
//
// An on-the-wire RC connection establishment protocol in the style of
// the IB CM MADs: REQ -> REP -> RTU over the general-service UD QP
// (QP 1). Everything else in the library offers simulator-convenient
// out-of-band connects; CmAgent is the faithful alternative — the
// handshake crosses the WAN, pays its latency, retries on datagram
// loss, and can be rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "ib/cq.hpp"
#include "ib/hca.hpp"
#include "ib/qp.hpp"
#include "sim/coro.hpp"
#include "sim/task.hpp"

namespace ibwan::ib {

/// The well-known general-service QPN the agent listens on.
inline constexpr Qpn kCmQpn = 1;

class CmAgent {
 public:
  struct Config {
    /// REQ/REP retransmission timeout (datagrams are unreliable).
    sim::Duration retry_timeout = 4 * sim::kMillisecond;
    int max_retries = 8;
    /// CM MAD size on the wire.
    std::uint32_t mad_bytes = 256;
  };

  /// Must be constructed before any other QP on the HCA so the agent
  /// owns QPN 1 (the GSI convention).
  explicit CmAgent(Hca& hca) : CmAgent(hca, Config{}) {}
  CmAgent(Hca& hca, Config config);

  /// Passive side: accept connections for `service_id`. The callback
  /// receives each newly connected QP once the RTU arrives. New QPs use
  /// the provided CQs.
  void listen(std::uint32_t service_id, Cq& scq, Cq& rcq,
              std::function<void(RcQp&)> on_connect);

  /// Active side: connect to `service_id` at `dst`. Returns the
  /// connected QP, or nullptr on rejection / retry exhaustion.
  sim::Coro<RcQp*> connect(Lid dst, std::uint32_t service_id, Cq& scq,
                           Cq& rcq);

  struct Stats {
    std::uint64_t reqs_sent = 0;
    std::uint64_t reps_sent = 0;
    std::uint64_t rejects_sent = 0;
    std::uint64_t retries = 0;
    std::uint64_t connections = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct CmMad;
  struct Listener {
    Cq* scq;
    Cq* rcq;
    std::function<void(RcQp&)> on_connect;
  };
  struct ActiveConn {
    explicit ActiveConn(sim::Simulator& sim) : done(sim) {}
    RcQp* qp = nullptr;
    bool rejected = false;
    bool replied = false;
    sim::Trigger done;
  };
  struct PassiveConn {
    RcQp* qp = nullptr;
    bool established = false;
  };

  void on_mad(const Cqe& cqe);
  void send_mad(Lid dst, const CmMad& mad);
  sim::Task retry_loop(Lid dst, std::uint64_t conn_id, CmMad req);
  sim::Task rep_loop(Lid dst, std::uint64_t conn_id, CmMad rep);

  Hca& hca_;
  Config config_;
  Cq scq_;
  Cq rcq_;
  UdQp* qp1_ = nullptr;
  std::unordered_map<std::uint32_t, Listener> listeners_;
  /// Active side, by conn id; kept after connect() returns so a
  /// duplicate REP (our RTU was lost) is answered with another RTU.
  std::unordered_map<std::uint64_t, std::shared_ptr<ActiveConn>> active_;
  /// Passive-side dedup: connections already set up, by initiator conn id.
  std::unordered_map<std::uint64_t, PassiveConn> passive_;
  std::uint64_t next_conn_id_ = 1;
  Stats stats_;
};

}  // namespace ibwan::ib
