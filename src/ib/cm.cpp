#include "ib/cm.hpp"

#include <cassert>

namespace ibwan::ib {

struct CmAgent::CmMad {
  enum class Kind : std::uint8_t { kReq, kRep, kRej, kRtu };
  Kind kind = Kind::kReq;
  std::uint32_t service_id = 0;
  std::uint64_t conn_id = 0;  // initiator-assigned
  Lid src_lid = 0;
  Qpn qpn = 0;  // sender's data QP
};

CmAgent::CmAgent(Hca& hca, Config config)
    : hca_(hca), config_(config), scq_(hca.sim()), rcq_(hca.sim()) {
  scq_.set_callback([](const Cqe&) {});
  rcq_.set_callback([this](const Cqe& e) { on_mad(e); });
  qp1_ = &hca_.create_ud_qp(scq_, rcq_);
  assert(qp1_->qpn() == kCmQpn &&
         "CmAgent must be the first QP created on the HCA (GSI QP 1)");
  for (int i = 0; i < 128; ++i) qp1_->post_recv(RecvWr{});
}

void CmAgent::listen(std::uint32_t service_id, Cq& scq, Cq& rcq,
                     std::function<void(RcQp&)> on_connect) {
  listeners_[service_id] = Listener{&scq, &rcq, std::move(on_connect)};
}

void CmAgent::send_mad(Lid dst, const CmMad& mad) {
  SendWr wr{.length = config_.mad_bytes,
            .app_payload = std::make_shared<CmMad>(mad)};
  qp1_->post_send(wr, UdDest{dst, kCmQpn});
}

sim::Task CmAgent::retry_loop(Lid dst, std::uint64_t conn_id, CmMad req) {
  auto conn = active_.at(conn_id);
  // conn->done is the final-outcome trigger (fired on REP/REJ by
  // on_mad, or on retry exhaustion here); per-attempt pacing is a
  // plain sleep-and-check so the trigger never needs re-arming.
  for (int attempt = 0; attempt < config_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    ++stats_.reqs_sent;
    send_mad(dst, req);
    co_await sim::SleepAwaiter(hca_.sim(), config_.retry_timeout);
    if (conn->replied || conn->rejected) co_return;
  }
  // Retries exhausted: surface as rejection.
  conn->rejected = true;
  conn->done.fire();
}

sim::Task CmAgent::rep_loop(Lid dst, std::uint64_t conn_id, CmMad rep) {
  // The passive side resends its REP until the RTU arrives; the active
  // side answers every REP with an RTU, so a lost RTU is repaired too.
  for (int attempt = 0; attempt < config_.max_retries; ++attempt) {
    ++stats_.reps_sent;
    send_mad(dst, rep);
    co_await sim::SleepAwaiter(hca_.sim(), config_.retry_timeout);
    if (passive_.at(conn_id).established) co_return;
  }
}

sim::Coro<RcQp*> CmAgent::connect(Lid dst, std::uint32_t service_id,
                                  Cq& scq, Cq& rcq) {
  const std::uint64_t conn_id =
      (static_cast<std::uint64_t>(hca_.lid()) << 32) | next_conn_id_++;
  auto conn = std::make_shared<ActiveConn>(hca_.sim());
  conn->qp = &hca_.create_rc_qp(scq, rcq);
  active_[conn_id] = conn;

  CmMad req{.kind = CmMad::Kind::kReq,
            .service_id = service_id,
            .conn_id = conn_id,
            .src_lid = hca_.lid(),
            .qpn = conn->qp->qpn()};
  retry_loop(dst, conn_id, req);
  if (!conn->done.fired()) co_await conn->done.wait();
  assert(conn->replied || conn->rejected);
  if (conn->rejected) co_return nullptr;
  ++stats_.connections;
  co_return conn->qp;
}

void CmAgent::on_mad(const Cqe& cqe) {
  qp1_->post_recv(RecvWr{});
  if (!cqe.app_payload) return;
  const CmMad& mad = cqe.payload_as<CmMad>();
  switch (mad.kind) {
    case CmMad::Kind::kReq: {
      auto lit = listeners_.find(mad.service_id);
      if (lit == listeners_.end()) {
        ++stats_.rejects_sent;
        send_mad(mad.src_lid, CmMad{.kind = CmMad::Kind::kRej,
                                    .service_id = mad.service_id,
                                    .conn_id = mad.conn_id,
                                    .src_lid = hca_.lid()});
        return;
      }
      auto pit = passive_.find(mad.conn_id);
      const bool fresh = pit == passive_.end();
      if (fresh) {
        RcQp& qp = hca_.create_rc_qp(*lit->second.scq, *lit->second.rcq);
        qp.connect(mad.src_lid, mad.qpn);
        pit = passive_.emplace(mad.conn_id, PassiveConn{&qp, false}).first;
      }
      const CmMad rep{.kind = CmMad::Kind::kRep,
                      .service_id = mad.service_id,
                      .conn_id = mad.conn_id,
                      .src_lid = hca_.lid(),
                      .qpn = pit->second.qp->qpn()};
      if (fresh) {
        rep_loop(mad.src_lid, mad.conn_id, rep);
      } else {
        // Duplicate REQ (our REP was lost): resend the REP.
        ++stats_.reps_sent;
        send_mad(mad.src_lid, rep);
      }
      return;
    }
    case CmMad::Kind::kRep: {
      auto it = active_.find(mad.conn_id);
      if (it == active_.end() || it->second->rejected) return;  // stale
      auto conn = it->second;
      if (!conn->replied) {
        conn->qp->connect(mad.src_lid, mad.qpn);
        conn->replied = true;
      }
      // Ready-to-use confirms the passive side (resent on dup REPs).
      send_mad(mad.src_lid, CmMad{.kind = CmMad::Kind::kRtu,
                                  .service_id = mad.service_id,
                                  .conn_id = mad.conn_id,
                                  .src_lid = hca_.lid()});
      conn->done.fire();
      return;
    }
    case CmMad::Kind::kRej: {
      auto it = active_.find(mad.conn_id);
      if (it == active_.end()) return;
      it->second->rejected = true;
      it->second->done.fire();
      return;
    }
    case CmMad::Kind::kRtu: {
      auto it = passive_.find(mad.conn_id);
      if (it == passive_.end() || it->second.established) return;
      it->second.established = true;
      ++stats_.connections;
      const std::uint32_t service = mad.service_id;
      if (auto lit = listeners_.find(service); lit != listeners_.end()) {
        lit->second.on_connect(*it->second.qp);
      }
      return;
    }
  }
}

}  // namespace ibwan::ib
