#include "sdr/sdr.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sim/trace.hpp"

namespace ibwan::sdr {

namespace {
/// Backoff shift caps keep timer growth bounded (2 ms << 8 = 512 ms).
constexpr int kMaxNackShift = 8;
constexpr int kMaxProbeShift = 6;

std::uint64_t rx_peer_key(ib::Lid lid, ib::Qpn qpn) {
  return (static_cast<std::uint64_t>(lid) << 32) | qpn;
}
}  // namespace

std::string validate(const SdrConfig& config) {
  // The chunk header carries k and r as uint16, and a GF(2^8)
  // Reed-Solomon group holds at most 255 symbols; out-of-range values
  // used to truncate silently in the header encode.
  constexpr int kMaxGroupSymbols = 255;
  if (config.group_data_chunks < 1) {
    return "group_data_chunks must be >= 1, got " +
           std::to_string(config.group_data_chunks);
  }
  if (config.group_data_chunks > kMaxGroupSymbols) {
    return "group_data_chunks must be <= 255 (GF(2^8) group), got " +
           std::to_string(config.group_data_chunks);
  }
  if (config.parity_per_group < 0) {
    return "parity_per_group must be >= 0, got " +
           std::to_string(config.parity_per_group);
  }
  if (config.adaptive_max_parity < 0) {
    return "adaptive_max_parity must be >= 0, got " +
           std::to_string(config.adaptive_max_parity);
  }
  if (config.group_data_chunks + config.parity_per_group > kMaxGroupSymbols) {
    return "group_data_chunks + parity_per_group must be <= 255, got " +
           std::to_string(config.group_data_chunks + config.parity_per_group);
  }
  if (config.group_data_chunks + config.adaptive_max_parity >
      kMaxGroupSymbols) {
    return "group_data_chunks + adaptive_max_parity must be <= 255, got " +
           std::to_string(config.group_data_chunks +
                          config.adaptive_max_parity);
  }
  return "";
}

SdrEndpoint::SdrEndpoint(ib::Hca& hca, SdrConfig config)
    : hca_(hca),
      sim_(hca.sim()),
      cfg_(config),
      send_cq_(hca.sim()),
      recv_cq_(hca.sim()),
      qp_(&hca.create_ud_qp(send_cq_, recv_cq_)),
      chunk_payload_(hca.config().mtu - kSdrHeaderBytes),
      adaptive_rng_(0) {
  assert(hca_.config().mtu > kSdrHeaderBytes);
  if (const std::string err = validate(cfg_); !err.empty()) {
    std::fprintf(stderr, "SdrEndpoint (lid %u): invalid SdrConfig: %s\n",
                 hca_.lid(), err.c_str());
    std::abort();
  }
  // Named stream: retuning redundancy must never perturb the main RNG
  // sequence (faults-off runs stay byte-identical; DESIGN.md §14).
  adaptive_rng_ = sim_.rng_stream("sdr.adaptive");
  std::snprintf(trace_tag_, sizeof(trace_tag_), "sdr-%u", hca_.lid());

  send_cq_.set_callback([this](const ib::Cqe& cqe) { on_send_cqe(cqe); });
  recv_cq_.set_callback([this](const ib::Cqe& cqe) { on_recv_cqe(cqe); });
  for (int i = 0; i < cfg_.recv_slots; ++i) {
    qp_->post_recv({.wr_id = static_cast<std::uint64_t>(i),
                    .max_length = hca_.config().mtu});
  }

  auto& m = sim_.metrics();
  const std::string scope = "node" + std::to_string(hca_.lid()) + "/sdr";
  using enum sim::MetricUnit;
  exports_.counter(scope, "msgs_sent", kMessages, &stats_.msgs_initiated);
  exports_.counter(scope, "msgs_completed", kMessages, &stats_.msgs_completed);
  exports_.counter(scope, "msgs_failed", kMessages, &stats_.msgs_failed);
  exports_.counter(scope, "data_chunks_sent", kPackets,
                   &stats_.data_chunks_sent);
  exports_.counter(scope, "parity_chunks_sent", kPackets,
                   &stats_.parity_chunks_sent);
  exports_.counter(scope, "retrans_chunks_sent", kPackets,
                   &stats_.retrans_chunks_sent);
  exports_.counter(scope, "chunk_bytes_sent", kBytes, &stats_.chunk_bytes_sent);
  exports_.counter(scope, "nacks_received", kCount, &stats_.nacks_received);
  exports_.counter(scope, "probes_sent", kCount, &stats_.probes_sent);
  exports_.counter(scope, "data_chunks_received", kPackets,
                   &stats_.data_chunks_received);
  exports_.counter(scope, "parity_chunks_received", kPackets,
                   &stats_.parity_chunks_received);
  exports_.counter(scope, "dup_chunks", kPackets, &stats_.dup_chunks);
  exports_.counter(scope, "chunks_repaired", kPackets, &stats_.chunks_repaired);
  exports_.counter(scope, "data_chunks_delivered", kPackets,
                   &stats_.data_chunks_delivered);
  exports_.counter(scope, "decoded_bytes", kBytes, &stats_.decoded_bytes);
  exports_.counter(scope, "groups_decoded", kCount, &stats_.groups_decoded);
  exports_.counter(scope, "nacks_sent", kCount, &stats_.nacks_sent);
  exports_.counter(scope, "dones_sent", kCount, &stats_.dones_sent);
  exports_.counter(scope, "msgs_delivered", kMessages, &stats_.msgs_delivered);
  exports_.counter(scope, "msg_bytes_delivered", kBytes,
                   &stats_.msg_bytes_delivered);
  exports_.counter(scope, "msgs_abandoned", kMessages, &stats_.msgs_abandoned);
  exports_.counter(scope, "decode_ns", kNanoseconds, &stats_.decode_ns);
  obs_loss_ewma_ppm_ = &m.gauge(scope, "loss_ewma_ppm");
  obs_parity_level_ = &m.gauge(scope, "parity_level");
  obs_msg_ns_ = &m.histogram(scope, "msg_ns", kNanoseconds);
}

SdrEndpoint::~SdrEndpoint() {
  // Endpoints normally outlive a drained run; cancel any armed timers so
  // teardown mid-run cannot leave events pointing at freed state.
  for (auto& [id, m] : tx_) {
    if (m.probe_armed) sim_.cancel(m.probe_timer);
  }
  for (auto& [key, m] : rx_) {
    if (m.nack_armed) sim_.cancel(m.nack_timer);
  }
}

ib::UdDest SdrEndpoint::dest() const {
  return {.lid = hca_.lid(), .qpn = qp_->qpn()};
}

int SdrEndpoint::next_parity() const {
  if (!cfg_.adaptive) {
    return effective_parity(cfg_.scheme, cfg_.parity_per_group);
  }
  // Worst case of the dithered rounding in send(): fractional targets
  // round up here, so the reported level is what the next message may
  // use, not a long-run average.
  const double ratio = std::min(cfg_.loss_safety * loss_ewma_, 1.0);
  const double r_real = ratio * cfg_.group_data_chunks;
  const int base = static_cast<int>(r_real);
  const int up = r_real > static_cast<double>(base) ? base + 1 : base;
  return effective_parity(cfg_.scheme,
                          std::min(up, cfg_.adaptive_max_parity));
}

std::uint64_t SdrEndpoint::send(ib::UdDest dst, std::uint64_t bytes,
                                CompletionFn done,
                                std::shared_ptr<const void> app) {
  assert(bytes > 0);
  const std::uint64_t id = next_msg_id_++;
  TxMsg& m = tx_[id];
  m.dst = dst;
  m.bytes = bytes;
  m.app = std::move(app);
  m.total_data = static_cast<std::uint32_t>((bytes + chunk_payload_ - 1) /
                                            chunk_payload_);
  // Fits: construction validated group_data_chunks <= 255.
  m.k = static_cast<std::uint16_t>(cfg_.group_data_chunks);
  // Dithered rounding of the adaptive ratio: the fractional parity is
  // realized probabilistically on the named stream, so the long-run
  // redundancy matches the target without quantization bias.
  int r = effective_parity(cfg_.scheme, cfg_.parity_per_group);
  if (cfg_.adaptive) {
    const double ratio = std::min(cfg_.loss_safety * loss_ewma_, 1.0);
    const double r_real = ratio * cfg_.group_data_chunks;
    int base = static_cast<int>(r_real);
    const double frac = r_real - base;
    if (frac > 0.0 && adaptive_rng_.uniform_double() < frac) ++base;
    r = effective_parity(cfg_.scheme,
                         std::min(base, cfg_.adaptive_max_parity));
  }
  m.r = static_cast<std::uint16_t>(r);
  m.start = sim_.now();
  m.done = std::move(done);

  const std::uint32_t n_groups = (m.total_data + m.k - 1) / m.k;
  for (std::uint32_t g = 0; g < n_groups; ++g) {
    const std::uint32_t first = g * m.k;
    const std::uint32_t kg = std::min<std::uint32_t>(m.k, m.total_data - first);
    for (std::uint32_t i = 0; i < kg; ++i) {
      txq_.push_back({id, first + i, /*parity=*/false, /*retrans=*/false});
    }
    for (std::uint32_t p = 0; p < m.r; ++p) {
      txq_.push_back({id, (g << 8) | p, /*parity=*/true, /*retrans=*/false});
    }
    m.wire_pending += kg + m.r;
  }
  m.all_enqueued = true;

  ++stats_.msgs_initiated;
  obs_parity_level_->set(r);
  pump();
  return id;
}

void SdrEndpoint::pump() {
  while (wire_outstanding_ < cfg_.tx_depth && !txq_.empty()) {
    const TxChunk c = txq_.front();
    txq_.pop_front();
    auto it = tx_.find(c.msg_id);
    if (it == tx_.end()) continue;  // message completed/failed meanwhile
    post_chunk(it->second, c);
  }
}

void SdrEndpoint::post_chunk(TxMsg& m, const TxChunk& c) {
  auto d = std::make_shared<SdrDatagram>();
  d->type = SdrDatagram::Type::kChunk;
  d->msg_id = c.msg_id;
  d->msg_bytes = m.bytes;
  d->total_data_chunks = m.total_data;
  d->k = m.k;
  d->r = m.r;
  d->scheme = cfg_.scheme;
  d->parity = c.parity;
  d->retrans = c.retrans;
  d->app = m.app;
  std::uint32_t payload = 0;
  if (c.parity) {
    d->group = c.chunk >> 8;
    d->idx_in_group = static_cast<std::uint16_t>(c.chunk & 0xff);
    payload = chunk_payload_;  // parity shards are always full length
    ++stats_.parity_chunks_sent;
  } else {
    d->group = c.chunk / m.k;
    d->idx_in_group = static_cast<std::uint16_t>(c.chunk % m.k);
    payload = chunk_bytes(m.bytes, c.chunk);
    if (c.retrans) {
      ++stats_.retrans_chunks_sent;
    } else {
      ++stats_.data_chunks_sent;
    }
  }
  const std::uint64_t wire = kSdrHeaderBytes + payload;
  stats_.chunk_bytes_sent += wire;
  ++m.chunks_tx;
  ++wire_outstanding_;
  sim_.recorder().record(sim_.now(), sim::TraceKind::kSdrChunkSend,
                         trace_tag_, c.msg_id, c.chunk,
                         c.parity ? 1 : (c.retrans ? 2 : 0));
  qp_->post_send({.wr_id = c.msg_id, .length = wire, .app_payload = d},
                 m.dst);
}

void SdrEndpoint::send_ctrl(const ib::UdDest& to,
                            std::shared_ptr<SdrDatagram> d,
                            std::uint32_t wire_bytes) {
  // wr_id 0 marks control: not paced by (or counted against) tx_depth.
  qp_->post_send({.wr_id = 0, .length = wire_bytes, .app_payload = d}, to);
}

void SdrEndpoint::on_send_cqe(const ib::Cqe& cqe) {
  if (cqe.wr_id == 0) return;  // control datagram
  --wire_outstanding_;
  auto it = tx_.find(cqe.wr_id);
  if (it != tx_.end()) {
    TxMsg& m = it->second;
    if (m.wire_pending > 0) --m.wire_pending;
    if (m.wire_pending == 0 && m.all_enqueued && !m.probe_armed) {
      arm_probe_timer(it->first, m);
    }
  }
  pump();
}

void SdrEndpoint::arm_probe_timer(std::uint64_t msg_id, TxMsg& m) {
  const sim::Duration t = cfg_.probe_timeout
                          << std::min(m.probes, kMaxProbeShift);
  m.probe_armed = true;
  m.probe_timer = sim_.schedule(t, [this, msg_id] { probe_timer_fire(msg_id); });
}

void SdrEndpoint::probe_timer_fire(std::uint64_t msg_id) {
  auto it = tx_.find(msg_id);
  if (it == tx_.end()) return;
  TxMsg& m = it->second;
  m.probe_armed = false;
  if (m.wire_pending > 0) return;  // a NACK queued repairs; re-arms later
  ++m.probes;
  if (m.probes > cfg_.max_probes) {
    complete_tx(msg_id, m, /*ok=*/false);
    return;
  }
  auto d = std::make_shared<SdrDatagram>();
  d->type = SdrDatagram::Type::kProbe;
  d->msg_id = msg_id;
  d->msg_bytes = m.bytes;
  d->total_data_chunks = m.total_data;
  d->k = m.k;
  d->r = m.r;
  d->scheme = cfg_.scheme;
  ++stats_.probes_sent;
  sim_.recorder().record(sim_.now(), sim::TraceKind::kSdrProbe, trace_tag_,
                         msg_id, static_cast<std::uint64_t>(m.probes));
  send_ctrl(m.dst, std::move(d), kSdrCtrlBytes);
  arm_probe_timer(msg_id, m);
}

void SdrEndpoint::complete_tx(std::uint64_t msg_id, TxMsg& m, bool ok) {
  if (m.probe_armed) {
    sim_.cancel(m.probe_timer);
    m.probe_armed = false;
  }
  if (ok) {
    ++stats_.msgs_completed;
    obs_msg_ns_->observe(sim_.now() - m.start);
  } else {
    ++stats_.msgs_failed;
  }
  const CompletionFn done = std::move(m.done);
  tx_.erase(msg_id);
  if (done) done(ok);
}

void SdrEndpoint::update_loss_ewma(const TxMsg& m, std::uint64_t rx_chunks) {
  if (m.chunks_tx == 0) return;
  const double seen = std::min<double>(static_cast<double>(rx_chunks),
                                       static_cast<double>(m.chunks_tx));
  const double loss = 1.0 - seen / static_cast<double>(m.chunks_tx);
  loss_ewma_ = (1.0 - cfg_.ewma_alpha) * loss_ewma_ + cfg_.ewma_alpha * loss;
  obs_loss_ewma_ppm_->set(static_cast<std::int64_t>(loss_ewma_ * 1e6));
}

// --- receive path ----------------------------------------------------

void SdrEndpoint::on_recv_cqe(const ib::Cqe& cqe) {
  qp_->post_recv({.wr_id = cqe.wr_id, .max_length = hca_.config().mtu});
  const SdrDatagram& d = cqe.payload_as<SdrDatagram>();
  const RxKey key{rx_peer_key(cqe.src_lid, cqe.src_qpn), d.msg_id};
  const ib::UdDest src{.lid = cqe.src_lid, .qpn = cqe.src_qpn};
  switch (d.type) {
    case SdrDatagram::Type::kChunk:
      on_chunk(key, d, src);
      break;
    case SdrDatagram::Type::kNack:
      on_nack(d);
      break;
    case SdrDatagram::Type::kDone:
      on_done(d);
      break;
    case SdrDatagram::Type::kProbe:
      on_probe(key, d, src);
      break;
  }
}

SdrEndpoint::RxMsg& SdrEndpoint::ensure_rx(const RxKey& key,
                                           const SdrDatagram& d,
                                           const ib::UdDest& src) {
  auto it = rx_.find(key);
  if (it != rx_.end()) return it->second;
  RxMsg& m = rx_[key];
  m.src = src;
  m.msg_bytes = d.msg_bytes;
  m.total_data = d.total_data_chunks;
  m.k = d.k;
  m.r = d.r;
  m.scheme = d.scheme;
  const std::uint32_t n_groups = (m.total_data + m.k - 1) / m.k;
  m.groups.resize(n_groups);
  for (std::uint32_t g = 0; g < n_groups; ++g) {
    m.groups[g].data_present.assign(group_k(m, g), false);
    m.groups[g].parity_present.assign(m.r, false);
  }
  m.last_arrival = sim_.now();
  arm_nack_timer(key, m, cfg_.nack_timeout);
  return m;
}

std::uint32_t SdrEndpoint::group_k(const RxMsg& m, std::uint32_t g) const {
  return std::min<std::uint32_t>(m.k, m.total_data - g * m.k);
}

std::uint32_t SdrEndpoint::chunk_bytes(std::uint64_t msg_bytes,
                                       std::uint32_t chunk) const {
  const std::uint64_t offset =
      static_cast<std::uint64_t>(chunk) * chunk_payload_;
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(chunk_payload_, msg_bytes - offset));
}

void SdrEndpoint::on_chunk(const RxKey& key, const SdrDatagram& d,
                           const ib::UdDest& src) {
  if (rx_done_.count(key) != 0 || rx_abandoned_.count(key) != 0) {
    ++stats_.dup_chunks;
    return;
  }
  RxMsg& m = ensure_rx(key, d, src);
  // Receive state can be created by a probe (which carries no payload
  // descriptor); adopt it from the first chunk that brings one.
  if (m.app == nullptr && d.app != nullptr) m.app = d.app;
  ++m.rx_chunks;
  m.last_arrival = sim_.now();
  RxGroup& g = m.groups[d.group];
  bool fresh = false;
  if (g.decoded || g.decoding) {
    // Raced a local repair — the group no longer needs it.
  } else if (d.parity) {
    if (!g.parity_present[d.idx_in_group]) {
      g.parity_present[d.idx_in_group] = true;
      ++g.parity_have;
      ++stats_.parity_chunks_received;
      fresh = true;
    }
  } else {
    if (!g.data_present[d.idx_in_group]) {
      g.data_present[d.idx_in_group] = true;
      ++g.data_have;
      ++stats_.data_chunks_received;
      fresh = true;
    }
  }
  if (!fresh) {
    ++stats_.dup_chunks;
    return;
  }
  m.quiet_rounds = 0;
  try_decode_group(key, m, d.group);
}

void SdrEndpoint::try_decode_group(const RxKey& key, RxMsg& m,
                                   std::uint32_t g_idx) {
  RxGroup& g = m.groups[g_idx];
  const std::uint32_t kg = group_k(m, g_idx);
  if (g.decoded || g.decoding ||
      !recoverable(m.scheme, static_cast<int>(kg), g.data_have,
                   g.parity_have)) {
    return;
  }
  g.decoding = true;
  const std::uint32_t missing = kg - static_cast<std::uint32_t>(g.data_have);
  // Repair cost: one Gauss-Jordan backsolve per missing shard. A group
  // with no erasures decodes for free (systematic code).
  const sim::Duration cost = cfg_.decode_ns_per_chunk * missing;
  sim_.schedule(cost, [this, key, g_idx, missing, cost] {
    auto it = rx_.find(key);
    if (it == rx_.end()) return;  // abandoned while decoding
    RxMsg& msg = it->second;
    RxGroup& grp = msg.groups[g_idx];
    grp.decoding = false;
    grp.decoded = true;
    const std::uint32_t kg2 = group_k(msg, g_idx);
    stats_.chunks_repaired += missing;
    stats_.data_chunks_delivered += kg2;
    std::uint64_t bytes = 0;
    for (std::uint32_t i = 0; i < kg2; ++i) {
      bytes += chunk_bytes(msg.msg_bytes, g_idx * msg.k + i);
    }
    stats_.decoded_bytes += bytes;
    ++stats_.groups_decoded;
    stats_.decode_ns += cost;
    msg.repaired += missing;
    ++msg.groups_done;
    sim_.recorder().record(sim_.now(), sim::TraceKind::kSdrRepair, trace_tag_,
                           key.second, g_idx, missing);
    if (msg.groups_done == msg.groups.size()) finish_rx(key, msg);
  });
}

void SdrEndpoint::finish_rx(const RxKey& key, RxMsg& m) {
  if (m.nack_armed) {
    sim_.cancel(m.nack_timer);
    m.nack_armed = false;
  }
  ++stats_.msgs_delivered;
  stats_.msg_bytes_delivered += m.msg_bytes;
  sim_.recorder().record(sim_.now(), sim::TraceKind::kSdrMsgDone, trace_tag_,
                         key.second, m.msg_bytes, m.repaired);
  DoneInfo& info = rx_done_[key];
  info.src = m.src;
  info.rx_chunks = m.rx_chunks;
  info.repaired = m.repaired;
  const std::uint64_t msg_id = key.second;
  auto d = std::make_shared<SdrDatagram>();
  d->type = SdrDatagram::Type::kDone;
  d->msg_id = msg_id;
  d->rx_chunks = info.rx_chunks;
  d->repaired = info.repaired;
  ++stats_.dones_sent;
  const ib::UdDest src = m.src;
  const std::uint64_t msg_bytes = m.msg_bytes;
  const std::shared_ptr<const void> app = std::move(m.app);
  rx_.erase(key);
  send_ctrl(src, std::move(d), kSdrCtrlBytes);
  // Upper-layer hand-off last: the handler may send() right back on
  // this endpoint, and all message state is already retired above.
  if (on_deliver_) on_deliver_(src, msg_bytes, app);
}

void SdrEndpoint::arm_nack_timer(const RxKey& key, RxMsg& m,
                                 sim::Duration delay) {
  m.nack_armed = true;
  m.nack_timer = sim_.schedule(delay, [this, key] { nack_timer_fire(key); });
}

void SdrEndpoint::nack_timer_fire(const RxKey& key) {
  auto it = rx_.find(key);
  if (it == rx_.end()) return;
  RxMsg& m = it->second;
  m.nack_armed = false;
  const sim::Duration timeout =
      cfg_.nack_timeout << std::min(m.quiet_rounds, kMaxNackShift);
  const sim::Time deadline = m.last_arrival + timeout;
  if (sim_.now() < deadline) {  // traffic since arming: not quiet yet
    arm_nack_timer(key, m, deadline - sim_.now());
    return;
  }
  ++m.quiet_rounds;
  if (m.quiet_rounds > cfg_.max_nack_rounds) {
    ++stats_.msgs_abandoned;
    rx_abandoned_.insert(key);
    rx_.erase(key);
    return;
  }
  send_nack(key, m);
  arm_nack_timer(key, m,
                 cfg_.nack_timeout << std::min(m.quiet_rounds, kMaxNackShift));
}

void SdrEndpoint::send_nack(const RxKey& key, RxMsg& m) {
  const std::uint32_t cap =
      std::min(cfg_.max_nack_chunks,
               (hca_.config().mtu - kSdrCtrlBytes) / 4u);
  auto d = std::make_shared<SdrDatagram>();
  d->type = SdrDatagram::Type::kNack;
  d->msg_id = key.second;
  for (std::uint32_t g = 0;
       g < m.groups.size() && d->missing.size() < cap; ++g) {
    const RxGroup& grp = m.groups[g];
    if (grp.decoded || grp.decoding) continue;
    const std::uint32_t kg = group_k(m, g);
    for (std::uint32_t i = 0; i < kg && d->missing.size() < cap; ++i) {
      if (!grp.data_present[i]) d->missing.push_back(g * m.k + i);
    }
  }
  if (d->missing.empty()) return;  // everything is decoded or decoding
  ++stats_.nacks_sent;
  sim_.recorder().record(sim_.now(), sim::TraceKind::kSdrNackSend, trace_tag_,
                         key.second, d->missing.size());
  const std::uint32_t wire =
      kSdrCtrlBytes + 4u * static_cast<std::uint32_t>(d->missing.size());
  send_ctrl(m.src, std::move(d), wire);
}

void SdrEndpoint::on_nack(const SdrDatagram& d) {
  auto it = tx_.find(d.msg_id);
  if (it == tx_.end() || d.missing.empty()) return;
  TxMsg& m = it->second;
  ++stats_.nacks_received;
  // The receiver is alive and asking: reset the probe budget and push
  // the probe out until the repairs have drained onto the wire.
  m.probes = 0;
  if (m.probe_armed) {
    sim_.cancel(m.probe_timer);
    m.probe_armed = false;
  }
  // Selective repeat: retransmissions jump the queue ahead of fresh
  // messages (they gate an in-flight delivery).
  for (auto mi = d.missing.rbegin(); mi != d.missing.rend(); ++mi) {
    txq_.push_front({d.msg_id, *mi, /*parity=*/false, /*retrans=*/true});
    ++m.wire_pending;
  }
  pump();
}

void SdrEndpoint::on_done(const SdrDatagram& d) {
  auto it = tx_.find(d.msg_id);
  if (it == tx_.end()) return;  // duplicate DONE
  update_loss_ewma(it->second, d.rx_chunks);
  complete_tx(d.msg_id, it->second, /*ok=*/true);
}

void SdrEndpoint::on_probe(const RxKey& key, const SdrDatagram& d,
                           const ib::UdDest& src) {
  auto done_it = rx_done_.find(key);
  if (done_it != rx_done_.end()) {
    // The DONE was lost; replay it.
    auto reply = std::make_shared<SdrDatagram>();
    reply->type = SdrDatagram::Type::kDone;
    reply->msg_id = key.second;
    reply->rx_chunks = done_it->second.rx_chunks;
    reply->repaired = done_it->second.repaired;
    ++stats_.dones_sent;
    send_ctrl(done_it->second.src, std::move(reply), kSdrCtrlBytes);
    return;
  }
  if (rx_abandoned_.count(key) != 0) return;  // give up stays given up
  // A probe for a message we have partial (or no) state for: the tail —
  // possibly the whole message — was lost. The probe carries the full
  // geometry, so we can NACK everything still missing.
  RxMsg& m = ensure_rx(key, d, src);
  send_nack(key, m);
}

}  // namespace ibwan::sdr
