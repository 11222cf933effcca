#include "sim/trace.hpp"

#include <algorithm>

namespace ibwan::sim {

namespace {
void copy_padded(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src)
    for (; i + 1 < cap && src[i]; ++i) dst[i] = src[i];
  dst[i] = '\0';
}
}  // namespace

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPktSend: return "pkt-send";
    case TraceKind::kPktDeliver: return "pkt-deliver";
    case TraceKind::kPktDrop: return "pkt-drop";
    case TraceKind::kAckSend: return "ack-send";
    case TraceKind::kAckRecv: return "ack-recv";
    case TraceKind::kNakSend: return "nak-send";
    case TraceKind::kRetransmit: return "retransmit";
    case TraceKind::kRtoFire: return "rto-fire";
    case TraceKind::kWindowStall: return "window-stall";
    case TraceKind::kWindowResume: return "window-resume";
    case TraceKind::kCwndStall: return "cwnd-stall";
    case TraceKind::kRwndStall: return "rwnd-stall";
    case TraceKind::kFastRetransmit: return "fast-retransmit";
    case TraceKind::kTcpRto: return "tcp-rto";
    case TraceKind::kEagerSend: return "eager-send";
    case TraceKind::kRndvRts: return "rndv-rts";
    case TraceKind::kRndvCts: return "rndv-cts";
    case TraceKind::kRndvFin: return "rndv-fin";
    case TraceKind::kBcastStart: return "bcast-start";
    case TraceKind::kBcastDone: return "bcast-done";
    case TraceKind::kRpcIssue: return "rpc-issue";
    case TraceKind::kRpcComplete: return "rpc-complete";
    case TraceKind::kChunkIssue: return "chunk-issue";
    case TraceKind::kChunkComplete: return "chunk-complete";
    case TraceKind::kLinkDown: return "link-down";
    case TraceKind::kLinkUp: return "link-up";
    case TraceKind::kBrownoutStart: return "brownout-start";
    case TraceKind::kBrownoutEnd: return "brownout-end";
    case TraceKind::kQpError: return "qp-error";
    case TraceKind::kSdrChunkSend: return "sdr-chunk-send";
    case TraceKind::kSdrNackSend: return "sdr-nack-send";
    case TraceKind::kSdrRepair: return "sdr-repair";
    case TraceKind::kSdrMsgDone: return "sdr-msg-done";
    case TraceKind::kSdrProbe: return "sdr-probe";
  }
  return "?";
}

std::string TraceEvent::format() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "[%12.3fus] %-15s %s: a=%llu b=%llu c=%llu",
                to_microseconds(time), trace_kind_name(kind), tag,
                static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(c));
  return buf;
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

void FlightRecorder::arm() {
  if (ring_.empty()) ring_.resize(capacity_);
  armed_ = true;
}

void FlightRecorder::disarm() { armed_ = false; }

void FlightRecorder::set_capacity(std::size_t capacity) {
  capacity_ = std::max<std::size_t>(capacity, 1);
  ring_.clear();
  if (armed_) ring_.resize(capacity_);
  head_ = 0;
  recorded_ = 0;
}

void FlightRecorder::record(Time now, TraceKind kind, const char* tag,
                            std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) {
  if (!armed_) return;
  TraceEvent& e = ring_[head_];
  head_ = (head_ + 1) % capacity_;
  ++recorded_;
  e.time = now;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.c = c;
  copy_padded(e.tag, sizeof(e.tag), tag);
}

std::size_t FlightRecorder::size() const {
  return recorded_ < capacity_ ? static_cast<std::size_t>(recorded_)
                               : capacity_;
}

std::vector<TraceEvent> FlightRecorder::events() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest event: head_ when the ring has wrapped, slot 0 otherwise.
  const std::size_t start = recorded_ < capacity_ ? 0 : head_;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(ring_[(start + i) % capacity_]);
  return out;
}

void FlightRecorder::dump(std::FILE* out) const {
  const auto evs = events();
  std::fprintf(out, "--- flight recorder: %zu event(s) held, %llu recorded ---\n",
               evs.size(), static_cast<unsigned long long>(recorded_));
  for (const auto& e : evs) std::fprintf(out, "%s\n", e.format().c_str());
}

void FlightRecorder::clear() {
  head_ = 0;
  recorded_ = 0;
}

}  // namespace ibwan::sim
