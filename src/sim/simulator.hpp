// Discrete-event simulation engine.
//
// A Simulator owns a time-ordered event queue. Events are arbitrary
// callbacks; ties are broken by insertion order so runs are fully
// deterministic. Everything in the library (links, HCAs, TCP timers,
// MPI progress) is driven by this one clock.
//
// Two structures back the queue, both feeding off one slot pool that
// stores the callbacks, and lanes keep most per-packet events out of
// them:
//
//   - an indexed 4-ary min-heap over (time, seq) for future events.
//     Heap entries are 16-byte PODs (time, seq|slot packed), so the four
//     children scanned per sift level share one cache line and sifting
//     never moves a callback. Each slot records its heap position, so
//     cancel() removes the event in place in O(log n) — no tombstone
//     set, no deferred garbage — and cancelling a stale id is an O(1)
//     generation-check no-op.
//
//   - a same-instant FIFO for events scheduled at exactly `now()` (the
//     coroutine layer and completion dispatch produce these in bulk).
//     They never touch the heap: append and fire are O(1), and the
//     global sequence number keeps their ordering against heap events
//     bit-for-bit identical to a single queue.
//
//   - FIFO lanes (Simulator::Lane) for per-packet streams whose times
//     never decrease — a link's deliveries, a fixed-latency hop. Only a
//     lane's head is queued; the rest wait in the lane with the sequence
//     number they took at schedule time, so a long WAN pipe with
//     thousands of packets in flight keeps the heap small.
//
// Freed slots recycle through a free list and callbacks are
// InlineFunction (see inline_function.hpp), so steady-state traffic —
// schedule/fire/cancel churn with captures up to 48 bytes — runs with
// zero heap allocations and zero callback moves on the schedule path.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace ibwan::sim {

/// Handle identifying a scheduled event; usable with Simulator::cancel().
/// Encodes (slot generation << 32 | slot index); generations start at 1,
/// so a forged small-integer id never matches a live event.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = InlineFunction;

  /// An engine-owned FIFO of events whose times never decrease. Only
  /// the head sits in the heap; when it fires, the next entry enters the
  /// heap with the (time, seq) key it took at schedule time. Each lane's
  /// head is its minimum, so the heap top stays the global minimum and
  /// firing order is bit-identical to scheduling every entry directly.
  /// Lane events cannot be cancelled.
  class Lane {
   public:
    Lane(const Lane&) = delete;
    Lane& operator=(const Lane&) = delete;

    /// Same contract as Simulator::schedule_at. A time earlier than the
    /// lane's tail (WAN jitter, a delay cut mid-run) falls back to a
    /// plain event with the same sequence number.
    template <typename F>
    void schedule_at(Time t, F&& cb) {
      if (!head_pending_) {
        // An idle lane's event is an ordinary one (heap or same-instant
        // FIFO) whose key carries the lane flag, so firing it promotes.
        head_pending_ = true;
        tail_ = t;
        const std::uint32_t slot = sim_.store(std::forward<F>(cb));
        sim_.enqueue(t, sim_.lane_key(sim_.take_seq(), slot, this));
      } else if (t < tail_) {
        sim_.schedule_at(t, std::forward<F>(cb));
      } else {
        tail_ = t;
        Entry& e = q_.emplace_back();
        e.time = t;
        e.seq = sim_.take_seq();
        e.cb.emplace(std::forward<F>(cb));
        ++sim_.lane_backlog_;
      }
    }

    template <typename F>
    void schedule(Duration delay, F&& cb) {
      schedule_at(sim_.now_ + delay, std::forward<F>(cb));
    }

   private:
    friend class Simulator;
    explicit Lane(Simulator& sim) : sim_(sim) {}

    struct Entry {
      Time time = 0;
      std::uint64_t seq = 0;
      Callback cb;
    };

    /// The head just fired: the next entry goes straight into the heap,
    /// never the same-instant FIFO, whose keys must stay in append order
    /// (fire_one() orders a heap entry against the FIFO front by key).
    void promote() {
      if (q_.empty()) {
        head_pending_ = false;
        return;
      }
      Entry& e = q_.front();
      const std::uint32_t slot = sim_.store(std::move(e.cb));
      sim_.heap_push(HeapEntry{e.time, sim_.lane_key(e.seq, slot, this)});
      q_.pop_front();
      --sim_.lane_backlog_;
    }

    Simulator& sim_;
    std::deque<Entry> q_;  // entries behind the head
    Time tail_ = 0;        // latest time in the lane, head included
    bool head_pending_ = false;
  };

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` ns from now. Returns a cancellable id.
  /// Accepts any void() callable; captures are constructed in place.
  template <class F>
  EventId schedule(Duration delay, F&& cb) {
    return schedule_at(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules `cb` at absolute time `t` (must not be in the past).
  template <class F>
  EventId schedule_at(Time t, F&& cb) {
    const std::uint32_t slot = store(std::forward<F>(cb));
    enqueue(t, (take_seq() << kSlotBits) | slot);
    return make_id(slot, slots_[slot].gen);
  }

  /// A new FIFO lane, owned by (and living as long as) this simulator.
  Lane& make_lane() {
    lanes_.push_back(std::unique_ptr<Lane>(new Lane(*this)));
    return *lanes_.back();
  }

  /// Cancels a pending event in place (O(log n) for future events, O(1)
  /// for same-instant ones). Cancelling an already-run or unknown id is
  /// an O(1) no-op (timers commonly race with the work they guard); it
  /// leaves no residue behind, and the captured state is destroyed
  /// immediately.
  void cancel(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    // A generation match implies the event is pending: both firing and
    // cancellation bump the slot's generation when they release it.
    if (slot >= slots_.size() || slots_[slot].gen != gen) return;
    Slot& s = slots_[slot];
    if (s.pos == kInFifo) {
      // The FIFO entry stays behind; the generation bump below marks it
      // stale and the drain skips it. Bounded: the FIFO never outlives
      // the current instant.
      --fifo_live_;
    } else {
      remove_at(s.pos);
    }
    s.cb.reset();
    free_slot(slot);
  }

  /// Runs until the event queue drains.
  void run() {
    while (next_event_time() != kNoEvent) fire_one();
  }

  /// Runs events with time <= t, then advances the clock to exactly t.
  /// Returns true if events remain scheduled after t.
  bool run_until(Time t) {
    for (;;) {
      const Time nt = next_event_time();
      if (nt == kNoEvent || nt > t) break;
      fire_one();
    }
    if (now_ < t) now_ = t;
    return pending() > 0;
  }

  /// Runs for `d` ns of simulated time from the current instant.
  bool run_for(Duration d) { return run_until(now_ + d); }

  /// Executes the next event, if any. Returns false when the queue is empty.
  bool step() {
    if (next_event_time() == kNoEvent) return false;
    fire_one();
    return true;
  }

  /// Sentinel returned by peek_next_time() when the queue is empty.
  static constexpr Time kNoEventTime = ~Time{0};

  /// Time of the earliest pending event, or kNoEventTime when idle.
  /// Used by the site-parallel engine (engine.hpp) to compute the
  /// global safe horizon.
  Time peek_next_time() { return next_event_time(); }

  /// Fires events with time strictly below `h`, leaving the clock at
  /// the last fired event (the clock does NOT advance to h — an event
  /// scheduled exactly at the horizon belongs to the next window and
  /// may still be preceded by cross-site arrivals at the same instant).
  /// Returns the number of events fired.
  std::uint64_t run_events_before(Time h) {
    std::uint64_t fired = 0;
    for (;;) {
      const Time nt = next_event_time();
      if (nt == kNoEvent || nt >= h) break;
      fire_one();
      ++fired;
    }
    return fired;
  }

  /// Number of events executed so far (for performance reporting).
  std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending (cancelled events excluded),
  /// including those waiting behind a lane head.
  std::size_t pending() const {
    return heap_.size() + fifo_live_ + lane_backlog_;
  }

  /// Total callback slots ever allocated. Bounded by the maximum number
  /// of *concurrently* pending events — it must not grow with the number
  /// of schedule/fire/cancel operations (regression hook for the old
  /// tombstone-set leak).
  std::size_t slot_capacity() const { return slots_.size(); }

  /// Simulator-owned RNG so all stochastic behaviour shares one seed.
  Rng& rng() { return rng_; }
  void seed(std::uint64_t s) {
    seed_ = s;
    rng_.reseed(s);
  }

  /// Independent RNG derived from the run seed and a stream name
  /// (FNV-1a). Consumers that must not perturb the main stream — fault
  /// injection, optional instrumentation — draw from their own named
  /// stream, so enabling them leaves rng()'s sequence untouched.
  Rng rng_stream(std::string_view name) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    // NOLINT-IBWAN(DET004): this IS the stream factory — the state is
    // overwritten from the run seed on the next line
    Rng r;
    r.reseed(seed_ ^ h);
    return r;
  }

  /// Per-run observability (docs/METRICS.md): every layer registers
  /// its instruments here. Disabled by default — enabling must not
  /// change simulated behaviour, only record it.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Per-run packet flight recorder; disarmed by default.
  FlightRecorder& recorder() { return recorder_; }

 private:
  // seq gets 40 bits (~10^12 events per run); the low 24 hold a lane
  // flag and the slot (8M concurrently pending events). seq is unique, so
  // the low bits never influence ordering; they just ride along to keep
  // the entry at 16 B.
  static constexpr unsigned kSlotBits = 24;
  static constexpr unsigned kSeqBits = 64 - kSlotBits;
  static constexpr std::uint32_t kLaneBit = 1u << (kSlotBits - 1);
  static constexpr std::uint32_t kSlotMask = kLaneBit - 1;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  static constexpr std::uint32_t kInFifo = 0xfffffffeu;
  static constexpr Time kNoEvent = ~Time{0};

  struct HeapEntry {
    Time time;
    std::uint64_t key;  // (seq << kSlotBits) | slot
    std::uint32_t slot() const {
      return static_cast<std::uint32_t>(key) & kSlotMask;
    }
  };
  static_assert(sizeof(HeapEntry) == 16);

  struct FifoEntry {
    std::uint64_t key;  // same packing as HeapEntry::key
    std::uint32_t gen;  // stale (cancelled / slot reused) when != slot gen
  };

  struct Slot {
    std::uint32_t gen = 1;
    std::uint32_t pos = kNone;  // heap position / kInFifo while pending,
                                // free-list link while free
    Callback cb;
  };
  static_assert(sizeof(Slot) == 64, "one event slot per cache line");

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  std::uint64_t take_seq() {
    assert(next_seq_ < (1ull << kSeqBits) && "event sequence space exhausted");
    return next_seq_++;
  }

  /// Puts `cb` in a free slot; returns the slot.
  template <typename F>
  std::uint32_t store(F&& cb) {
    const std::uint32_t slot = alloc_slot();
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      slots_[slot].cb = std::forward<F>(cb);
    } else {
      slots_[slot].cb.emplace(std::forward<F>(cb));
    }
    return slot;
  }

  /// Queues the stored event `key` at time `t`.
  void enqueue(Time t, std::uint64_t key) {
    assert(t >= now_ && "cannot schedule into the past");
    if (t == now_) {
      // Same-instant dispatch: O(1) FIFO append, no heap traffic. The
      // FIFO only ever holds events for the current instant — the heap
      // is never fired past a live FIFO entry, so time cannot advance
      // while one is pending.
      assert(fifo_head_ == fifo_.size() || fifo_time_ == now_);
      fifo_time_ = now_;
      Slot& s = slots_[static_cast<std::uint32_t>(key) & kSlotMask];
      s.pos = kInFifo;
      fifo_.push_back(FifoEntry{key, s.gen});
      ++fifo_live_;
    } else {
      heap_push(HeapEntry{t, key});
    }
  }

  void heap_push(const HeapEntry& e) {
    heap_.emplace_back();  // open a hole; sift_up fills it
    sift_up(heap_.size() - 1, e);
  }

  /// Key of a lane head; records which lane to promote when it fires.
  std::uint64_t lane_key(std::uint64_t seq, std::uint32_t slot, Lane* lane) {
    if (slot >= slot_lane_.size()) slot_lane_.resize(slots_.size());
    slot_lane_[slot] = lane;
    return (seq << kSlotBits) | kLaneBit | slot;
  }

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.time != b.time ? a.time < b.time : a.key < b.key;
  }

  /// Time of the next live event (kNoEvent if none), popping any stale
  /// cancelled entries off the FIFO front on the way.
  Time next_event_time() {
    while (fifo_head_ != fifo_.size()) {
      const FifoEntry& e = fifo_[fifo_head_];
      if (slots_[static_cast<std::uint32_t>(e.key) & kSlotMask].gen == e.gen) {
        return fifo_time_;  // never later than any heap event
      }
      pop_fifo_front();
    }
    return heap_.empty() ? kNoEvent : heap_[0].time;
  }

  /// Fires the earliest live event. Precondition: next_event_time() was
  /// just called and did not return kNoEvent (so a live FIFO entry, if
  /// any, sits exactly at the FIFO front).
  void fire_one() {
    if (fifo_head_ != fifo_.size()) {
      const FifoEntry e = fifo_[fifo_head_];
      // A heap event at the same instant with a smaller sequence number
      // was scheduled earlier and must fire first.
      if (heap_.empty() || heap_[0].time > fifo_time_ ||
          heap_[0].key > e.key) {
        pop_fifo_front();
        --fifo_live_;
        const std::uint32_t slot = static_cast<std::uint32_t>(e.key) & kSlotMask;
        Slot& s = slots_[slot];
        assert(fifo_time_ == now_);
        Callback cb = std::move(s.cb);
        free_slot(slot);
        if (e.key & kLaneBit) slot_lane_[slot]->promote();
        ++executed_;
        cb();
        return;
      }
    }
    fire_top();
  }

  void pop_fifo_front() {
    if (++fifo_head_ == fifo_.size()) {
      fifo_.clear();
      fifo_head_ = 0;
    }
  }

  std::uint32_t alloc_slot() {
    if (free_head_ != kNone) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].pos;
      return slot;
    }
    if (slots_.size() > kSlotMask) {
      std::fprintf(stderr, "Simulator: > %u concurrently pending events\n",
                   kSlotMask);
      std::abort();
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void free_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;  // invalidates outstanding EventIds for this slot
    s.pos = free_head_;
    free_head_ = slot;
  }

  // sift_up/sift_down place `e` starting the search at position `i`,
  // whose current contents the caller has already saved or vacated.
  void sift_up(std::size_t i, const HeapEntry& e) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      slots_[heap_[i].slot()].pos = static_cast<std::uint32_t>(i);
      i = parent;
    }
    heap_[i] = e;
    slots_[e.slot()].pos = static_cast<std::uint32_t>(i);
  }

  void sift_down(std::size_t i, const HeapEntry& e) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best;
      if (first + 4 <= n) {
        // Full fan-out (the common case): tournament min — the two
        // halves compare independently, halving the serial chain.
        const std::size_t b01 =
            earlier(heap_[first + 1], heap_[first]) ? first + 1 : first;
        const std::size_t b23 =
            earlier(heap_[first + 3], heap_[first + 2]) ? first + 3 : first + 2;
        best = earlier(heap_[b23], heap_[b01]) ? b23 : b01;
      } else {
        best = first;
        for (std::size_t c = first + 1; c < n; ++c) {
          if (earlier(heap_[c], heap_[best])) best = c;
        }
      }
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      slots_[heap_[i].slot()].pos = static_cast<std::uint32_t>(i);
      i = best;
    }
    heap_[i] = e;
    slots_[e.slot()].pos = static_cast<std::uint32_t>(i);
  }

  /// Removes the entry at heap position `pos`, refilling the hole with
  /// the last entry.
  void remove_at(std::size_t pos) {
    const HeapEntry moved = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) return;  // removed the last entry
    // The replacement may need to travel either direction.
    if (pos > 0 && earlier(moved, heap_[(pos - 1) / 4])) {
      sift_up(pos, moved);
    } else {
      sift_down(pos, moved);
    }
  }

  void fire_top() {
    const HeapEntry top = heap_[0];
    const std::uint32_t slot = top.slot();
    Slot& s = slots_[slot];
    assert(top.time >= now_);
    now_ = top.time;
    Callback cb = std::move(s.cb);
    // Pop the root: refill with the last entry.
    const HeapEntry moved = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, moved);
    // Free before invoking so (a) the callback can recycle the slot for
    // events it schedules and (b) cancel() of the firing event's own id
    // from inside the callback is a generation-checked no-op. A lane
    // head hands its place to the next entry before it runs.
    free_slot(slot);
    if (top.key & kLaneBit) slot_lane_[slot]->promote();
    ++executed_;
    cb();
  }

  std::vector<HeapEntry> heap_;
  std::vector<FifoEntry> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_live_ = 0;
  Time fifo_time_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNone;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<Lane*> slot_lane_;  // lane of each lane-head slot
  std::size_t lane_backlog_ = 0;  // lane entries behind their heads
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t seed_ = 0x9e3779b97f4a7c15ULL;  // Rng's default seed
  Rng rng_;
  MetricsRegistry metrics_;
  FlightRecorder recorder_;
};

}  // namespace ibwan::sim
