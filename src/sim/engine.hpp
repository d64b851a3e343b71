// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events fire in (time, insertion-sequence)
// order, so two runs with the same inputs produce identical traces and
// identical benchmark tables. Everything in the repository — links, switches,
// NIC DMA, CPU busy windows, thread wakeups — is expressed as events here.
//
// The queue is a Brown-style calendar queue. Events live in arena-allocated
// nodes (slab + freelist, never freed back to malloc) hashed by time into an
// array of doubly-linked buckets whose width adapts to the observed
// inter-event gap; enqueue, dequeue-min and cancel are O(1) amortized, and
// with EventFn's inline capture storage the steady-state event path performs
// no heap allocation at all. Same-time events land in the same bucket in seq
// order (a tail-append fast path makes same-time storms O(1) per event),
// preserving the FIFO tier bit-identically. Events beyond the current
// calendar year (far retransmit timers amid microsecond traffic) park on an
// unsorted overflow list — O(1) in, O(1) cancel — and migrate into the
// buckets when the year advances to them, so a bimodal time horizon cannot
// wrap the table and degrade the active window's bucket lists.
//
// Two guards hold the queue to the (time, seq) contract: step() asserts
// that every fired key is strictly greater than the last one fired, and
// tests/sim/test_engine.cpp diffs the engine against a std::set reference
// queue (the seed's std::map ordering) event for event.
//
// EventIds pack (slot, generation) so cancel() is one array index plus a
// generation compare — no map lookups — and stale ids (fired, cancelled,
// or slot since reused) are rejected safely.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "sim/event_fn.hpp"

namespace ncs::sim {

/// Handle for cancellation. 0 is never a valid id.
using EventId = std::uint64_t;

class Engine {
 public:
  Engine();
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must not be in the past).
  EventId schedule_at(TimePoint t, EventFn fn);

  /// Schedules `fn` at now + d.
  EventId schedule_after(Duration d, EventFn fn) { return schedule_at(now_ + d, std::move(fn)); }

  /// Schedules `fn` to run after all events already queued for `now`.
  EventId post(EventFn fn) { return schedule_after(Duration::zero(), std::move(fn)); }

  /// Cancels a pending event. Returns false if it already fired or was
  /// cancelled (safe to call with stale ids, including from inside the
  /// cancelled event's own callback).
  bool cancel(EventId id);

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains. Returns the number of events processed.
  std::uint64_t run();

  /// Runs events with time <= deadline; advances the clock to `deadline`
  /// even if the queue drains earlier. Returns events processed.
  std::uint64_t run_until(TimePoint deadline);

  bool empty() const { return pending() == 0; }
  std::size_t pending() const { return n_pending_; }
  std::uint64_t processed() const { return processed_; }

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t resizes = 0;       // calendar bucket-array rebuilds
    std::size_t peak_pending = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Calendar introspection.
  std::size_t bucket_count() const { return buckets_.size(); }
  std::int64_t bucket_width_ps() const { return width_ps_; }
  /// Events at or past this time wait in the overflow bag; earlier ones
  /// sit in the buckets.
  std::int64_t overflow_limit_ps() const { return overflow_limit_ps_; }

 private:
  struct Event {
    std::int64_t time_ps = 0;
    std::uint64_t seq = 0;  // insertion order; the determinism tiebreak
    Event* next = nullptr;
    Event* prev = nullptr;
    std::uint32_t gen = 1;  // bumped on free; stale-id detector
    std::uint32_t slot = 0;
    std::uint32_t ovf_idx = 0;  // position in overflow_ while parked there
    bool queued = false;
    bool in_overflow = false;  // parked in the far-future overflow bag
    EventFn fn;
  };

  struct Bucket {
    Event* head = nullptr;
    Event* tail = nullptr;
  };

  static constexpr std::size_t kMinBuckets = 16;  // power of two
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  static constexpr std::size_t kMaxSample = 1024;  // geometry-fit sample cap
  static constexpr std::size_t kSlabEvents = 256;

  /// (time, seq) strict ordering — the one total order everything obeys.
  static bool before(const Event& a, const Event& b) {
    return a.time_ps != b.time_ps ? a.time_ps < b.time_ps : a.seq < b.seq;
  }

  std::size_t bucket_of(std::int64_t time_ps) const {
    return (static_cast<std::uint64_t>(time_ps) / static_cast<std::uint64_t>(width_ps_)) &
           (buckets_.size() - 1);
  }

  Event* alloc_event();
  void free_event(Event* e);
  void bucket_insert(Event* e);
  void bucket_unlink(Event* e);
  void overflow_push(Event* e);
  void overflow_unlink(Event* e);
  /// Re-anchors the calendar year at the earliest overflow event and moves
  /// every overflow event inside the new year into the buckets. Called when
  /// the calendar drains while far-future events remain parked.
  void migrate_overflow();
  /// Locates the pending minimum (caching its bucket); null when empty.
  Event* find_min();
  /// Pops a node previously returned by find_min().
  void pop(Event* e);
  void maybe_resize();
  /// Refits the whole calendar geometry — bucket width, table size and the
  /// overflow limit — from one strided sample of every pending event, then
  /// re-files all of them. Width and table size are chosen *together* so
  /// the year (width x buckets) always covers the near event cluster:
  /// adapting them independently lets a width change shrink the year under
  /// the active window and re-park everything a migration just pulled in.
  void rebuild();

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  Stats stats_;
  /// (time, seq) key of the last fired event; step() asserts each fired
  /// key is strictly greater. Seqs start at 1, so {0, 0} precedes all.
  std::int64_t last_fired_ps_ = 0;
  std::uint64_t last_fired_seq_ = 0;

  std::vector<Bucket> buckets_;
  std::int64_t width_ps_ = 0;
  std::size_t n_pending_ = 0;   // calendar + overflow
  std::size_t n_calendar_ = 0;  // events hashed into buckets_
  std::size_t n_overflow_ = 0;  // events parked in overflow_
  /// Non-empty buckets. The table is sized against this, not n_calendar_:
  /// quantized workloads pile dozens of same-instant events into one bucket
  /// (where they cost O(1) via the tail-append path), and sizing against
  /// the raw event count would rebuild an O(n) table every burst for
  /// buckets that stay empty.
  std::size_t n_occupied_ = 0;
  /// Wasted work since the last rebuild: sorted-insert list steps in
  /// bucket_insert plus empty buckets visited by find_min, each in excess
  /// of the 1-2 per operation a well-fitted table does anyway (charging
  /// the healthy baseline would trip the budget at a fixed period and
  /// rebuild a perfect geometry forever). A miss-fitted
  /// geometry always shows up as one of the two (width too wide -> long
  /// insert walks; width too narrow or table oversized -> long empty
  /// scans), so the refit triggers on this measured cost, not on
  /// population thresholds — which ties the O(n) rebuild to O(n) observed
  /// waste and makes the amortization self-enforcing.
  std::uint64_t wasted_steps_ = 0;
  /// Times >= this sit in the unsorted overflow bag instead of the
  /// buckets, so one far timer horizon (an RTO months of bucket-years away
  /// from microsecond traffic) never wraps around the table and interleaves
  /// with the active window's bucket lists. Calendar events are < this;
  /// overflow events are >= this — so whenever the calendar is non-empty
  /// its minimum is the global minimum.
  std::int64_t overflow_limit_ps_ = 0;
  /// The far-future bag: unordered, swap-remove on cancel (each parked
  /// event records its index). A timer re-arm cancelling a minutes-old
  /// cold event then touches two cache lines, not the three a linked
  /// unlink costs, and rebuild() detaches the bag with a sequential scan.
  std::vector<Event*> overflow_;
  int cached_min_bucket_ = -1;  // bucket whose head is the global min
  std::vector<std::unique_ptr<Event[]>> slabs_;
  std::vector<Event*> slots_;
  Event* free_head_ = nullptr;
  /// rebuild() detaches every pending event into this packed array and
  /// sorts it by (time, seq) before re-filing. Sorting 24-byte entries is
  /// cheap next to touching the nodes, and it makes every reinsertion a
  /// tail append — an unlucky detach order against long same-bucket
  /// chains would otherwise make the refill itself quadratic.
  struct Refile {
    std::int64_t time_ps;
    std::uint64_t seq;
    Event* e;
  };
  std::vector<Refile> refile_scratch_;
};

}  // namespace ncs::sim
