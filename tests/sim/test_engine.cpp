#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"

namespace ncs::sim {
namespace {

using namespace ncs::literals;

// The seed's std::map<(time, seq)> event queue, kept as the oracle the
// calendar queue is checked against: a sorted set of (time, seq) keys plus
// an id -> pending-event map. Ids are insertion seqs, so a fired or
// cancelled id is simply absent from `pending_`.
class ReferenceEngine {
 public:
  TimePoint now() const { return now_; }

  EventId schedule_at(TimePoint t, EventFn fn) {
    NCS_ASSERT_MSG(t >= now_, "scheduling an event in the past");
    const EventId id = next_seq_++;
    order_.emplace(t.ps(), id);
    pending_.emplace(id, Pending{t.ps(), std::move(fn)});
    return id;
  }
  EventId schedule_after(Duration d, EventFn fn) { return schedule_at(now_ + d, std::move(fn)); }
  EventId post(EventFn fn) { return schedule_after(Duration::zero(), std::move(fn)); }

  bool cancel(EventId id) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return false;
    order_.erase({it->second.time_ps, id});
    pending_.erase(it);  // releases the capture now, as Engine does
    return true;
  }

  bool step() {
    if (order_.empty()) return false;
    const auto [time_ps, id] = *order_.begin();
    order_.erase(order_.begin());
    auto node = pending_.extract(id);  // retired before firing: self-cancel is stale
    now_ = TimePoint::from_ps(time_ps);
    ++processed_;
    node.mapped().fn();
    return true;
  }

  std::uint64_t run() {
    const std::uint64_t start = processed_;
    while (step()) {
    }
    return processed_ - start;
  }

  std::uint64_t run_until(TimePoint deadline) {
    const std::uint64_t start = processed_;
    while (!order_.empty() && order_.begin()->first <= deadline.ps()) step();
    if (now_ < deadline) now_ = deadline;
    return processed_ - start;
  }

  bool empty() const { return order_.empty(); }
  std::size_t pending() const { return order_.size(); }
  std::uint64_t processed() const { return processed_; }

 private:
  struct Pending {
    std::int64_t time_ps;
    EventFn fn;
  };
  std::set<std::pair<std::int64_t, EventId>> order_;  // (time, seq)
  std::unordered_map<EventId, Pending> pending_;
  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
};

enum class Backend { calendar, reference };

// One engine of either backend behind the surface the behavioural tests call.
class AnyEngine {
 public:
  explicit AnyEngine(Backend b) {
    if (b == Backend::calendar) {
      cal_.emplace();
    } else {
      ref_.emplace();
    }
  }
  TimePoint now() const { return cal_ ? cal_->now() : ref_->now(); }
  EventId schedule_after(Duration d, EventFn fn) {
    return cal_ ? cal_->schedule_after(d, std::move(fn)) : ref_->schedule_after(d, std::move(fn));
  }
  EventId post(EventFn fn) { return cal_ ? cal_->post(std::move(fn)) : ref_->post(std::move(fn)); }
  bool cancel(EventId id) { return cal_ ? cal_->cancel(id) : ref_->cancel(id); }
  bool step() { return cal_ ? cal_->step() : ref_->step(); }
  std::uint64_t run() { return cal_ ? cal_->run() : ref_->run(); }
  std::uint64_t run_until(TimePoint t) { return cal_ ? cal_->run_until(t) : ref_->run_until(t); }
  bool empty() const { return cal_ ? cal_->empty() : ref_->empty(); }
  std::size_t pending() const { return cal_ ? cal_->pending() : ref_->pending(); }
  std::uint64_t processed() const { return cal_ ? cal_->processed() : ref_->processed(); }

 private:
  std::optional<Engine> cal_;
  std::optional<ReferenceEngine> ref_;
};

// Every behavioural test runs against the calendar queue and the reference
// queue. The reference instance keeps the test IDs it had when the engine
// still carried the std::map backend it replaces.
class EngineTest : public ::testing::TestWithParam<Backend> {
 protected:
  AnyEngine e{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Backends, EngineTest,
                         ::testing::Values(Backend::calendar, Backend::reference),
                         [](const auto& pinfo) {
                           return pinfo.param == Backend::calendar ? "calendar" : "legacy_map";
                         });

TEST_P(EngineTest, StartsAtOriginEmpty) {
  EXPECT_EQ(e.now(), TimePoint::origin());
  EXPECT_TRUE(e.empty());
  EXPECT_FALSE(e.step());
}

TEST_P(EngineTest, EventsFireInTimeOrder) {
  std::vector<int> order;
  e.schedule_after(3_us, [&] { order.push_back(3); });
  e.schedule_after(1_us, [&] { order.push_back(1); });
  e.schedule_after(2_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), TimePoint::origin() + 3_us);
}

TEST_P(EngineTest, SameTimeEventsFireInInsertionOrder) {
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule_after(5_us, [&, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST_P(EngineTest, PostRunsAfterQueuedNowEvents) {
  std::vector<int> order;
  e.schedule_after(0_us, [&] { order.push_back(1); });
  e.post([&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_P(EngineTest, EventsCanScheduleMoreEvents) {
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) e.schedule_after(1_us, chain);
  };
  e.schedule_after(1_us, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(e.now(), TimePoint::origin() + 5_us);
}

TEST_P(EngineTest, CancelPreventsFiring) {
  bool fired = false;
  const EventId id = e.schedule_after(1_us, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_FALSE(fired);
}

TEST_P(EngineTest, CancelAfterFireReturnsFalse) {
  const EventId id = e.schedule_after(1_us, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST_P(EngineTest, DoubleCancelReturnsFalse) {
  const EventId id = e.schedule_after(1_us, [] {});
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));
  e.run();
}

TEST_P(EngineTest, CancelOneOfManyAtSameTime) {
  std::vector<int> order;
  e.schedule_after(1_us, [&] { order.push_back(1); });
  const EventId id = e.schedule_after(1_us, [&] { order.push_back(2); });
  e.schedule_after(1_us, [&] { order.push_back(3); });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// --- cancel-from-inside-a-callback audit (pinned before the calendar port:
// --- the id→slot mapping retires *before* the callback runs) ---

TEST_P(EngineTest, SelfCancelFromOwnCallbackReturnsFalse) {
  EventId id = 0;
  bool self_cancel_result = true;
  id = e.schedule_after(1_us, [&] { self_cancel_result = e.cancel(id); });
  e.run();
  EXPECT_FALSE(self_cancel_result);  // the firing event is no longer pending
  EXPECT_FALSE(e.cancel(id));
}

TEST_P(EngineTest, CancelSameTimeSiblingFromCallback) {
  std::vector<int> order;
  EventId sibling = 0;
  e.schedule_after(1_us, [&] {
    order.push_back(1);
    EXPECT_TRUE(e.cancel(sibling));   // still pending at the same timestamp
    EXPECT_FALSE(e.cancel(sibling));  // and exactly once
  });
  sibling = e.schedule_after(1_us, [&] { order.push_back(2); });
  e.schedule_after(1_us, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(e.empty());
}

TEST_P(EngineTest, CancelLaterSiblingThenRescheduleFromCallback) {
  std::vector<std::string> log;
  EventId later = e.schedule_after(2_us, [&] { log.push_back("victim"); });
  e.schedule_after(1_us, [&] {
    EXPECT_TRUE(e.cancel(later));
    e.schedule_after(2_us, [&] { log.push_back("replacement"); });
  });
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{"replacement"}));
}

// A stale id whose storage slot has been reused by a *new* event must not
// cancel the new event — the subtle part of an id→slot scheme.
TEST_P(EngineTest, StaleIdDoesNotCancelSlotReuser) {
  bool first_fired = false;
  bool second_fired = false;
  const EventId first = e.schedule_after(1_us, [&] { first_fired = true; });
  e.run();
  EXPECT_TRUE(first_fired);
  // With a freelist this new event reuses `first`'s slot immediately.
  e.schedule_after(1_us, [&] { second_fired = true; });
  EXPECT_FALSE(e.cancel(first));
  e.run();
  EXPECT_TRUE(second_fired);
}

TEST_P(EngineTest, StaleIdFromInsideCallbackDoesNotCancelSlotReuser) {
  EventId original = 0;
  bool replacement_fired = false;
  original = e.schedule_after(1_us, [&] {
    // Scheduling first makes slot reuse most likely; the stale cancel of
    // our own id must then hit the generation guard, not the new event.
    e.schedule_after(1_us, [&] { replacement_fired = true; });
    EXPECT_FALSE(e.cancel(original));
  });
  e.run();
  EXPECT_TRUE(replacement_fired);
}

TEST_P(EngineTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  std::vector<int> order;
  e.schedule_after(1_us, [&] { order.push_back(1); });
  e.schedule_after(10_us, [&] { order.push_back(10); });
  e.run_until(TimePoint::origin() + 5_us);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(e.now(), TimePoint::origin() + 5_us);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10}));
}

TEST_P(EngineTest, RunUntilIncludesDeadlineEvents) {
  bool fired = false;
  e.schedule_after(5_us, [&] { fired = true; });
  e.run_until(TimePoint::origin() + 5_us);
  EXPECT_TRUE(fired);
}

TEST_P(EngineTest, ProcessedCountsFiredEvents) {
  for (int i = 0; i < 7; ++i) e.schedule_after(1_us, [] {});
  const EventId id = e.schedule_after(2_us, [] {});
  e.cancel(id);
  e.run();
  EXPECT_EQ(e.processed(), 7u);
}

TEST_P(EngineTest, PendingTracksQueueDepth) {
  EXPECT_EQ(e.pending(), 0u);
  const EventId a = e.schedule_after(1_us, [] {});
  e.schedule_after(2_us, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
}

TEST_P(EngineTest, CancelledEventCaptureIsDestroyed) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  const EventId id = e.schedule_after(1_us, [t = std::move(token)] { (void)*t; });
  EXPECT_FALSE(watch.expired());
  EXPECT_TRUE(e.cancel(id));
  EXPECT_TRUE(watch.expired());  // cancel releases the capture immediately
}

TEST_P(EngineTest, DeterministicAcrossRuns) {
  auto run_once = [this] {
    AnyEngine eng{GetParam()};
    std::vector<std::int64_t> trace;
    for (int i = 0; i < 50; ++i) {
      eng.schedule_after(Duration::microseconds(i % 7), [&, i] {
        trace.push_back(eng.now().ps() * 100 + i);
        if (i % 3 == 0) eng.schedule_after(1_us, [&] { trace.push_back(eng.now().ps()); });
      });
    }
    eng.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Wide-timescale churn: microsecond traffic mixed with far-out timers that
// are almost always cancelled (the RTO pattern), across enough events to
// force several bucket-array resizes in both directions.
TEST_P(EngineTest, TimerChurnAcrossResizes) {
  std::uint64_t fired = 0;
  std::uint64_t timers_fired = 0;
  EventId timer = 0;
  std::function<void(int)> tick = [&](int i) {
    ++fired;
    if (timer != 0) e.cancel(timer);
    timer = e.schedule_after(200_ms, [&] { ++timers_fired; });
    if (i > 0) {
      e.schedule_after(Duration::microseconds((i * 7) % 13 + 1), [&, i] { tick(i - 1); });
      for (int j = 0; j < (i % 4); ++j) e.schedule_after(2_us, [&] { ++fired; });
    }
  };
  e.schedule_after(1_us, [&] { tick(400); });
  e.run();
  EXPECT_EQ(fired, 401u + 600u);  // 401 ticks + sum over i=1..400 of (i % 4)
  EXPECT_EQ(timers_fired, 1u);    // only the last RTO survives
  EXPECT_TRUE(e.empty());
}

TEST(EngineDeathTest, SchedulingInThePastAborts) {
  Engine e;
  e.schedule_after(2_us, [] {});
  e.run();
  EXPECT_DEATH(e.schedule_at(TimePoint::origin() + 1_us, [] {}), "past");
}

// --- equivalence with the reference queue: the determinism contract ---

// Randomized schedule/cancel/run_until workloads must produce byte-identical
// firing traces on the calendar queue and the reference. This is the
// engine-level half of the digest suite (tests/fault/test_determinism_digest.cpp
// pins the app-level half over chaos scenarios).
template <class Eng>
std::vector<std::string> record_trace(std::uint64_t seed) {
  Eng eng;
  std::vector<std::string> trace;
  Rng rng{seed};
  std::vector<EventId> cancellable;
  std::function<void(int)> spawn = [&](int depth) {
    trace.push_back("fire@" + std::to_string(eng.now().ps()) + "#" +
                    std::to_string(trace.size()));
    if (depth <= 0) return;
    const int n = 1 + static_cast<int>(rng.next_below(4));
    for (int k = 0; k < n; ++k) {
      const auto gap = Duration::picoseconds(static_cast<std::int64_t>(rng.next_below(5'000'000)));
      const EventId id = eng.schedule_after(gap, [&, depth] { spawn(depth - 1); });
      if (rng.next_below(8) == 0) cancellable.push_back(id);
    }
    if (!cancellable.empty() && rng.next_below(3) == 0) {
      const std::size_t pick = rng.next_below(cancellable.size());
      const bool ok = eng.cancel(cancellable[pick]);
      trace.push_back(std::string("cancel:") + (ok ? "hit" : "stale"));
      cancellable.erase(cancellable.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  };
  for (int i = 0; i < 24; ++i)
    eng.schedule_after(Duration::microseconds(static_cast<double>(rng.next_below(40))),
                       [&] { spawn(4); });
  eng.run_until(eng.now() + 30_us);
  trace.push_back("pending@deadline=" + std::to_string(eng.pending()));
  eng.run();
  trace.push_back("end@" + std::to_string(eng.now().ps()) + " processed=" +
                  std::to_string(eng.processed()));
  return trace;
}

TEST(EngineEquivalence, CalendarMatchesLegacyMapOrderingExactly) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1995ull, 0xCAFEull}) {
    const auto calendar = record_trace<Engine>(seed);
    const auto reference = record_trace<ReferenceEngine>(seed);
    ASSERT_EQ(calendar, reference) << "seed " << seed;
    ASSERT_GT(calendar.size(), 100u) << "workload degenerated; seed " << seed;
  }
}

// bench/scale_sweep's core_stress mix, which carries the geometries the
// sub-5 us trace above never reaches: a 10 ms RTO cancelled and re-armed on
// every tick (far timers parked in overflow amid microsecond traffic), cell
// events on a 3030 ns lattice, and bursts of 4 events at one instant. Each
// fire is logged as (time, tag), the tag naming the chain and event kind,
// so any reordering inside a tie run shows.
template <class Eng>
std::vector<std::pair<std::int64_t, int>> record_core_stress(Eng& eng) {
  constexpr int kChains = 96;
  constexpr std::uint64_t kTicks = 6000;
  std::vector<std::pair<std::int64_t, int>> trace;
  Rng rng{0x5CA1Eu};
  std::vector<EventId> rto(kChains, 0);
  std::uint64_t ticks = 0;
  const auto log = [&](int c, int kind) { trace.emplace_back(eng.now().ps(), c * 16 + kind); };
  std::function<void(int)> tick = [&](int c) {
    const auto uc = static_cast<std::size_t>(c);
    log(c, 0);
    if (rto[uc] != 0) eng.cancel(rto[uc]);
    rto[uc] = eng.schedule_after(10_ms, [&, c, uc] {
      log(c, 1);
      rto[uc] = 0;
    });
    if (++ticks >= kTicks) return;
    for (int k = 1; k <= 3; ++k)
      eng.schedule_after(Duration::nanoseconds(static_cast<double>(k) * 3030.0),
                         [&, c, k] { log(c, 1 + k); });
    eng.schedule_after(Duration::microseconds(static_cast<double>(1 + rng.next_below(50))),
                       [&tick, c] { tick(c); });
    if ((ticks & 7u) == 0)
      for (int k = 0; k < 4; ++k) eng.schedule_after(5_us, [&, c, k] { log(c, 5 + k); });
  };
  for (int c = 0; c < kChains; ++c)
    eng.schedule_after(Duration::microseconds(static_cast<double>(rng.next_below(50))),
                       [&tick, c] { tick(c); });
  eng.run();
  trace.emplace_back(eng.now().ps(), static_cast<int>(eng.processed()));
  return trace;
}

TEST(EngineEquivalence, CalendarMatchesReferenceUnderCoreStressMix) {
  Engine calendar;
  ReferenceEngine reference;
  const auto got = record_core_stress(calendar);
  const auto want = record_core_stress(reference);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << "first divergence at fire " << i;
  // The mix must reach the refit and overflow-migration paths, with a few
  // hundred events pending, or it proves nothing about them.
  EXPECT_GT(calendar.stats().resizes, 0u);
  EXPECT_GT(calendar.stats().peak_pending, 250u);
}

// The bucket-wrap geometry. A rebuild anchors the calendar year at the
// earliest pending event, which is rarely on a bucket-width boundary, so
// the anchor's bucket can also hold an event from the *next* year — one
// that fires after events in other buckets. pop() may keep its cached
// bucket only for a same-instant successor; keeping it for that later-year
// successor would fire it early. This predicate spots the geometry from
// outside, before a pop: the next event's bucket successor lies in a later
// year, and another event fires between them.
using Key = std::pair<std::int64_t, std::uint64_t>;  // (time, schedule order)

bool pop_meets_a_later_year(const Engine& eng, const std::set<Key>& pending) {
  if (pending.size() < 2) return false;
  const std::int64_t width = eng.bucket_width_ps();
  const auto bucket = [&](std::int64_t t) {
    return (static_cast<std::uint64_t>(t) / static_cast<std::uint64_t>(width)) &
           (eng.bucket_count() - 1);
  };
  const std::int64_t min_ps = pending.begin()->first;
  const auto second = std::next(pending.begin());
  for (auto it = second; it != pending.end() && it->first < eng.overflow_limit_ps(); ++it)
    if (bucket(it->first) == bucket(min_ps))
      return it != second && it->first / width != min_ps / width;
  return false;
}

// Chains whose gaps span 10 ns to 10 ms, every decade equally likely, with
// cancels: the spread of scales keeps the refit moving the year's anchor
// off the width lattice. Each fire logs (time, tag). On the calendar engine, `wraps`
// counts the pops that met the geometry above with no refit in between.
template <class Eng>
std::vector<std::pair<std::int64_t, int>> record_log_gaps(Eng& eng, std::uint64_t seed,
                                                          int chains, int budget,
                                                          std::uint64_t* wraps) {
  std::vector<std::pair<std::int64_t, int>> trace;
  Rng rng{seed};
  std::set<Key> pending;
  std::vector<std::pair<EventId, Key>> live;
  std::uint64_t order = 0;
  int scheduled = 0;
  std::function<void(int)> fire;
  const auto schedule = [&](int tag) {
    std::uint64_t decade = 10'000;  // ps: 10 ns, 100 ns, ... or 1 ms
    for (std::uint64_t d = rng.next_below(6); d > 0; --d) decade *= 10;
    const auto gap = static_cast<std::int64_t>(decade + rng.next_below(9 * decade));
    const Key key{eng.now().ps() + gap, order++};
    pending.insert(key);
    live.emplace_back(eng.schedule_at(TimePoint::from_ps(key.first), [&, tag, key] {
      pending.erase(key);
      fire(tag);
    }), key);
    ++scheduled;
  };
  fire = [&](int tag) {
    trace.emplace_back(eng.now().ps(), tag);
    if (scheduled >= budget) return;
    schedule(tag);
    if (rng.next_below(2) == 0) schedule(tag + 1);
    if (rng.next_below(6) == 0 && !live.empty()) {
      const std::size_t pick = rng.next_below(live.size());
      if (eng.cancel(live[pick].first)) pending.erase(live[pick].second);
      live[pick] = live.back();
      live.pop_back();
    }
  };
  for (int c = 0; c < chains; ++c) schedule(c * 1000);
  while (!eng.empty()) {
    if constexpr (std::is_same_v<Eng, Engine>) {
      const std::uint64_t resizes = eng.stats().resizes;
      const bool wrap = pop_meets_a_later_year(eng, pending);
      eng.step();
      if (wrap && eng.stats().resizes == resizes) ++*wraps;
    } else {
      eng.step();
    }
  }
  trace.emplace_back(eng.now().ps(), static_cast<int>(eng.processed()));
  return trace;
}

TEST(EngineEquivalence, CalendarMatchesReferenceAcrossBucketWraps) {
  // The geometry is rare: of 120 probed configs (seeds 1-40, 2-4 chains),
  // 8 reach it. These three seeds reach it with two chains.
  for (const std::uint64_t seed : {1ull, 31ull, 33ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Engine calendar;
    ReferenceEngine reference;
    std::uint64_t wraps = 0;
    const auto got = record_log_gaps(calendar, seed, 2, 20000, &wraps);
    const auto want = record_log_gaps(reference, seed, 2, 20000, nullptr);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "first divergence at fire " << i;
    // The trace must reach the geometry it exists for, or it proves nothing.
    EXPECT_GT(wraps, 0u);
    EXPECT_GT(got.size(), 10000u);
  }
}

}  // namespace
}  // namespace ncs::sim
