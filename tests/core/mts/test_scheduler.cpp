#include "core/mts/scheduler.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

namespace ncs::mts {
namespace {

using namespace ncs::literals;

SchedulerParams zero_cost(const std::string& name = "h0", double mhz = 40) {
  SchedulerParams p;
  p.name = name;
  p.cpu_mhz = mhz;
  p.context_switch_cost = Duration::zero();
  p.thread_create_cost = Duration::zero();
  return p;
}

TEST(Scheduler, RunsASpawnedThreadToCompletion) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  bool ran = false;
  Thread* t = sched.spawn([&] { ran = true; });
  engine.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(t->finished());
  EXPECT_TRUE(sched.quiescent());
}

TEST(Scheduler, ThreadsSeeThemselves) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  Thread* spawned = nullptr;
  ThreadId seen = kInvalidThread;
  spawned = sched.spawn([&] {
    EXPECT_EQ(Scheduler::active(), &sched);
    seen = sched.current()->id();
  });
  engine.run();
  EXPECT_EQ(seen, spawned->id());
  EXPECT_EQ(Scheduler::active(), nullptr);
}

TEST(Scheduler, ChargeAdvancesVirtualTime) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost("h", 40));
  TimePoint end;
  sched.spawn([&] {
    sched.charge_cycles(40e6);  // 1 second at 40 MHz
    end = engine.now();
  });
  engine.run();
  EXPECT_NEAR((end - TimePoint::origin()).sec(), 1.0, 1e-9);
}

TEST(Scheduler, CpuMhzScalesChargeTime) {
  auto run_at = [](double mhz) {
    sim::Engine engine;
    Scheduler sched(engine, zero_cost("h", mhz));
    TimePoint end;
    sched.spawn([&] {
      sched.charge_cycles(33e6);
      end = engine.now();
    });
    engine.run();
    return (end - TimePoint::origin()).sec();
  };
  EXPECT_NEAR(run_at(33.0), 1.0, 1e-9);
  EXPECT_NEAR(run_at(66.0), 0.5, 1e-9);
}

TEST(Scheduler, ChargeWindowExcludesSiblings) {
  // While thread A computes, thread B (runnable) must not run: one CPU.
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> log;
  sched.spawn([&] {
    log.push_back("A0@" + std::to_string(engine.now().ps()));
    sched.charge(100_us);
    log.push_back("A1@" + std::to_string(engine.now().ps()));
  }, {.name = "A"});
  sched.spawn([&] {
    log.push_back("B0@" + std::to_string(engine.now().ps()));
  }, {.name = "B"});
  engine.run();
  // B starts only after A's 100us charge completes.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].substr(0, 2), "A0");
  EXPECT_EQ(log[1].substr(0, 2), "A1");
  EXPECT_EQ(log[2].substr(0, 2), "B0");
}

TEST(Scheduler, BlockAndUnblockResume) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  Thread* blocked = nullptr;
  std::vector<int> log;
  blocked = sched.spawn([&] {
    log.push_back(1);
    sched.block();
    log.push_back(3);
  });
  sched.spawn([&] {
    log.push_back(2);
    sched.unblock(blocked);
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SleepReleasesCpuToSiblings) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> log;
  sched.spawn([&] {
    sched.sleep_for(100_us);
    log.push_back("sleeper@" + std::to_string(engine.now().ps()));
  });
  sched.spawn([&] {
    log.push_back("worker@" + std::to_string(engine.now().ps()));
  });
  engine.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].substr(0, 6), "worker");  // runs during the sleep
}

TEST(Scheduler, UnblockCutsASleepShort) {
  // A sleeping thread is just a blocked thread; an explicit unblock must
  // wake it before its deadline, not crash or double-wake it.
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  TimePoint woke;
  Thread* sleeper = sched.spawn([&] {
    sched.sleep_until(TimePoint::origin() + 1_ms);
    woke = engine.now();
  });
  sched.spawn([&] {
    sched.sleep_for(10_us);
    sched.unblock(sleeper);
  });
  engine.run();
  EXPECT_NEAR((woke - TimePoint::origin()).sec(), 10e-6, 1e-9);
  EXPECT_TRUE(sched.quiescent());
}

TEST(Scheduler, StaleSleepTimerDoesNotWakeALaterBlock) {
  // Regression: the sleep timer used to unblock its thread unconditionally.
  // If the thread was woken early and had moved on to block on something
  // else, the stale timer fired into that *new* wait and woke it spuriously.
  // Today the early wake *cancels* the timer outright, so beyond not firing
  // into the second block it must not even keep the engine alive to 1 ms.
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> log;
  Thread* sleeper = nullptr;
  sleeper = sched.spawn([&] {
    sched.sleep_until(TimePoint::origin() + 1_ms);
    log.push_back("woke-early");
    sched.block();  // a different wait; the 1 ms timer is now stale
    log.push_back("woke-again");
  });
  sched.spawn([&] {
    sched.sleep_for(10_us);
    sched.unblock(sleeper);
  });
  engine.run();
  // The sleeper is still sitting in its second block, and the 1 ms timer
  // was reclaimed at the early wake: the queue drained at the unblock.
  EXPECT_EQ(log, (std::vector<std::string>{"woke-early"}));
  EXPECT_NEAR((engine.now() - TimePoint::origin()).sec(), 10e-6, 1e-9);

  sched.unblock(sleeper);
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"woke-early", "woke-again"}));
  EXPECT_TRUE(sched.quiescent());
}

TEST(Scheduler, PriorityOrdering) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<int> order;
  // Spawn in reverse priority order; dispatch must follow priority.
  for (int prio : {12, 4, 8, 0, 15}) {
    sched.spawn([&order, prio] { order.push_back(prio); }, {.priority = prio});
  }
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{0, 4, 8, 12, 15}));
}

TEST(Scheduler, RoundRobinWithinPriorityLevel) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> order;
  for (const char* name : {"a", "b", "c"}) {
    sched.spawn([&order, name, &sched] {
      for (int round = 0; round < 3; ++round) {
        order.push_back(name + std::to_string(round));
        sched.yield();
      }
    }, {.name = name});
  }
  engine.run();
  // Perfect interleaving: a0 b0 c0 a1 b1 c1 a2 b2 c2.
  const std::vector<std::string> expected{"a0", "b0", "c0", "a1", "b1", "c1", "a2", "b2", "c2"};
  EXPECT_EQ(order, expected);
}

TEST(Scheduler, HigherPriorityRunsAtNextDispatchPoint) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> log;
  sched.spawn([&] {
    log.push_back("low-start");
    sched.spawn([&] { log.push_back("high"); }, {.priority = 0});
    log.push_back("low-continues");  // non-preemptive: still running
    sched.yield();
    log.push_back("low-after-yield");
  }, {.priority = 10});
  engine.run();
  EXPECT_EQ(log, (std::vector<std::string>{"low-start", "low-continues", "high",
                                           "low-after-yield"}));
}

TEST(Scheduler, JoinWaitsForCompletion) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<int> log;
  Thread* worker = sched.spawn([&] {
    sched.charge(50_us);
    log.push_back(1);
  });
  sched.spawn([&] {
    sched.join(worker);
    log.push_back(2);
  });
  engine.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Scheduler, JoinOnFinishedThreadReturnsImmediately) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  Thread* worker = sched.spawn([] {});
  bool joined = false;
  engine.run();
  sched.spawn([&] {
    sched.join(worker);
    joined = true;
  });
  engine.run();
  EXPECT_TRUE(joined);
}

TEST(Scheduler, ContextSwitchCostDelaysDispatch) {
  sim::Engine engine;
  SchedulerParams p = zero_cost();
  p.context_switch_cost = 10_us;
  Scheduler sched(engine, p);
  TimePoint started;
  sched.spawn([&] { started = engine.now(); });
  engine.run();
  EXPECT_EQ(started, TimePoint::origin() + 10_us);
  EXPECT_EQ(sched.stats().overhead, 10_us);
}

TEST(Scheduler, ThreadCreateCostAccrues) {
  sim::Engine engine;
  SchedulerParams p = zero_cost();
  p.thread_create_cost = 25_us;
  Scheduler sched(engine, p);
  sched.spawn([] {});
  sched.spawn([] {});
  engine.run();
  EXPECT_EQ(sched.stats().overhead, 50_us);
}

TEST(Scheduler, ManyThreadsManySwitches) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  int total = 0;
  for (int i = 0; i < 50; ++i) {
    sched.spawn([&, i] {
      for (int k = 0; k < 20; ++k) {
        total += i;
        sched.yield();
      }
    });
  }
  engine.run();
  EXPECT_EQ(total, 20 * (49 * 50 / 2));
  EXPECT_TRUE(sched.quiescent());
  EXPECT_GE(sched.stats().dispatches, 50u * 20u);
}

TEST(Scheduler, TwoHostsInterleaveDeterministically) {
  auto run_once = [] {
    sim::Engine engine;
    Scheduler h0(engine, zero_cost("h0"));
    Scheduler h1(engine, zero_cost("h1"));
    std::vector<std::string> log;
    for (auto* s : {&h0, &h1}) {
      s->spawn([&log, s] {
        for (int i = 0; i < 3; ++i) {
          log.push_back(s->name() + std::to_string(i));
          s->charge(Duration::microseconds(s->name() == "h0" ? 10 : 15));
        }
      });
    }
    engine.run();
    return log;
  };
  const auto log = run_once();
  EXPECT_EQ(log, run_once());
  // Hosts run truly concurrently in virtual time: h1's first step happens
  // before h0 finishes all three.
  EXPECT_EQ(log[0], "h00");
  EXPECT_EQ(log[1], "h10");
}

TEST(Scheduler, TimelineRecordsComputeAndIdle) {
  sim::Engine engine;
  sim::Timeline tl;
  Scheduler sched(engine, zero_cost());
  sched.set_timeline(&tl);
  sched.spawn([&] { sched.charge(100_us, sim::Activity::compute); }, {.name = "worker"});
  engine.run();
  tl.finish(engine.now());

  ASSERT_EQ(tl.track_count(), 1);
  EXPECT_EQ(tl.track_name(0), "h0/worker");
  const auto s = tl.summarize(0);
  EXPECT_NEAR(s.fraction(sim::Activity::compute), 1.0, 1e-9);
}

TEST(Scheduler, StackWatermarkVisibleAfterRun) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  Thread* t = sched.spawn([] {
    volatile char burn[8000];
    for (int i = 0; i < 8000; i += 64) burn[i] = 1;
    (void)burn[0];
  });
  engine.run();
  EXPECT_GE(t->stack_high_watermark(), 8000u);
}

TEST(Scheduler, SpawnLeavesMostOfTheStackUntouched) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  const char* frame = nullptr;
  Thread* t = sched.spawn(
      [&frame] { frame = static_cast<const char*>(__builtin_frame_address(0)); });
  engine.run();
  ASSERT_EQ(qt::Stack::kDefaultSize, 256u * 1024u);
  EXPECT_GT(t->stack_high_watermark(), 0u);
  EXPECT_LE(t->stack_high_watermark(), 32u * 1024u);
  // The watermark alone cannot tell a lazily committed stack from a painted
  // one: painting makes it byte-exact and just as small. So look at the
  // pages themselves: 32 to 224 KiB below the body's frame lies inside the
  // stack, and a thread that never went there must not have committed it.
  const auto ps = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto lo = (reinterpret_cast<std::uintptr_t>(frame) - 224 * 1024 + ps - 1) / ps * ps;
  const auto hi = (reinterpret_cast<std::uintptr_t>(frame) - 32 * 1024) / ps * ps;
  std::vector<unsigned char> resident((hi - lo) / ps);
  ASSERT_EQ(::mincore(reinterpret_cast<void*>(lo), hi - lo, resident.data()), 0);
  std::size_t committed = 0;
  for (const unsigned char r : resident) committed += r & 1u;
  EXPECT_EQ(committed, 0u) << "of " << resident.size() << " pages";
}

TEST(Scheduler, YieldToHigherPrefersSystemThreads) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> log;
  // Two same-priority workers and one high-priority thread that becomes
  // runnable mid-run: yield_to_higher must let the high one in but never
  // rotate between the peers.
  // The high-priority thread parks itself immediately (like an idle
  // system thread waiting for work).
  Thread* high = sched.spawn([&] {
    sched.block();
    log.push_back("high");
  }, {.name = "high", .priority = 0});
  sched.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("a" + std::to_string(i));
      if (i == 0) sched.unblock(high);
      sched.yield_to_higher();
    }
  }, {.name = "a", .priority = 8});
  sched.spawn([&] {
    for (int i = 0; i < 3; ++i) {
      log.push_back("b" + std::to_string(i));
      sched.yield_to_higher();
    }
  }, {.name = "b", .priority = 8});
  engine.run();
  // a keeps the CPU among its peers (no timesharing with b), but the
  // woken high-priority thread takes the yield point.
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "high", "a1", "a2", "b0", "b1", "b2"}));
}

TEST(Scheduler, YieldToHigherNoopWithoutHigherWork) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<int> order;
  sched.spawn([&] {
    order.push_back(1);
    sched.yield_to_higher();  // peer exists but is not higher priority
    order.push_back(2);
  });
  sched.spawn([&] { order.push_back(3); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SetPriorityRequeuesRunnableThread) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> order;
  Thread* slow = sched.spawn([&] { order.push_back("was-low"); }, {.priority = 15});
  sched.spawn([&, slow] {
    sched.set_priority(slow, 0);  // promote before it ever ran
    order.push_back("promoter");
    sched.yield();
    order.push_back("promoter-after");
  }, {.priority = 8});
  sched.spawn([&] { order.push_back("mid"); }, {.priority = 8});
  engine.run();
  // After the promoter yields, the promoted thread outranks "mid".
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "promoter");
  EXPECT_EQ(order[1], "was-low");
  EXPECT_EQ(order[2], "mid");
}

TEST(Scheduler, SetPriorityOnBlockedThreadTakesEffectOnWake) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> order;
  Thread* blocked = sched.spawn([&] {
    sched.block();
    order.push_back("woken");
  }, {.priority = 15});
  engine.run();
  sched.set_priority(blocked, 0);
  sched.spawn([&] { order.push_back("other"); }, {.priority = 8});
  sched.unblock(blocked);
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"woken", "other"}));
}

TEST(Scheduler, SetPriorityDuringChargeTakesEffectAtNextQueueing) {
  // A thread inside a charge() window is parked (blocked, not queued) but
  // still owns the CPU. Changing its priority mid-window must neither
  // requeue it nor disturb the window: the charge runs to completion, the
  // thread resumes directly, and the new level applies at its next
  // queueing (the documented "takes effect at next queueing" semantics).
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  std::vector<std::string> order;
  TimePoint resumed;
  Thread* charger = sched.spawn([&] {
    sched.charge(100_us);  // the promotion lands mid-window
    resumed = engine.now();
    order.push_back("charger");
    sched.yield();  // first queueing after the change: new level applies
    order.push_back("charger-after-yield");
  }, {.name = "charger", .priority = 8});
  engine.schedule_at(TimePoint::origin() + 50_us, [&] {
    EXPECT_EQ(charger->state(), ThreadState::blocked);  // parked in charge()
    sched.set_priority(charger, 0);
    EXPECT_EQ(charger->priority(), 0);
  });
  // A peer above the charger's old level but below its new one, queued
  // while the window runs: the non-preemptive CPU keeps it waiting, and
  // at the charger's yield the *new* priority must outrank it.
  engine.schedule_at(TimePoint::origin() + 60_us, [&] {
    sched.spawn([&] { order.push_back("peer"); }, {.name = "peer", .priority = 4});
  });
  engine.run();
  EXPECT_EQ(resumed, TimePoint::origin() + 100_us);  // window undisturbed
  EXPECT_EQ(order, (std::vector<std::string>{"charger", "charger-after-yield", "peer"}));
  EXPECT_TRUE(sched.quiescent());
}

TEST(SchedulerDeathTest, BlockOutsideThreadAborts) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  EXPECT_DEATH(sched.block(), "outside a thread");
}

TEST(SchedulerDeathTest, UnblockRunnableThreadAborts) {
  sim::Engine engine;
  Scheduler sched(engine, zero_cost());
  Thread* t = sched.spawn([] {});
  EXPECT_DEATH(sched.unblock(t), "not on the blocked queue");
  engine.run();
}

}  // namespace
}  // namespace ncs::mts
