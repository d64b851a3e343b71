// NCS_MTS thread object.
//
// Mirrors the paper's Section 4.1: a thread is blocked, runnable or
// running; it lives on doubly-linked queues (one circular runnable queue
// per priority level, one blocked queue); and it is either a *system*
// thread (send / receive / flow control / error control, created by
// NCS_init) or a *user* thread (compute threads created by NCS_t_create).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/intrusive_list.hpp"
#include "common/time.hpp"
#include "qt/context.hpp"
#include "qt/stack.hpp"
#include "sim/engine.hpp"
#include "sim/timeline.hpp"

namespace ncs::mts {

class Scheduler;

using ThreadId = std::int32_t;
inline constexpr ThreadId kInvalidThread = -1;

/// Priority levels, highest first. The paper: "current implementation has
/// N = 16", round-robin within each level.
inline constexpr int kPriorityLevels = 16;
inline constexpr int kHighestPriority = 0;
inline constexpr int kDefaultPriority = 8;
inline constexpr int kLowestPriority = kPriorityLevels - 1;

enum class ThreadState : std::uint8_t { runnable, running, blocked, finished };
enum class ThreadClass : std::uint8_t { user, system };

const char* to_string(ThreadState s);

struct ThreadOptions {
  std::string name;
  int priority = kDefaultPriority;
  ThreadClass cls = ThreadClass::user;
  std::size_t stack_size = qt::Stack::kDefaultSize;
  /// Pin the thread to one core of a multi-core host (core/mts/smp.hpp):
  /// it is never stolen or migrated. -1 = let the scheduler place it.
  int affinity = -1;
};

class Thread {
 public:
  Thread(Scheduler& scheduler, ThreadId id, std::function<void()> body, ThreadOptions opts);

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ThreadId id() const { return id_; }
  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  ThreadClass thread_class() const { return cls_; }
  ThreadState state() const { return state_; }
  Scheduler& scheduler() { return scheduler_; }
  /// Core the thread is currently bound to (queued on / running on). Work
  /// stealing and on-demand progress migration rebind unpinned threads.
  int core() const { return core_; }
  /// Pinned core, or -1 when the scheduler may move the thread.
  int affinity() const { return affinity_; }

  bool finished() const { return state_ == ThreadState::finished; }

  /// Peak stack usage, valid once the thread has run: page-granular, read
  /// from the pages the thread committed (stacks are not painted).
  std::size_t stack_high_watermark() const { return stack_.high_watermark(); }

 private:
  friend class Scheduler;
  static void trampoline(void* self);

  Scheduler& scheduler_;
  ThreadId id_;
  std::string name_;
  int priority_;
  ThreadClass cls_;
  ThreadState state_ = ThreadState::runnable;
  int affinity_ = -1;
  int core_ = 0;

  std::function<void()> body_;
  qt::Stack stack_;
  qt::Context context_;

  ListHook queue_hook_;  // runnable queue or blocked queue
  IntrusiveList<Thread, &Thread::queue_hook_>* queue_ = nullptr;

  // Joiners blocked on this thread's completion.
  std::vector<Thread*> joiners_;

  int timeline_track_ = -1;
  int trace_track_ = -1;
  sim::Activity blocked_as_ = sim::Activity::idle;
  TimePoint block_began_;
  /// When the thread last entered a runnable queue; pop_runnable() turns
  /// it into a dispatch-latency sample when profiling is on.
  TimePoint runnable_since_;
  /// Sleep generation: bumped when a sleep starts and when its block
  /// returns, so a sleep_until() timer can detect it has gone stale
  /// (the thread was woken early by another path).
  std::uint64_t sleep_token_ = 0;
  /// The pending sleep_until() timer event, cancelled when the thread is
  /// woken early so a dead timer neither fires stale nor sits in the event
  /// queue until its deadline. 0 = no timer pending.
  sim::EventId sleep_timer_ = 0;

 public:
  /// The intrusive queue type threaded through queue_hook_ — the per-core
  /// runnable levels and the host blocked queue (scheduler internals; see
  /// core/mts/smp.hpp).
  using Queue = IntrusiveList<Thread, &Thread::queue_hook_>;
};

}  // namespace ncs::mts
