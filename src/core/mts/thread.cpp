#include "core/mts/thread.hpp"

#include <utility>

#include "core/mts/scheduler.hpp"

namespace ncs::mts {

const char* to_string(ThreadState s) {
  switch (s) {
    case ThreadState::runnable: return "runnable";
    case ThreadState::running: return "running";
    case ThreadState::blocked: return "blocked";
    case ThreadState::finished: return "finished";
  }
  return "?";
}

Thread::Thread(Scheduler& scheduler, ThreadId id, std::function<void()> body, ThreadOptions opts)
    : scheduler_(scheduler),
      id_(id),
      name_(opts.name.empty() ? "t" + std::to_string(id) : std::move(opts.name)),
      priority_(opts.priority),
      cls_(opts.cls),
      affinity_(opts.affinity),
      body_(std::move(body)),
      stack_(opts.stack_size) {
  NCS_ASSERT(priority_ >= kHighestPriority && priority_ <= kLowestPriority);
  NCS_ASSERT(body_ != nullptr);
  context_.init(stack_, &Thread::trampoline, this);
}

void Thread::trampoline(void* self) {
  auto* t = static_cast<Thread*>(self);
  t->scheduler_.thread_main(t);
  NCS_UNREACHABLE("thread_main returned");
}

}  // namespace ncs::mts
