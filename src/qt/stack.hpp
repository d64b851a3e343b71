// Execution stacks for user-level threads.
//
// Each stack is an mmap'ed region with a PROT_NONE guard page below it, so
// overflow faults immediately instead of corrupting a neighbouring thread's
// stack — the classic failure mode of 1995-era user-space thread packages.
#pragma once

#include <cstddef>

namespace ncs::qt {

class Stack {
 public:
  static constexpr std::size_t kDefaultSize = 256 * 1024;

  /// Maps `size` usable bytes plus one guard page. Aborts on mmap failure
  /// (thread creation happens at setup time; there is nothing to degrade to).
  explicit Stack(std::size_t size = kDefaultSize);
  ~Stack();

  Stack(Stack&& other) noexcept;
  Stack& operator=(Stack&& other) noexcept;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Lowest usable address (just above the guard page).
  void* base() const { return base_; }
  /// One past the highest usable address; initial stack pointers grow down from here.
  void* top() const { return static_cast<char*>(base_) + size_; }
  std::size_t size() const { return size_; }

  /// Fills the stack with a sentinel pattern so high_watermark() can report
  /// peak usage later. Call before first use.
  void paint();

  /// Bytes of stack ever touched. After paint(): exact to the word. Never
  /// painted: read from page residency (mincore), so the stack commits only
  /// the pages its thread touches; the result is the distance from top() to
  /// the lowest resident page, a page-granular upper bound (while no stack
  /// page is swapped out), and 0 while no page has been touched.
  std::size_t high_watermark() const;

 private:
  void* map_ = nullptr;   // includes guard page
  void* base_ = nullptr;  // usable region
  std::size_t size_ = 0;
  std::size_t map_size_ = 0;
  bool painted_ = false;
};

}  // namespace ncs::qt
