#include "qt/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace ncs::qt {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t v, std::size_t align) { return (v + align - 1) / align * align; }

constexpr std::uint64_t kPaint = 0x51CC51CC51CC51CCull;  // "QT" sentinel

}  // namespace

Stack::Stack(std::size_t size) {
  const std::size_t ps = page_size();
  size_ = round_up(size, ps);
  map_size_ = size_ + ps;  // one guard page below
  void* p = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  NCS_ASSERT_MSG(p != MAP_FAILED, "stack mmap failed");
  map_ = p;
  NCS_ASSERT_MSG(::mprotect(p, ps, PROT_NONE) == 0, "guard page mprotect failed");
  base_ = static_cast<char*>(p) + ps;
}

Stack::~Stack() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

Stack::Stack(Stack&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      map_size_(std::exchange(other.map_size_, 0)),
      painted_(std::exchange(other.painted_, false)) {}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    map_ = std::exchange(other.map_, nullptr);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    map_size_ = std::exchange(other.map_size_, 0);
    painted_ = std::exchange(other.painted_, false);
  }
  return *this;
}

void Stack::paint() {
  auto* words = static_cast<std::uint64_t*>(base_);
  const std::size_t n = size_ / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < n; ++i) words[i] = kPaint;
  painted_ = true;
}

std::size_t Stack::high_watermark() const {
  if (!painted_) {
    // Stacks grow down: the lowest resident page bounds the deepest touch.
    const std::size_t ps = page_size();
    std::vector<unsigned char> resident(size_ / ps);
    NCS_ASSERT_MSG(::mincore(base_, size_, resident.data()) == 0, "stack mincore failed");
    for (std::size_t i = 0; i < resident.size(); ++i) {
      if ((resident[i] & 1u) != 0) return size_ - i * ps;
    }
    return 0;
  }
  // Stacks grow down: scan from the bottom for the first clobbered word.
  const auto* words = static_cast<const std::uint64_t*>(base_);
  const std::size_t n = size_ / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < n; ++i) {
    if (words[i] != kPaint) return size_ - i * sizeof(std::uint64_t);
  }
  return 0;
}

}  // namespace ncs::qt
