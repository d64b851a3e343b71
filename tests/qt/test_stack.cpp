#include "qt/stack.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

namespace ncs::qt {
namespace {

TEST(Stack, SizeRoundedToPageAndUsable) {
  Stack s(1000);  // will round up to one page
  EXPECT_GE(s.size(), 1000u);
  EXPECT_EQ(s.size() % 4096, 0u);
  // The whole usable region is writable.
  std::memset(s.base(), 0xCD, s.size());
}

TEST(Stack, TopIsBasePlusSize) {
  Stack s(64 * 1024);
  EXPECT_EQ(static_cast<char*>(s.top()) - static_cast<char*>(s.base()),
            static_cast<std::ptrdiff_t>(s.size()));
}

TEST(Stack, WatermarkZeroWhenUnpainted) {
  Stack s(64 * 1024);
  EXPECT_EQ(s.high_watermark(), 0u);
}

TEST(Stack, WatermarkTracksDeepestTouch) {
  Stack s(64 * 1024);
  s.paint();
  EXPECT_EQ(s.high_watermark(), 0u);
  // Touch 1 KiB from the top (stacks grow down).
  auto* top = static_cast<std::uint64_t*>(s.top());
  top[-128] = 42;  // 1024 bytes below top
  EXPECT_EQ(s.high_watermark(), 1024u);
  top[-1024] = 43;  // 8192 bytes below top
  EXPECT_EQ(s.high_watermark(), 8192u);
}

TEST(Stack, UnpaintedWatermarkIsPageGranular) {
  Stack s(64 * 1024);
  EXPECT_EQ(s.high_watermark(), 0u);
  // Without paint the watermark is the lowest committed page, so any touch
  // reads as the whole page it lands in.
  auto* top = static_cast<std::uint64_t*>(s.top());
  top[-128] = 42;  // 1024 bytes below top
  EXPECT_EQ(s.high_watermark(), 4096u);
  top[-1024] = 43;  // 8192 bytes below top
  EXPECT_EQ(s.high_watermark(), 8192u);
}

TEST(Stack, MoveTransfersOwnership) {
  Stack a(64 * 1024);
  void* base = a.base();
  Stack b(std::move(a));
  EXPECT_EQ(b.base(), base);
  EXPECT_EQ(a.base(), nullptr);
  std::memset(b.base(), 0, b.size());
}

TEST(StackDeathTest, GuardPageFaultsOnOverflow) {
  Stack s(16 * 1024);
  auto* below = static_cast<char*>(s.base()) - 16;  // inside the guard page
  EXPECT_DEATH({ *below = 1; }, "");
}

}  // namespace
}  // namespace ncs::qt
