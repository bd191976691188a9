#include <gtest/gtest.h>

#include "kvcache/block_allocator.h"

namespace hack {
namespace {

TEST(BlockAllocator, AllocateUntilExhausted) {
  BlockAllocator alloc(4, 1024);
  std::vector<BlockId> ids;
  for (int i = 0; i < 4; ++i) {
    const BlockId id = alloc.allocate();
    ASSERT_NE(id, kInvalidBlock);
    ids.push_back(id);
  }
  EXPECT_EQ(alloc.allocate(), kInvalidBlock);
  EXPECT_EQ(alloc.blocks_in_use(), 4u);
  EXPECT_EQ(alloc.bytes_in_use(), 4096u);
}

TEST(BlockAllocator, DistinctIds) {
  BlockAllocator alloc(8, 64);
  std::vector<bool> seen(8, false);
  for (int i = 0; i < 8; ++i) {
    const BlockId id = alloc.allocate();
    ASSERT_LT(id, 8u);
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
}

TEST(BlockAllocator, ReleaseReturnsToPool) {
  BlockAllocator alloc(2, 64);
  const BlockId a = alloc.allocate();
  const BlockId b = alloc.allocate();
  EXPECT_EQ(alloc.allocate(), kInvalidBlock);
  alloc.release(a);
  const BlockId c = alloc.allocate();
  EXPECT_NE(c, kInvalidBlock);
  EXPECT_NE(c, b);
}

TEST(BlockAllocator, PeakTracksHighWater) {
  BlockAllocator alloc(4, 64);
  const BlockId a = alloc.allocate();
  const BlockId b = alloc.allocate();
  const BlockId c = alloc.allocate();
  alloc.release(b);
  alloc.release(c);
  EXPECT_EQ(alloc.peak_blocks_in_use(), 3u);
  alloc.release(a);
  EXPECT_EQ(alloc.peak_blocks_in_use(), 3u);
}

TEST(BlockAllocator, MisuseThrows) {
  BlockAllocator alloc(2, 64);
  EXPECT_THROW(alloc.release(0), CheckError);     // not allocated
  const BlockId a = alloc.allocate();
  alloc.release(a);
  EXPECT_THROW(alloc.release(a), CheckError);     // double free
}

TEST(BlockAllocator, WatermarkTracksMinimumFree) {
  BlockAllocator alloc(4, 64);
  EXPECT_EQ(alloc.min_free_watermark(), 4u);
  const BlockId a = alloc.allocate();
  const BlockId b = alloc.allocate();
  const BlockId c = alloc.allocate();
  EXPECT_EQ(alloc.min_free_watermark(), 1u);
  alloc.release(a);
  alloc.release(b);
  alloc.release(c);
  // Releases never raise the watermark back up.
  EXPECT_EQ(alloc.min_free_watermark(), 1u);
  (void)alloc.allocate();
  EXPECT_EQ(alloc.min_free_watermark(), 1u);
}

TEST(BlockAllocator, FailedAllocationsAccumulate) {
  BlockAllocator alloc(2, 64);
  EXPECT_EQ(alloc.failed_allocations(), 0u);
  (void)alloc.allocate();
  (void)alloc.allocate();
  EXPECT_EQ(alloc.allocate(), kInvalidBlock);
  EXPECT_EQ(alloc.allocate(), kInvalidBlock);
  EXPECT_EQ(alloc.failed_allocations(), 2u);
  EXPECT_EQ(alloc.min_free_watermark(), 0u);
}

TEST(BlockAllocator, CanAllocatePredicate) {
  BlockAllocator alloc(3, 64);
  EXPECT_TRUE(alloc.can_allocate(3));
  EXPECT_FALSE(alloc.can_allocate(4));
  (void)alloc.allocate();
  EXPECT_TRUE(alloc.can_allocate(2));
  EXPECT_FALSE(alloc.can_allocate(3));
}

}  // namespace
}  // namespace hack
