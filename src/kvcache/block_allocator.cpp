#include "kvcache/block_allocator.h"

#include <algorithm>

namespace hack {

BlockAllocator::BlockAllocator(std::size_t num_blocks, std::size_t block_bytes)
    : block_bytes_(block_bytes), allocated_(num_blocks, false),
      min_free_(num_blocks) {
  HACK_CHECK(num_blocks > 0 && block_bytes > 0, "empty allocator");
  free_list_.reserve(num_blocks);
  // Hand out low ids first: push high ids first so pop_back yields low.
  for (std::size_t i = num_blocks; i > 0; --i) {
    free_list_.push_back(static_cast<BlockId>(i - 1));
  }
}

BlockId BlockAllocator::allocate() {
  if (free_list_.empty()) {
    ++failed_allocations_;
    return kInvalidBlock;
  }
  const BlockId id = free_list_.back();
  free_list_.pop_back();
  allocated_[id] = true;
  peak_in_use_ = std::max(peak_in_use_, blocks_in_use());
  min_free_ = std::min(min_free_, blocks_free());
  return id;
}

void BlockAllocator::release(BlockId id) {
  HACK_CHECK(id < allocated_.size() && allocated_[id],
             "release of unallocated block " << id);
  allocated_[id] = false;
  free_list_.push_back(id);
}

}  // namespace hack
