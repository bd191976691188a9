// Fixed-pool block allocator — the vLLM PagedAttention memory substrate.
//
// GPU KV memory is carved into equal-size blocks; each sequence owns a list of
// block ids, and every block has exactly one owner. The allocator never
// over-commits: alloc fails when the pool is exhausted, which is the
// condition that triggers CPU swap in the disaggregated flow.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.h"

namespace hack {

using BlockId = std::uint32_t;
inline constexpr BlockId kInvalidBlock = UINT32_MAX;

class BlockAllocator {
 public:
  BlockAllocator(std::size_t num_blocks, std::size_t block_bytes);

  std::size_t num_blocks() const { return allocated_.size(); }
  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t blocks_free() const { return free_list_.size(); }
  std::size_t blocks_in_use() const { return num_blocks() - blocks_free(); }
  std::size_t bytes_in_use() const { return blocks_in_use() * block_bytes_; }
  std::size_t peak_blocks_in_use() const { return peak_in_use_; }

  // Free-block watermark: the lowest blocks_free() ever observed. The serving
  // scheduler's admission control reads this to see how close the pool came
  // to exhaustion under a workload.
  std::size_t min_free_watermark() const { return min_free_; }

  // Cumulative allocate() calls that failed on an empty pool (the OOM signal
  // that triggers CPU swap / admission backpressure in the disaggregated
  // flow).
  std::size_t failed_allocations() const { return failed_allocations_; }

  bool can_allocate(std::size_t count) const { return count <= blocks_free(); }

  // Allocates one block; returns kInvalidBlock when full.
  BlockId allocate();

  // Returns an allocated block to the free list. Throws on an id that is not
  // currently allocated (never allocated, or already released).
  void release(BlockId id);

 private:
  std::size_t block_bytes_;
  std::vector<bool> allocated_;
  std::vector<BlockId> free_list_;
  std::size_t peak_in_use_ = 0;
  std::size_t min_free_ = 0;
  std::size_t failed_allocations_ = 0;
};

}  // namespace hack
