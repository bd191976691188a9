// Batched multi-head HACK attention: every head of a transformer layer runs
// through one quantize pass and fused head-parallel HQ-GEMM launches.
//
// The per-head kernels in hack_attention.h process one (query head, KV head)
// pair at a time; at serving shapes (tens of heads, single-row decode) that
// hands the blocked HQ-GEMM engine tiny matmuls and leaves the ThreadPool
// idle between launches. This module batches a whole layer:
//
//   - HackLayerKvState owns all KV-head states of a layer plus one RNG
//     stream per KV head. Appended K/V is quantized for every head in one
//     pass (head-parallel on the shared pool for prefill-sized chunks) and
//     the stats of all heads roll up into a single HackAttnStats.
//   - hack_attention_batched() is the engine: it forks the Q- and P-quantizer
//     sub-streams for every head up front (in head order, so results are
//     bit-identical to serial per-head calls for any thread count) and
//     quantizes all Q heads. Multi-row (prefill) tasks then run a
//     streaming-softmax pass: each (head × q-row-band) work item walks the
//     key dimension in KV tiles, computing the Q·Kᵀ score tile, folding it
//     into a running row-max / rescaled-accumulator online softmax
//     (flash-style), quantizing the tile's softmax weights per absolute
//     Π-aligned segment, and accumulating the Eq. (4) P·V contribution —
//     all inside the item, so per-head score memory is O(q_rows · tile)
//     instead of O(L²) and the softmax → quantize → P·V phases stay
//     cache-resident at 16k+ contexts. Single-row queries keep the flat
//     path, which makes decode one batched GEMV launch for all heads.
//     P-tile sub-streams are forked per (head, tile, row) before dispatch
//     order matters, so outputs are bit-identical for any thread count and
//     any band decomposition (tile width does change the P codes, by
//     design — outputs agree within quantization noise).
//
// hack_attention() in hack_attention.h is a thin wrapper over this engine
// with a single task.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "attention/hack_attention.h"

namespace hack {

// One query head's attention problem over one KV head's quantized state.
// `q_rng` / `p_rng` are the pre-forked sub-streams for quantizing Q and P.
// Several tasks may share a `state` (GQA query heads reading one KV head);
// the engine prepares that head's Eq. (4) factors once.
//
// `options` (optional) overrides the launch-level AttentionOptions for this
// task alone. Multi-sequence launches use it: tasks of different serving
// sequences carry different key offsets (and cache lengths) yet run in one
// batched dispatch. Every task's computation touches only its own inputs, so
// outputs are identical whether tasks launch together or one call at a time.
struct HeadAttentionTask {
  const Matrix* q = nullptr;     // [lq, d_head] slice for this query head
  HackKvState* state = nullptr;  // KV head this query head attends over
  Rng* q_rng = nullptr;
  Rng* p_rng = nullptr;
  const AttentionOptions* options = nullptr;  // null: use the call-level one
};

// Runs every task's attention and writes outs[t] ([lq, d_head] per task).
// `stats` (optional) accumulates the work of all tasks. `threads` follows the
// HQ-GEMM convention: 0 = auto (all lanes of the shared pool), 1 = serial,
// N = N-way decomposition. Outputs are bit-identical for any thread count.
void hack_attention_batched(std::span<HeadAttentionTask> tasks,
                            const AttentionOptions& options,
                            std::vector<Matrix>& outs,
                            HackAttnStats* stats = nullptr, int threads = 0);

// Resolved KV-tile width for a streaming prefill over `lkv` cached tokens:
// config.tile_tokens when set, else an L2-aware heuristic — the largest
// whole-Π tile whose per-band score + P-code state (≈ 5 bytes/cell over a
// 64-row q band) fits half the per-core L2, clamped to [Π, 4096]. Whole-Π
// tiles keep every quantization segment SumCache-readable; the cap bounds the
// diagonal-tile overshoot of causal masking.
std::size_t attention_tile_tokens(const HackAttentionConfig& config,
                                  std::size_t lkv);

// Modeled peak attention working set (bytes) of one batched multi-head
// launch, for the bench comparison and capacity planning. The tiled model
// counts the at-most-`lanes` in-flight (head × q-row-band) items, each
// holding a band × tile score/P-code block (5 B/cell), the band × d_head
// int32 P·V accumulator tile, and per-segment factor vectors. The untiled
// model is the PR 2 engine: every in-flight head held full lq × lkv score,
// softmax, and P-code buffers (9 B/cell), chunked at a 96 MiB budget with a
// one-head floor.
std::size_t tiled_attention_working_set_bytes(std::size_t lq, std::size_t lkv,
                                              std::size_t query_heads,
                                              std::size_t d_head,
                                              std::size_t tile,
                                              std::size_t lanes);
std::size_t untiled_attention_working_set_bytes(std::size_t lq,
                                                std::size_t lkv,
                                                std::size_t query_heads);

// All KV-head states of one transformer layer, with the batched engine wired
// through append/attend. Matrix arguments are head-major slabs: K/V are
// [n, kv_heads * d_head], Q and the attention output [lq, query_heads *
// d_head], query head h reading KV head h / (query_heads / kv_heads).
//
// RNG discipline: KV head h draws from an independent stream seeded
// `seed + h`, used for its K/V quantization on append and forked (in query-
// head order) into the engine's Q/P sub-streams on attend. A layer therefore
// produces bit-identical output to query_heads serial hack_attention calls
// over per-head HackKvStates seeded the same way.
class HackLayerKvState {
 public:
  HackLayerKvState(std::size_t d_head, std::size_t kv_heads,
                   std::size_t query_heads, const HackAttentionConfig& config,
                   std::uint64_t seed);

  const HackAttentionConfig& config() const { return config_; }
  std::size_t d_head() const { return d_head_; }
  std::size_t kv_heads() const { return kv_heads_; }
  std::size_t query_heads() const { return query_heads_; }
  std::size_t tokens() const { return states_.empty() ? 0 : states_[0].tokens(); }

  // Appends `n` new tokens' K/V rows for every KV head in one pass.
  void append_tokens(const Matrix& k_all, const Matrix& v_all,
                     HackAttnStats* stats = nullptr);

  // Attention of all query heads over the cached tokens, batched.
  Matrix attend(const Matrix& q_all, const AttentionOptions& options,
                HackAttnStats* stats = nullptr);

  // Fused prefill: ingests the prompt's K/V and attends causally from
  // key_offset 0. The state must be fresh.
  Matrix prefill(const Matrix& q_all, const Matrix& k_all,
                 const Matrix& v_all, HackAttnStats* stats = nullptr);

  // One decode step: appends the new token's K/V rows (one per KV head) and
  // returns the single-row attention output for all query heads.
  Matrix decode_step(const Matrix& q_all, const Matrix& k_all,
                     const Matrix& v_all, HackAttnStats* stats = nullptr);

  // Memory accounting summed over KV heads (per-layer wire/cache footprint).
  std::size_t packed_kv_bytes() const;
  // Actual in-memory bytes of the resident code planes (see HackKvState).
  std::size_t resident_code_bytes() const;
  std::size_t sum_cache_bytes() const;
  std::size_t fp16_tail_bytes() const;
  std::size_t wire_bytes() const;

  // Per-KV-head access for tests.
  const HackKvState& head_state(std::size_t kv_head) const;

  // Mutable per-KV-head access for the multi-sequence attention batch.
  HackKvState& head_state_mut(std::size_t kv_head);

  // KV head h's master RNG stream. The KV wire format ships its raw state so
  // a rehydrated decode instance draws the exact sequence the prefill
  // instance would have drawn next — what makes the handoff bit-identical
  // under stochastic rounding.
  const Rng& head_rng(std::size_t kv_head) const;
  void set_head_rng(std::size_t kv_head, const Rng& rng);

  // Forks the Q/P quantizer sub-streams exactly as one attend() call would:
  // query-head order within each KV head, two forks per query head. The
  // multi-sequence batch calls this once per staged attend, so a sequence's
  // master-stream consumption is identical whether its attends run solo or
  // fused with other sequences.
  void fork_attend_streams(std::vector<Rng>& q_rngs, std::vector<Rng>& p_rngs);

 private:
  HackAttentionConfig config_;
  std::size_t d_head_;
  std::size_t kv_heads_;
  std::size_t query_heads_;
  std::size_t group_;  // query heads per KV head
  std::vector<HackKvState> states_;
  std::vector<Rng> rngs_;
};

// Cross-sequence fused attention: the layer attends of several sequences —
// each over its own HackLayerKvState, with its own query rows and key offset
// — staged into one hack_attention_batched launch. This is what keeps the
// thread pool fed under continuous batching: at decode shapes one sequence
// contributes query_heads single-row tasks, so a batch of N sequences gives
// the engine N × query_heads independent (head × q-band) work items in a
// single dispatch instead of N small ones.
//
// add() forks the sequence's Q/P quantizer sub-streams immediately (the same
// draws its solo attend() would make) and run() launches everything batched;
// because every task computes only from its own inputs, each sequence's
// output is bit-identical to a solo attend() on its state. attend() itself
// is a batch of one.
class MultiAttendBatch {
 public:
  // Stages one sequence's layer attend. `q_all` is [lq, query_heads *
  // d_head]; `out` receives the same shape on run(). References must stay
  // valid until run() returns.
  void add(HackLayerKvState& state, const Matrix& q_all,
           const AttentionOptions& options, Matrix* out);

  std::size_t sequences() const { return seqs_.size(); }

  // Launches every staged attend as one batched engine call. `threads`
  // follows the library convention (0 = auto, 1 = serial, N = N-way);
  // `stats` (optional) accumulates the work of all staged sequences.
  void run(int threads = 0, HackAttnStats* stats = nullptr);

 private:
  struct StagedSeq {
    HackLayerKvState* state = nullptr;
    const Matrix* q_all = nullptr;
    AttentionOptions options;
    Matrix* out = nullptr;
    std::vector<Matrix> q_heads;  // per-query-head column slices
    std::vector<Rng> q_rngs, p_rngs;
  };
  std::vector<std::unique_ptr<StagedSeq>> seqs_;  // stable addresses
};

}  // namespace hack
