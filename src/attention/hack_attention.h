// HACK attention: self-attention computed directly on quantized KV data.
//
// Reproduces the paper's attn_prefill / attn_decode kernels (§5.3, §6) on the
// CPU: Q is quantized to 8 bits, K and V to 2 bits (configurable), the
// Q·Kᵀ and P·V matmuls run through homomorphic quantization (Eq. 4), and KV
// data is never dequantized. Two optimizations are modeled faithfully and can
// be toggled for the ablation study (§7.4):
//   - SE  (summation elimination): Σ b' code sums are cached at quantization
//     time instead of recomputed each decode iteration.
//   - RQE (requantization elimination): the trailing, not-yet-full partition
//     of V stays in FP16 and is multiplied un-quantized; without it, the last
//     block is requantized from its own dequantized values every iteration,
//     accumulating error (Fig. 8).
#pragma once

#include <cstdint>

#include "attention/reference.h"
#include "base/rng.h"
#include "core/hq_matmul.h"
#include "core/sum_cache.h"
#include "quant/quantizer.h"
#include "tensor/matrix.h"

namespace hack {

struct HackAttentionConfig {
  std::size_t pi = 64;  // quantization partition size Π (multiple of 16)
  int q_bits = 8;       // Q and P precision (§5.1: 8-bit for accuracy)
  int kv_bits = 2;      // K and V precision (§5.1: 2-bit for compression)
  Rounding rounding = Rounding::kStochastic;
  bool summation_elimination = true;
  bool requant_elimination = true;
  // HQ-GEMM parallelism for the prefill Q·Kᵀ and P·V matmuls: 0 = auto (the
  // shared ThreadPool, sized by HACK_NUM_THREADS / the hardware), 1 = serial,
  // N = N row bands. Decode's single-row matmuls always take the serial GEMV
  // fast path.
  int threads = 0;
  // KV-tile width (tokens) of the streaming-softmax prefill: the engine walks
  // the key dimension in tiles of this many tokens with an online softmax, so
  // per-head score memory is O(q_rows · tile) instead of O(L²). 0 = auto: an
  // L2-aware heuristic (see attention_tile_tokens in
  // attention/layer_attention.h).
  // Single-row (decode) launches materialize one score row and ignore this.
  std::size_t tile_tokens = 0;
};

// Work counters accumulated across kernel invocations; benchmarks and the
// ablation study read these.
struct HackAttnStats {
  std::int64_t quantized_values = 0;   // values passed through the quantizer
  std::int64_t int_macs = 0;           // integer GEMM multiply-accumulates
  std::int64_t approx_flops = 0;       // Eq. (4) correction flops
  std::int64_t sum_recompute_flops = 0;  // Σ b' adds paid when SE is off
  std::int64_t fp16_tail_macs = 0;     // FP16 MACs on the last block of V
  std::int64_t requant_events = 0;     // last-block requantizations (RQE off)
  std::int64_t requant_values = 0;     // values requantized in those events
};

// Per-head quantized KV state: the decode instance's KV cache content plus
// everything the prefill instance ships over the wire (codes, m, s, sums,
// FP16 tail).
class HackKvState {
 public:
  HackKvState(std::size_t d_head, const HackAttentionConfig& config);

  const HackAttentionConfig& config() const { return config_; }
  std::size_t d_head() const { return d_head_; }
  std::size_t tokens() const { return tokens_; }

  // Rows of V currently held in the packed quantized cache (a multiple of Π).
  std::size_t quantized_v_rows() const;

  // Appends new tokens' K and V rows ([n, d_head] each); used both for the
  // whole prompt in prefill and one row at a time in decode.
  void append_tokens(const Matrix& k_new, const Matrix& v_new, Rng& rng,
                     HackAttnStats* stats = nullptr);

  // Memory accounting (bytes), matching the paper's categories in §7.4.
  std::size_t packed_kv_bytes() const;   // packed codes + FP16 (m, s) metadata
  // Bytes the code planes actually occupy in memory (codes.size(), not the
  // modeled packed size). With packed-resident storage this matches
  // packed_kv_bytes' code term; it exists so benchmarks report the real
  // footprint rather than a formula.
  std::size_t resident_code_bytes() const;
  std::size_t sum_cache_bytes() const;   // SE sums (0 when SE disabled)
  std::size_t fp16_tail_bytes() const;   // RQE FP16 last block (0 when off)
  std::size_t wire_bytes() const;        // what prefill transmits to decode

  // Read access for tests and the batched attention engine.
  bool k_ready() const { return k_init_; }
  const QuantizedMatrix& k() const { return k_; }
  const QuantizedMatrix& v_quantized() const { return v_q_; }
  const Matrix& v_tail_fp16() const { return v_tail_fp16_; }
  const SumCache& k_sums() const { return k_sums_; }
  const SumCache& v_sums() const { return v_sums_; }
  bool v_quantized_ready() const { return v_init_; }
  bool v_tail_quantized_ready() const { return v_tail_q_init_; }
  const QuantizedMatrix& v_tail_quantized() const { return v_tail_q_; }

  // RQE-off view of V: the full-partition store with the ragged quantized
  // tail group spliced on, covering every cached token. The tail violates the
  // whole-group invariant of append_inner_groups, so the splice is done here:
  // codes are row-contiguous, metadata gains one group.
  QuantizedMatrix v_quantized_all() const;

  // Replaces the state's contents with rehydrated wire-format sections
  // (kvcache/kv_wire.h) — the decode-instance half of the disaggregated
  // handoff. The codes, metadata, SE sums, and FP16 tail land exactly as the
  // prefill instance shipped them; no value is requantized. Shapes are
  // validated against this state's config. `v_tail_q_present` distinguishes
  // an absent RQE-off tail from an empty one (tokens a multiple of Π).
  void restore(std::size_t tokens, QuantizedMatrix k, SumCache k_sums,
               QuantizedMatrix v_q, SumCache v_sums, Matrix v_tail_fp16,
               QuantizedMatrix v_tail_q, bool v_tail_q_present);

 private:
  // RQE-off path: folds `rows` new V rows into the ragged quantized tail by
  // dequantize -> append -> requantize (the expensive path of Fig. 8).
  void requantize_tail(const Matrix& rows, Rng& rng, HackAttnStats* stats);

  // Moves full partitions out of the FP16/requantized tail into v_q_.
  void promote_full_partitions(Rng& rng, HackAttnStats* stats);

  HackAttentionConfig config_;
  std::size_t d_head_;
  std::size_t tokens_ = 0;

  QuantizedMatrix k_;    // row-axis over d_head, one token per row
  SumCache k_sums_;
  bool k_init_ = false;

  QuantizedMatrix v_q_;  // col-axis over the sequence dim, whole-Π groups
  SumCache v_sums_;
  bool v_init_ = false;

  Matrix v_tail_fp16_;       // RQE on: exact FP16 rows, < Π of them
  QuantizedMatrix v_tail_q_; // RQE off: one ragged quantized group
  bool v_tail_q_init_ = false;
};

// Attention of one query head over the quantized state. The state must
// already contain the K/V rows for all tokens q attends to: prefill appends
// the prompt (append_tokens) and attends its L_Q rows at key_offset 0;
// decode appends one token and attends its single row at key_offset =
// tokens() - 1. A single-task call into the batched multi-head engine in
// attention/layer_attention.h: it forks the Q/P quantizer sub-streams from
// `rng` in the same order the layer engine does, so a serial loop of
// per-head calls is bit-identical to one batched layer call.
Matrix hack_attention(const Matrix& q, HackKvState& state,
                      const AttentionOptions& options, Rng& rng,
                      HackAttnStats* stats = nullptr);

}  // namespace hack
