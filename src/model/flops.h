// FLOP and byte calculators for transformer inference.
//
// Standard counting: a weight matmul over L tokens costs 2·L·params_in_layer
// flops; attention score/value matmuls cost 4·L²·d_head·heads per layer in
// prefill and 4·L·d_head·heads per generated token in decode. The cluster
// simulator converts these into seconds with per-GPU throughputs.
#pragma once

#include "model/config.h"

namespace hack {

// Total prefill flops for a prompt of length l.
double prefill_flops(const ModelConfig& m, double l);

// Flops of one decode step at context length l (weights + attention).
double decode_step_flops(const ModelConfig& m, double l);

// Of which: the KV-related attention matmul flops (the part HACK accelerates
// with integer compute). Prefill variant counts Q·Kᵀ and P·V over the
// causal half.
double prefill_attention_flops(const ModelConfig& m, double l);
double decode_step_attention_flops(const ModelConfig& m, double l);

// FP16 KV bytes for a whole sequence of length l (all layers, K and V).
double kv_bytes_fp16(const ModelConfig& m, double l);

// The per-step dequantization work baseline methods pay in decode, in flops.
double decode_dequant_flops(const ModelConfig& m, double l);

// HACK's Eq. (4) approximation flops for one decode step with SE (§5.3):
// 10(d_h + L) per head per layer.
double decode_hack_approx_flops(const ModelConfig& m, double l);

// Extra flops when SE is disabled: recomputing Σ b' over K and V.
double decode_sum_recompute_flops(const ModelConfig& m, double l);

}  // namespace hack
