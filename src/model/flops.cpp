#include "model/flops.h"

#include "core/cost_model.h"

namespace hack {

double prefill_flops(const ModelConfig& m, double l) {
  // Weight matmuls: 2 flops per parameter per token.
  const double weight = 2.0 * m.params * l;
  return weight + prefill_attention_flops(m, l);
}

double prefill_attention_flops(const ModelConfig& m, double l) {
  // Causal attention touches ~L²/2 (query, key) pairs; Q·Kᵀ and P·V each
  // cost 2·d_head flops per pair per head.
  const double pairs = 0.5 * l * l;
  return 4.0 * pairs * static_cast<double>(m.d_head * m.heads * m.layers);
}

double decode_step_flops(const ModelConfig& m, double l) {
  const double weight = 2.0 * m.params;
  return weight + decode_step_attention_flops(m, l);
}

double decode_step_attention_flops(const ModelConfig& m, double l) {
  return 4.0 * l * static_cast<double>(m.d_head * m.heads * m.layers);
}

double kv_bytes_fp16(const ModelConfig& m, double l) {
  return m.kv_bytes_per_token_fp16() * l;
}

double decode_dequant_flops(const ModelConfig& m, double l) {
  // 4·d_h·L per (layer, kv head): one FMA per K and V element (§5.3).
  return static_cast<double>(m.layers * m.kv_heads) *
         static_cast<double>(decode_dequant_flops(
             static_cast<std::int64_t>(m.d_head), static_cast<std::int64_t>(l)));
}

double decode_hack_approx_flops(const ModelConfig& m, double l) {
  // 10(d_h + L) per (layer, attention head): both HQ matmuls of the step.
  return static_cast<double>(m.layers * m.heads) *
         static_cast<double>(decode_approx_flops_se(
             static_cast<std::int64_t>(m.d_head), static_cast<std::int64_t>(l)));
}

double decode_sum_recompute_flops(const ModelConfig& m, double l) {
  return static_cast<double>(m.layers * m.kv_heads) *
         static_cast<double>(hack::decode_sum_recompute_flops(
             static_cast<std::int64_t>(m.d_head), static_cast<std::int64_t>(l)));
}

}  // namespace hack
