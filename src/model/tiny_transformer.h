// A real, runnable decoder-only transformer with pluggable KV backends.
//
// The paper's accuracy experiments (Table 6, Table 7, Table 8) measure how
// each KV-compression scheme perturbs generation. The mechanism is entirely
// inside attention — quantization error in K/V (and in HACK's case Q/P)
// shifts attention outputs, which shift logits, which eventually flip
// generated tokens. This module reproduces that mechanism end-to-end with a
// small but complete model: token embeddings, RMSNorm, RoPE, grouped-query
// attention routed through a pluggable per-layer KV backend, SwiGLU MLP,
// tied LM head, greedy decoding. Weights are deterministic functions of a
// seed.
//
// Backends (LayerBackendFactory, model/session.h):
//   - make_exact_backend: exact FP32 (reference / "ground truth" generation)
//   - make_fp16_backend: FP16 cache (the disaggregation baseline)
//   - make_hack_layer_backend: HACK (homomorphic quantized attention over
//     all heads of a layer, any HackAttentionConfig)
//   - make_codec_backend: CacheGen/KVQuant (compress on append, dequantize
//     to attend)
//   - make_minifloat_backend: FP4/6/8 storage
//
// TinyTransformer is a convenience wrapper over the shared-weights model in
// model/session.h: one TinyModelWeights (possibly shared with other
// instances) plus one TinyModelSession, with the classic whole-model
// prefill / decode_step / generate API. Serving-scale code (the continuous
// batching engine in serving/engine.h) uses the session API directly so N
// concurrent requests share a single weight instance.
#pragma once

#include <memory>
#include <vector>

#include "model/session.h"

namespace hack {

class TinyTransformer {
 public:
  TinyTransformer(const TinyConfig& config, LayerBackendFactory factory);
  // Shared-weights constructor: N instances built from the same weights
  // pointer hold no per-instance parameter copies.
  TinyTransformer(std::shared_ptr<const TinyModelWeights> weights,
                  LayerBackendFactory factory);

  const TinyConfig& config() const { return session_.config(); }
  std::size_t tokens_processed() const { return session_.position(); }

  TinyModelSession& session() { return session_; }
  const TinyModelSession& session() const { return session_; }

  // Processes the prompt and returns the logits row for its last token.
  std::vector<float> prefill(const std::vector<int>& prompt);

  // Processes one token and returns the next logits row.
  std::vector<float> decode_step(int token);

  // Greedy generation: prefill + argmax decode loop. Returns generated
  // tokens (prompt excluded). Stops at max_new_tokens or eos (if >= 0).
  std::vector<int> generate(const std::vector<int>& prompt,
                            std::size_t max_new_tokens, int eos = -1);

  // Total stored KV bytes across all heads/layers.
  std::size_t kv_stored_bytes() const { return session_.kv_stored_bytes(); }

 private:
  // Runs `tokens` rows through the stack; returns final hidden states.
  Matrix forward(const std::vector<int>& tokens);

  TinyModelSession session_;
};

}  // namespace hack
