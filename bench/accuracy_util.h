// Shared accuracy-measurement harness for the Table 6/7/8 benches.
//
// Free-running greedy decode is chaotic on a random-weight model: the first
// flipped token derails everything after it, so sequence similarity
// collapses to ~0 and stops discriminating between methods. The statistic
// that isolates the paper's mechanism — how often KV-quantization error
// flips a generation decision — is *teacher-forced token agreement*: both
// models consume the reference token stream, and we count the steps where
// the method's argmax matches the reference's. This is a per-decision error
// rate, directly comparable across methods, and maps monotonically onto the
// paper's task-accuracy deltas.
#pragma once

#include <cmath>
#include <vector>

#include "model/tiny_transformer.h"
#include "workload/corpus.h"

namespace hack::bench {

inline TinyConfig accuracy_model_config(std::uint64_t weight_seed) {
  TinyConfig c;
  c.vocab = 256;
  c.layers = 2;
  c.heads = 2;
  c.kv_heads = 2;
  c.d_head = 128;  // divisible by Π = 32, 64 and 128
  c.d_ff = 512;
  c.weight_seed = weight_seed;
  return c;
}

// Reference greedy continuation from the exact-arithmetic model.
inline std::vector<int> reference_tokens(const TinyConfig& config,
                                         const std::vector<int>& prompt,
                                         std::size_t steps) {
  TinyTransformer model(config, make_exact_backend());
  return model.generate(prompt, steps);
}

// Fraction of decode steps where `factory`'s model picks the same token as
// the reference, with both fed the reference stream (teacher forcing).
inline double token_agreement(const TinyConfig& config,
                              const LayerBackendFactory& factory,
                              const std::vector<int>& prompt,
                              const std::vector<int>& reference) {
  TinyTransformer model(config, factory);
  std::vector<float> logits = model.prefill(prompt);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (argmax_logits(logits) == reference[i]) {
      ++agree;
    }
    logits = model.decode_step(reference[i]);
  }
  return reference.empty()
             ? 1.0
             : static_cast<double>(agree) / static_cast<double>(reference.size());
}

// Mean per-step cosine similarity between the method's logits and the exact
// model's logits under teacher forcing. Continuous and low-variance — the
// right instrument for sub-point accuracy deltas (Table 7, Table 8) where
// discrete token flips would be all noise.
inline double logit_fidelity(const TinyConfig& config,
                             const LayerBackendFactory& factory,
                             const std::vector<int>& prompt,
                             const std::vector<int>& reference) {
  TinyTransformer exact(config, make_exact_backend());
  TinyTransformer model(config, factory);
  std::vector<float> exact_logits = exact.prefill(prompt);
  std::vector<float> logits = model.prefill(prompt);
  double total = 0.0;
  std::size_t steps = 0;
  auto cosine = [](const std::vector<float>& a, const std::vector<float>& b) {
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      dot += static_cast<double>(a[i]) * b[i];
      na += static_cast<double>(a[i]) * a[i];
      nb += static_cast<double>(b[i]) * b[i];
    }
    return dot / std::sqrt(na * nb);
  };
  for (const int token : reference) {
    total += cosine(logits, exact_logits);
    ++steps;
    exact_logits = exact.decode_step(token);
    logits = model.decode_step(token);
  }
  return steps == 0 ? 1.0 : total / static_cast<double>(steps);
}

}  // namespace hack::bench
