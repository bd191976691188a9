#include "model/tiny_transformer.h"

namespace hack {

TinyTransformer::TinyTransformer(const TinyConfig& config,
                                 LayerBackendFactory factory)
    : TinyTransformer(make_tiny_weights(config), std::move(factory)) {}

TinyTransformer::TinyTransformer(
    std::shared_ptr<const TinyModelWeights> weights,
    LayerBackendFactory factory)
    : session_(std::move(weights), factory) {}

Matrix TinyTransformer::forward(const std::vector<int>& tokens) {
  return session_.forward_rows(tokens);
}

std::vector<float> TinyTransformer::prefill(const std::vector<int>& prompt) {
  HACK_CHECK(session_.position() == 0,
             "prefill on a used model; construct a fresh one");
  const Matrix hidden = forward(prompt);
  return session_.logits_for_row(hidden, hidden.rows() - 1);
}

std::vector<float> TinyTransformer::decode_step(int token) {
  HACK_CHECK(session_.position() > 0, "decode before prefill");
  const Matrix hidden = forward({token});
  return session_.logits_for_row(hidden, hidden.rows() - 1);
}

std::vector<int> TinyTransformer::generate(const std::vector<int>& prompt,
                                           std::size_t max_new_tokens,
                                           int eos) {
  std::vector<float> logits = prefill(prompt);
  std::vector<int> out;
  for (std::size_t i = 0; i < max_new_tokens; ++i) {
    const int best = argmax_logits(logits);
    if (best == eos) break;
    out.push_back(best);
    logits = decode_step(best);
  }
  return out;
}

}  // namespace hack
