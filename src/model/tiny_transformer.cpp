#include "model/tiny_transformer.h"

namespace hack {

TinyTransformer::TinyTransformer(const TinyConfig& config,
                                 LayerBackendFactory factory)
    : TinyTransformer(make_tiny_weights(config), std::move(factory)) {}

TinyTransformer::TinyTransformer(
    std::shared_ptr<const TinyModelWeights> weights,
    LayerBackendFactory factory)
    : session_(std::move(weights), factory) {}

std::vector<float> TinyTransformer::step(std::span<const int> tokens) {
  const StepLane lane{&session_, tokens, /*emits=*/true};
  const Matrix logits = step_lanes({&lane, 1}).logits;
  return {logits.flat().begin(), logits.flat().end()};
}

std::vector<float> TinyTransformer::prefill(const std::vector<int>& prompt) {
  HACK_CHECK(session_.position() == 0,
             "prefill on a used model; construct a fresh one");
  return step(prompt);
}

std::vector<float> TinyTransformer::decode_step(int token) {
  HACK_CHECK(session_.position() > 0, "decode before prefill");
  return step({&token, 1});
}

std::vector<int> TinyTransformer::generate(const std::vector<int>& prompt,
                                           std::size_t max_new_tokens,
                                           int eos) {
  std::vector<int> out;
  int token = argmax_logits(prefill(prompt));
  while (greedy_records(out.size(), token, max_new_tokens, eos)) {
    out.push_back(token);
    // The max_new_tokens-th token is the last one: no step after it.
    if (out.size() == max_new_tokens) break;
    token = argmax_logits(decode_step(token));
  }
  return out;
}

}  // namespace hack
