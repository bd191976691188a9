#include <gtest/gtest.h>

#include <cmath>

#include "base/check.h"
#include "model/tiny_transformer.h"
#include "workload/corpus.h"

namespace hack {
namespace {

TinyConfig small_config() {
  TinyConfig c;
  c.vocab = 64;
  c.layers = 2;
  c.heads = 2;
  c.kv_heads = 2;
  c.d_head = 32;
  c.d_ff = 128;
  return c;
}

std::vector<int> make_prompt(std::size_t len, std::size_t vocab,
                             std::uint64_t seed) {
  SyntheticCorpus corpus({.vocab = vocab}, seed);
  return corpus.prompt(0, len);
}

TEST(TinyTransformer, DeterministicGeneration) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(24, cfg.vocab, 1);
  TinyTransformer a(cfg, make_exact_backend());
  TinyTransformer b(cfg, make_exact_backend());
  EXPECT_EQ(a.generate(prompt, 16), b.generate(prompt, 16));
}

TEST(TinyTransformer, DifferentSeedsDifferentWeights) {
  TinyConfig c1 = small_config(), c2 = small_config();
  c2.weight_seed = 999;
  const auto prompt = make_prompt(24, c1.vocab, 2);
  TinyTransformer a(c1, make_exact_backend());
  TinyTransformer b(c2, make_exact_backend());
  EXPECT_NE(a.generate(prompt, 16), b.generate(prompt, 16));
}

TEST(TinyTransformer, LogitsFiniteAndVocabSized) {
  const TinyConfig cfg = small_config();
  TinyTransformer model(cfg, make_exact_backend());
  const auto logits = model.prefill(make_prompt(16, cfg.vocab, 3));
  ASSERT_EQ(logits.size(), cfg.vocab);
  for (const float l : logits) EXPECT_TRUE(std::isfinite(l));
}

TEST(TinyTransformer, PrefillThenDecodeAdvancesPosition) {
  const TinyConfig cfg = small_config();
  TinyTransformer model(cfg, make_exact_backend());
  (void)model.prefill(make_prompt(10, cfg.vocab, 4));
  EXPECT_EQ(model.tokens_processed(), 10u);
  (void)model.decode_step(5);
  EXPECT_EQ(model.tokens_processed(), 11u);
}

TEST(TinyTransformer, DecodeBeforePrefillThrows) {
  TinyTransformer model(small_config(), make_exact_backend());
  EXPECT_THROW(model.decode_step(0), CheckError);
}

TEST(TinyTransformer, TokenOutOfVocabThrows) {
  TinyTransformer model(small_config(), make_exact_backend());
  EXPECT_THROW(model.prefill({0, 1, 64}), CheckError);
}

TEST(TinyTransformer, GqaGrouping) {
  TinyConfig cfg = small_config();
  cfg.heads = 4;
  cfg.kv_heads = 2;  // 2 query heads per KV head
  TinyTransformer model(cfg, make_exact_backend());
  const auto out = model.generate(make_prompt(16, cfg.vocab, 5), 8);
  EXPECT_EQ(out.size(), 8u);
}

TEST(TinyTransformer, InvalidGqaThrows) {
  TinyConfig cfg = small_config();
  cfg.heads = 3;
  cfg.kv_heads = 2;
  EXPECT_THROW(TinyTransformer(cfg, make_exact_backend()), CheckError);
}

TEST(TinyTransformer, Fp16BackendMatchesExactClosely) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(32, cfg.vocab, 6);
  TinyTransformer exact(cfg, make_exact_backend());
  TinyTransformer fp16(cfg, make_fp16_backend());
  const auto ref = exact.generate(prompt, 24);
  const auto out = fp16.generate(prompt, 24);
  // FP16 KV rounding rarely flips tokens at this scale.
  std::size_t agree = 0;
  for (std::size_t i = 0; i < ref.size() && i < out.size(); ++i) {
    if (ref[i] == out[i]) ++agree;
  }
  EXPECT_GT(agree * 10, ref.size() * 7);  // >= 70% agreement
}

TEST(TinyTransformer, HackBackendGeneratesPlausibly) {
  TinyConfig cfg = small_config();
  const auto prompt = make_prompt(48, cfg.vocab, 7);
  HackAttentionConfig hc;
  hc.pi = 32;  // must divide d_head = 32
  TinyTransformer exact(cfg, make_exact_backend());
  TinyTransformer hacked(cfg, make_hack_layer_backend(hc, 42));
  const auto ref = exact.generate(prompt, 16);
  const auto out = hacked.generate(prompt, 16);
  EXPECT_EQ(out.size(), 16u);
  for (const int tok : out) {
    EXPECT_GE(tok, 0);
    EXPECT_LT(tok, static_cast<int>(cfg.vocab));
  }
  (void)ref;
}

TEST(TinyTransformer, HackBackendDeterministicForSeed) {
  TinyConfig cfg = small_config();
  const auto prompt = make_prompt(32, cfg.vocab, 8);
  HackAttentionConfig hc;
  hc.pi = 32;
  TinyTransformer a(cfg, make_hack_layer_backend(hc, 7));
  TinyTransformer b(cfg, make_hack_layer_backend(hc, 7));
  EXPECT_EQ(a.generate(prompt, 12), b.generate(prompt, 12));
}

TEST(TinyTransformer, CodecBackendRuns) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(24, cfg.vocab, 9);
  TinyTransformer model(
      cfg, make_codec_backend(make_codec("cachegen"), 11));
  const auto out = model.generate(prompt, 8);
  EXPECT_EQ(out.size(), 8u);
}

TEST(TinyTransformer, MiniFloatBackendRuns) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(24, cfg.vocab, 10);
  TinyTransformer model(cfg,
                        make_minifloat_backend(MiniFloatFormat::kFp8E4M3));
  EXPECT_EQ(model.generate(prompt, 8).size(), 8u);
}

TEST(TinyTransformer, KvBytesReflectBackendCompression) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(64, cfg.vocab, 11);
  HackAttentionConfig hc;
  hc.pi = 32;

  TinyTransformer fp16(cfg, make_fp16_backend());
  TinyTransformer hacked(cfg, make_hack_layer_backend(hc, 13));
  (void)fp16.prefill(prompt);
  (void)hacked.prefill(prompt);
  // HACK's quantized cache is far below the FP16 cache (≈ 6x smaller).
  EXPECT_LT(hacked.kv_stored_bytes() * 3, fp16.kv_stored_bytes());
}

TEST(TinyTransformer, Fp8CacheIsHalfOfFp16) {
  const TinyConfig cfg = small_config();
  const auto prompt = make_prompt(64, cfg.vocab, 12);
  TinyTransformer fp16(cfg, make_fp16_backend());
  TinyTransformer fp8(cfg, make_minifloat_backend(MiniFloatFormat::kFp8E4M3));
  (void)fp16.prefill(prompt);
  (void)fp8.prefill(prompt);
  EXPECT_EQ(fp8.kv_stored_bytes() * 2, fp16.kv_stored_bytes());
}

TEST(TinyTransformer, EosStopsGeneration) {
  const TinyConfig cfg = small_config();
  TinyTransformer probe(cfg, make_exact_backend());
  const auto prompt = make_prompt(16, cfg.vocab, 13);
  const auto unbounded = probe.generate(prompt, 12);
  ASSERT_GE(unbounded.size(), 2u);
  // Re-run with eos = the second generated token: generation must stop there.
  TinyTransformer model(cfg, make_exact_backend());
  const auto stopped = model.generate(prompt, 12, /*eos=*/unbounded[1]);
  EXPECT_LT(stopped.size(), unbounded.size());
}

}  // namespace
}  // namespace hack
