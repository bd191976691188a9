#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <span>

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

// The step's per-layer sequence for one lane, spelled out with the session's
// public pieces: the reference step_lanes is checked against.
std::vector<float> reference_step(TinyModelSession& session,
                                  const std::vector<int>& tokens) {
  const std::size_t pos = session.position();
  Matrix x = session.weights().embed(tokens);
  for (std::size_t layer = 0; layer < session.layers(); ++layer) {
    const Matrix q = session.project_and_append(layer, x, pos);
    const Matrix attn = session.backend(layer).attend(q, pos);
    x = session.finish_layer(layer, std::move(x), attn);
  }
  session.advance(tokens.size());
  return session.logits_for_row(x, x.rows() - 1);
}

// step_lanes over three sessions at once — a multi-row prefill chunk between
// two decode lanes — gives every emitting lane the logits row it gets when
// stepped alone, bit for bit, and advances each position by exactly that
// lane's rows. Stepped alone means both a one-lane step_lanes and the
// per-layer reference. A second all-decode step checks that the KV state
// each lane appended matches too. Covers the fused HACK attend and the
// per-lane exact attends, serial and on the pool.
TEST(ModelStep, LanesSteppedTogetherMatchLanesSteppedAlone) {
  TinyConfig cfg = small_config();
  cfg.heads = 4;
  cfg.kv_heads = 2;
  const auto weights = make_tiny_weights(cfg);
  HackAttentionConfig hc;
  hc.pi = 32;  // stochastic rounding: a misplaced draw moves the logits

  struct Method {
    const char* name;
    std::function<LayerBackendFactory(std::uint64_t)> make;
    bool fused;
  };
  const std::vector<Method> methods = {
      {"hack", [&](std::uint64_t seed) {
         return make_hack_layer_backend(hc, seed);
       }, true},
      {"exact", [](std::uint64_t) { return make_exact_backend(); }, false},
  };
  const std::vector<int> chunk = make_prompt(12, cfg.vocab, 20);
  const std::vector<int> prefix_a = make_prompt(9, cfg.vocab, 21);
  const std::vector<int> prefix_b = make_prompt(14, cfg.vocab, 22);

  const auto same_bits = [](std::span<const float> a,
                            std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };

  for (const Method& method : methods) {
    for (const int threads : {1, 0}) {
      SCOPED_TRACE(testing::Message() << method.name << " threads "
                                      << threads);
      // Lane order: decode A, prefill chunk, decode B. Each lane has two
      // twin sessions: one stepped alone, one run through the reference.
      std::vector<std::unique_ptr<TinyModelSession>> together, alone, ref;
      for (std::uint64_t lane = 0; lane < 3; ++lane) {
        for (auto* set : {&together, &alone, &ref}) {
          set->push_back(std::make_unique<TinyModelSession>(
              weights, method.make(100 + lane * 10)));
        }
      }
      const std::vector<int>* prefixes[3] = {&prefix_a, nullptr, &prefix_b};
      for (std::size_t lane = 0; lane < 3; ++lane) {
        if (prefixes[lane] == nullptr) continue;
        for (auto* set : {&together, &alone}) {
          const StepLane warm{(*set)[lane].get(), *prefixes[lane], false};
          EXPECT_EQ(step_lanes({&warm, 1}, threads).logits.rows(), 0u);
        }
        (void)reference_step(*ref[lane], *prefixes[lane]);
      }

      std::vector<int> inputs[3] = {{prefix_a.back()}, chunk,
                                    {prefix_b.back()}};
      for (int step = 0; step < 2; ++step) {
        std::vector<StepLane> lanes;
        std::vector<std::size_t> before;
        for (std::size_t lane = 0; lane < 3; ++lane) {
          lanes.push_back({together[lane].get(), inputs[lane], true});
          before.push_back(together[lane]->position());
        }
        const StepOutput out = step_lanes(lanes, threads);
        EXPECT_EQ(out.fused, method.fused);
        ASSERT_EQ(out.logits.rows(), 3u);
        for (std::size_t lane = 0; lane < 3; ++lane) {
          SCOPED_TRACE(testing::Message() << "lane " << lane << " step "
                                          << step);
          EXPECT_EQ(together[lane]->position(),
                    before[lane] + inputs[lane].size());
          const StepLane solo{alone[lane].get(), inputs[lane], true};
          const StepOutput solo_out = step_lanes({&solo, 1}, threads);
          EXPECT_TRUE(same_bits(out.logits.row(lane), solo_out.logits.row(0)));
          EXPECT_TRUE(same_bits(out.logits.row(lane),
                                reference_step(*ref[lane], inputs[lane])));
          EXPECT_EQ(alone[lane]->position(), together[lane]->position());
          EXPECT_EQ(ref[lane]->position(), together[lane]->position());
          inputs[lane] = {argmax_logits(out.logits.row(lane))};
        }
      }
    }
  }
}

}  // namespace
}  // namespace hack
