// Tests for the HACK attention kernels: prefill, decode, SE and RQE.
#include <gtest/gtest.h>

#include "attention/hack_attention.h"
#include "attention/reference.h"
#include "metrics/tensor_metrics.h"
#include "tensor/ops.h"

namespace hack {
namespace {

struct Inputs {
  Matrix q, k, v;
};

Inputs make_inputs(std::size_t l, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  return {Matrix::random_gaussian(l, d, rng), Matrix::random_gaussian(l, d, rng),
          Matrix::random_gaussian(l, d, rng)};
}

HackAttentionConfig config_pi(std::size_t pi) {
  HackAttentionConfig c;
  c.pi = pi;
  return c;
}

// Prefill: the prompt's K/V go into a fresh state, then every query row
// attends causally from key_offset 0.
Matrix attend_prompt(const Inputs& in, HackKvState& state, Rng& rng,
                     HackAttnStats* stats = nullptr) {
  state.append_tokens(in.k, in.v, rng, stats);
  return hack_attention(in.q, state, {.causal = true, .key_offset = 0}, rng,
                        stats);
}

// One decode step: append the token's K/V, then attend its single query row
// at the last timeline position.
Matrix attend_token(const Matrix& q_row, const Matrix& k_row,
                    const Matrix& v_row, HackKvState& state, Rng& rng) {
  state.append_tokens(k_row, v_row, rng);
  return hack_attention(
      q_row, state, {.causal = true, .key_offset = state.tokens() - 1}, rng);
}

TEST(HackKvState, RejectsBadGeometry) {
  EXPECT_THROW(HackKvState(100, config_pi(64)), CheckError);  // Π ∤ d_head
  HackAttentionConfig bad_pi;
  bad_pi.pi = 24;
  EXPECT_THROW(HackKvState(96, bad_pi), CheckError);  // Π not multiple of 16
}

TEST(HackKvState, VTailPromotionAtPartitionBoundary) {
  HackKvState state(64, config_pi(32));
  Rng rng(1);
  const Inputs in = make_inputs(31, 64, 2);
  state.append_tokens(in.k, in.v, rng);
  EXPECT_EQ(state.tokens(), 31u);
  EXPECT_EQ(state.quantized_v_rows(), 0u);  // tail not yet full
  EXPECT_EQ(state.v_tail_fp16().rows(), 31u);

  const Inputs one = make_inputs(1, 64, 3);
  state.append_tokens(one.k, one.v, rng);
  EXPECT_EQ(state.quantized_v_rows(), 32u);  // promoted exactly at Π
  EXPECT_EQ(state.v_tail_fp16().rows(), 0u);
}

TEST(HackKvState, KGrowsByWholeTokens) {
  HackKvState state(64, config_pi(32));
  Rng rng(4);
  const Inputs in = make_inputs(5, 64, 5);
  state.append_tokens(in.k, in.v, rng);
  EXPECT_EQ(state.k().rows, 5u);
  EXPECT_EQ(state.k().group_count(), 2u);  // d_head 64 / Π 32
}

TEST(HackKvState, MemoryAccountingTracksGrowth) {
  HackKvState state(64, config_pi(32));
  Rng rng(6);
  const Inputs in = make_inputs(64, 64, 7);
  state.append_tokens(in.k, in.v, rng);
  EXPECT_GT(state.packed_kv_bytes(), 0u);
  EXPECT_GT(state.sum_cache_bytes(), 0u);
  EXPECT_EQ(state.fp16_tail_bytes(), 0u);  // 64 tokens = 2 whole partitions
  const std::size_t before = state.wire_bytes();
  const Inputs more = make_inputs(10, 64, 8);
  state.append_tokens(more.k, more.v, rng);
  EXPECT_GT(state.wire_bytes(), before);
  EXPECT_EQ(state.fp16_tail_bytes(), 10u * 64u * 2u);
}

TEST(HackKvState, CompressionNearSixBuckets) {
  // 2-bit codes + metadata: wire bytes should be ~17% of FP16 (§7.2 reports
  // KV compressed to ~15% of original size).
  HackKvState state(128, config_pi(64));
  Rng rng(9);
  const Inputs in = make_inputs(512, 128, 10);
  state.append_tokens(in.k, in.v, rng);
  const double fp16_bytes = 2.0 * 2.0 * 512.0 * 128.0;
  const double fraction = static_cast<double>(state.wire_bytes()) / fp16_bytes;
  EXPECT_GT(fraction, 0.13);
  EXPECT_LT(fraction, 0.20);
}

TEST(HackAttention, PrefillApproximatesReference) {
  const Inputs in = make_inputs(96, 64, 11);
  HackKvState state(64, config_pi(32));
  Rng rng(12);
  HackAttnStats stats{};
  const Matrix out = attend_prompt(in, state, rng, &stats);
  const Matrix ref = attention_reference(in.q, in.k, in.v, {.causal = true});
  // I.i.d. Gaussian K/V is the worst case for 2-bit quantization (real KV
  // has channel structure); the output must still point the same way.
  EXPECT_LT(relative_l2(out, ref), 0.9);
  EXPECT_GT(cosine_similarity(out, ref), 0.75);
  EXPECT_GT(stats.int_macs, 0);
  EXPECT_GT(stats.approx_flops, 0);
}

TEST(HackAttention, EightBitKvIsNearExact) {
  // With 8-bit KV the only noise is metadata rounding: output ~= reference.
  const Inputs in = make_inputs(64, 64, 13);
  HackAttentionConfig cfg = config_pi(32);
  cfg.kv_bits = 8;
  HackKvState state(64, cfg);
  Rng rng(14);
  const Matrix out = attend_prompt(in, state, rng);
  const Matrix ref = attention_reference(in.q, in.k, in.v, {.causal = true});
  EXPECT_LT(relative_l2(out, ref), 0.02);
}

TEST(HackAttention, DecodeMatchesPrefillPath) {
  // Feeding tokens one by one must produce the same cache geometry and a
  // consistent attention result for the final row.
  const std::size_t l = 40, d = 64;
  const Inputs in = make_inputs(l, d, 15);

  HackAttentionConfig cfg = config_pi(32);
  cfg.kv_bits = 8;  // keep quantization noise small for comparison
  cfg.rounding = Rounding::kNearest;

  HackKvState batch(d, cfg);
  Rng rng1(16);
  batch.append_tokens(in.k, in.v, rng1);

  HackKvState stepped(d, cfg);
  Rng rng2(16);
  for (std::size_t t = 0; t < l; ++t) {
    stepped.append_tokens(take_rows(in.k, t, t + 1), take_rows(in.v, t, t + 1),
                          rng2);
  }
  EXPECT_EQ(batch.tokens(), stepped.tokens());
  EXPECT_EQ(batch.quantized_v_rows(), stepped.quantized_v_rows());

  const Matrix q_last = take_rows(in.q, l - 1, l);
  Rng rng3(17), rng4(17);
  const Matrix o1 = hack_attention(
      q_last, batch, {.causal = true, .key_offset = l - 1}, rng3);
  const Matrix o2 = hack_attention(
      q_last, stepped, {.causal = true, .key_offset = l - 1}, rng4);
  // K codes are identical (per-token partitions, nearest rounding); V differs
  // only through promotion timing, which preserves values exactly.
  EXPECT_LT(relative_l2(o1, o2), 1e-5);
}

TEST(HackAttention, DecodeTracksReferenceOverSteps) {
  const std::size_t d = 64;
  const Inputs in = make_inputs(80, d, 18);
  HackAttentionConfig cfg = config_pi(32);
  cfg.kv_bits = 8;
  HackKvState state(d, cfg);
  Rng rng(19);

  Matrix k_seen, v_seen;
  for (std::size_t t = 0; t < 80; ++t) {
    const Matrix kt = take_rows(in.k, t, t + 1);
    const Matrix vt = take_rows(in.v, t, t + 1);
    const Matrix qt = take_rows(in.q, t, t + 1);
    k_seen = k_seen.empty() ? kt : vstack(k_seen, kt);
    v_seen = v_seen.empty() ? vt : vstack(v_seen, vt);
    const Matrix out = attend_token(qt, kt, vt, state, rng);
    const Matrix ref = attention_reference(
        qt, k_seen, v_seen, {.causal = true, .key_offset = t});
    EXPECT_LT(relative_l2(out, ref), 0.05) << "step " << t;
  }
}

TEST(HackAttention, SumCacheTogglesSumRecomputeCost) {
  const Inputs in = make_inputs(64, 64, 20);
  HackAttentionConfig with_se = config_pi(32);
  HackAttentionConfig no_se = with_se;
  no_se.summation_elimination = false;

  HackKvState s1(64, with_se), s2(64, no_se);
  Rng r1(21), r2(21);
  HackAttnStats st1{}, st2{};
  (void)attend_prompt(in, s1, r1, &st1);
  (void)attend_prompt(in, s2, r2, &st2);
  EXPECT_EQ(st1.sum_recompute_flops, 0);
  EXPECT_GT(st2.sum_recompute_flops, 0);
  EXPECT_EQ(s2.sum_cache_bytes(), 0u);
  EXPECT_GT(s1.sum_cache_bytes(), 0u);
}

TEST(HackAttention, RqeOffRequantizesAndAccumulatesEvents) {
  const std::size_t d = 64;
  HackAttentionConfig no_rqe = config_pi(32);
  no_rqe.requant_elimination = false;
  HackKvState state(d, no_rqe);
  Rng rng(22);
  HackAttnStats stats{};
  const Inputs in = make_inputs(40, d, 23);
  for (std::size_t t = 0; t < 40; ++t) {
    state.append_tokens(take_rows(in.k, t, t + 1), take_rows(in.v, t, t + 1),
                        rng, &stats);
  }
  // Every append after the first within a partition requantizes (Fig. 8).
  EXPECT_GT(stats.requant_events, 30);
  EXPECT_EQ(state.fp16_tail_bytes(), 0u);  // no FP16 tail when RQE is off
}

TEST(HackAttention, RqeOffStillApproximatesReference) {
  const Inputs in = make_inputs(48, 64, 24);
  HackAttentionConfig no_rqe = config_pi(32);
  no_rqe.requant_elimination = false;
  no_rqe.kv_bits = 8;
  HackKvState state(64, no_rqe);
  Rng rng(25);
  Matrix k_seen, v_seen;
  for (std::size_t t = 0; t < 48; ++t) {
    const Matrix kt = take_rows(in.k, t, t + 1);
    const Matrix vt = take_rows(in.v, t, t + 1);
    k_seen = k_seen.empty() ? kt : vstack(k_seen, kt);
    v_seen = v_seen.empty() ? vt : vstack(v_seen, vt);
    const Matrix qt = take_rows(in.q, t, t + 1);
    const Matrix out = attend_token(qt, kt, vt, state, rng);
    const Matrix ref = attention_reference(
        qt, k_seen, v_seen, {.causal = true, .key_offset = t});
    EXPECT_LT(relative_l2(out, ref), 0.10) << t;
  }
}

TEST(HackAttention, RqeOnBeatsRqeOffOnAccuracy) {
  // Requantization compounds reconstruction error (§5.3); with 2-bit V the
  // RQE-on path should track the reference at least as well on average.
  const std::size_t d = 64, steps = 64;
  const Inputs in = make_inputs(steps, d, 26);
  HackAttentionConfig on = config_pi(32);
  HackAttentionConfig off = on;
  off.requant_elimination = false;

  double err_on = 0.0, err_off = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    HackKvState s_on(d, on), s_off(d, off);
    Rng r_on(30 + trial), r_off(30 + trial);
    Matrix k_seen, v_seen;
    for (std::size_t t = 0; t < steps; ++t) {
      const Matrix kt = take_rows(in.k, t, t + 1);
      const Matrix vt = take_rows(in.v, t, t + 1);
      const Matrix qt = take_rows(in.q, t, t + 1);
      k_seen = k_seen.empty() ? kt : vstack(k_seen, kt);
      v_seen = v_seen.empty() ? vt : vstack(v_seen, vt);
      const Matrix ref = attention_reference(
          qt, k_seen, v_seen, {.causal = true, .key_offset = t});
      err_on += relative_l2(attend_token(qt, kt, vt, s_on, r_on), ref);
      err_off += relative_l2(attend_token(qt, kt, vt, s_off, r_off), ref);
    }
  }
  EXPECT_LT(err_on, err_off);
}

TEST(HackAttention, StatsCountFp16TailWork) {
  const Inputs in = make_inputs(40, 64, 27);  // 40 = 32 + 8-token tail
  HackKvState state(64, config_pi(32));
  Rng rng(28);
  HackAttnStats stats{};
  (void)attend_prompt(in, state, rng, &stats);
  // Tail of 8 tokens at positions [32, 40): the streaming engine multiplies
  // only the causally visible slice, so row r (0-based) touches
  // min(r + 1, 40) - 32 tail tokens when r >= 32 — Σ_{r=32}^{39} (r - 31)
  // = 36 visible (row, token) pairs x 64 dims.
  EXPECT_EQ(stats.fp16_tail_macs, 36 * 64);
}

class HackAttentionPiSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HackAttentionPiSweep, PrefillTracksReference) {
  const std::size_t pi = GetParam();
  const std::size_t d = 128;
  const Inputs in = make_inputs(3 * pi + 7, d, 29);
  HackKvState state(d, config_pi(pi));
  Rng rng(30);
  const Matrix out = attend_prompt(in, state, rng);
  const Matrix ref = attention_reference(in.q, in.k, in.v, {.causal = true});
  EXPECT_GT(cosine_similarity(out, ref), 0.65) << "pi=" << pi;
}

INSTANTIATE_TEST_SUITE_P(Pi, HackAttentionPiSweep,
                         ::testing::Values(32, 64, 128));

TEST(HackAttention, FinerPartitionsTrackReferenceBetter) {
  // Table 8's mechanism: Π=32 > Π=64 > Π=128 in fidelity.
  const std::size_t d = 128;
  const Inputs in = make_inputs(391, d, 31);
  const Matrix ref = attention_reference(in.q, in.k, in.v, {.causal = true});
  double cos_by_pi[3] = {};
  const std::size_t pis[3] = {32, 64, 128};
  for (int i = 0; i < 3; ++i) {
    HackKvState state(d, config_pi(pis[i]));
    Rng rng(32);
    cos_by_pi[i] = cosine_similarity(attend_prompt(in, state, rng), ref);
  }
  EXPECT_GT(cos_by_pi[0], cos_by_pi[1]);
  EXPECT_GT(cos_by_pi[1], cos_by_pi[2]);
}

}  // namespace
}  // namespace hack
