// Tests for the batched multi-head attention engine: a HackLayerKvState must
// produce bit-identical outputs to serial per-head append_tokens +
// hack_attention calls over HackKvStates with matching RNG seeds, for any
// GQA grouping, RQE/SE setting, and thread count — and the streaming-softmax
// tiled prefill must agree with the untiled (full score materialization)
// pipeline within quantization noise for every tile width, with the cached
// K/V codes bit-identical regardless of tiling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "attention/hack_attention.h"
#include "attention/layer_attention.h"
#include "base/crc32c.h"
#include "core/hq_matmul.h"
#include "core/int_gemm.h"
#include "tensor/ops.h"

namespace hack {
namespace {

constexpr std::uint64_t kSeed = 77;

float max_abs_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  float m = 0.0f;
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    m = std::max(m, std::fabs(a.flat()[i] - b.flat()[i]));
  }
  return m;
}

// The untiled (PR 2) prefill pipeline for one head, rebuilt from public
// pieces: full Q·Kᵀ score materialization, exact row softmax over the whole
// context, one P quantization pass, one P·V launch, FP16 tail matmul. The
// tiled engine replaces the softmax/P phases but must land within
// quantization noise of this for any tile width.
Matrix untiled_reference_attention(const Matrix& q, const HackKvState& st,
                                   const AttentionOptions& options, Rng q_rng,
                                   Rng p_rng) {
  const HackAttentionConfig& cfg = st.config();
  const std::size_t lq = q.rows();
  const std::size_t lkv = st.tokens();
  const QuantizedMatrix qq = quantize(q, cfg.q_bits, cfg.pi, QuantAxis::kRow,
                                      cfg.rounding, q_rng,
                                      /*allow_ragged_tail=*/false);
  Matrix s = hq_matmul_nt(
      qq, st.k(), cfg.summation_elimination ? &st.k_sums() : nullptr);
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(q.cols()));
  for (float& v : s.flat()) v *= inv_sqrt_d;
  const Matrix p = options.causal
                       ? softmax_rows_causal(s, options.key_offset)
                       : softmax_rows(s);
  const std::size_t vq_rows = st.quantized_v_rows();
  Matrix out;
  if (cfg.requant_elimination) {
    if (vq_rows > 0) {
      const QuantizedMatrix pq =
          quantize(take_cols(p, 0, vq_rows), cfg.q_bits, cfg.pi,
                   QuantAxis::kRow, cfg.rounding, p_rng,
                   /*allow_ragged_tail=*/false);
      out = hq_matmul(pq, st.v_quantized(),
                      cfg.summation_elimination ? &st.v_sums() : nullptr);
    } else {
      out = Matrix(lq, q.cols(), 0.0f);
    }
    if (vq_rows < lkv) {
      out = add(out, matmul(take_cols(p, vq_rows, lkv), st.v_tail_fp16()));
    }
  } else {
    const QuantizedMatrix v_all = st.v_quantized_all();
    const QuantizedMatrix pq =
        quantize(p, cfg.q_bits, cfg.pi, QuantAxis::kRow, cfg.rounding, p_rng,
                 /*allow_ragged_tail=*/true);
    out = hq_matmul(pq, v_all);
  }
  return out;
}

struct LayerInputs {
  Matrix q_all;  // [l, heads * d_head]
  Matrix k_all;  // [l, kv_heads * d_head]
  Matrix v_all;
};

LayerInputs make_layer_inputs(std::size_t l, std::size_t d_head,
                              std::size_t heads, std::size_t kv_heads,
                              std::uint64_t seed) {
  Rng rng(seed);
  return {Matrix::random_gaussian(l, heads * d_head, rng),
          Matrix::random_gaussian(l, kv_heads * d_head, rng),
          Matrix::random_gaussian(l, kv_heads * d_head, rng)};
}

// The per-head reference: one HackKvState + Rng(kSeed + h) per KV head,
// appended and attended in serial head order — exactly what the batched
// layer must reproduce bit-for-bit.
Matrix per_head_prefill(const LayerInputs& in, std::size_t d_head,
                        std::size_t heads, std::size_t kv_heads,
                        const HackAttentionConfig& cfg,
                        HackAttnStats* stats = nullptr) {
  const std::size_t group = heads / kv_heads;
  const std::size_t l = in.q_all.rows();
  Matrix out(l, heads * d_head);
  for (std::size_t g = 0; g < kv_heads; ++g) {
    HackKvState state(d_head, cfg);
    Rng rng(kSeed + g);
    state.append_tokens(take_cols(in.k_all, g * d_head, (g + 1) * d_head),
                        take_cols(in.v_all, g * d_head, (g + 1) * d_head),
                        rng, stats);
    for (std::size_t sub = 0; sub < group; ++sub) {
      const std::size_t head = g * group + sub;
      const Matrix o = hack_attention(
          take_cols(in.q_all, head * d_head, (head + 1) * d_head), state,
          {.causal = true, .key_offset = 0}, rng, stats);
      for (std::size_t r = 0; r < l; ++r) {
        std::copy(o.row(r).begin(), o.row(r).end(),
                  out.row(r).begin() + head * d_head);
      }
    }
  }
  return out;
}

struct EquivCase {
  std::size_t heads, kv_heads;
  bool rqe, se;
};

class LayerEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(LayerEquivalence, BatchedPrefillBitIdenticalToPerHead) {
  const EquivCase& c = GetParam();
  const std::size_t d_head = 64;
  // 70 tokens with Π=32: two full V partitions plus a 6-row tail, so the
  // FP16-tail (RQE on) and ragged-group (RQE off) paths both run.
  const LayerInputs in = make_layer_inputs(70, d_head, c.heads, c.kv_heads, 3);

  HackAttentionConfig cfg;
  cfg.pi = 32;
  cfg.requant_elimination = c.rqe;
  cfg.summation_elimination = c.se;
  cfg.rounding = Rounding::kStochastic;

  HackAttnStats per_head_stats{};
  const Matrix expected = per_head_prefill(in, d_head, c.heads, c.kv_heads,
                                           cfg, &per_head_stats);

  for (const int threads : {1, 2, 0}) {
    HackAttentionConfig tcfg = cfg;
    tcfg.threads = threads;
    HackLayerKvState layer(d_head, c.kv_heads, c.heads, tcfg, kSeed);
    HackAttnStats batched_stats{};
    const Matrix got = layer.prefill(in.q_all, in.k_all, in.v_all,
                                     &batched_stats);
    EXPECT_TRUE(got == expected)
        << "heads=" << c.heads << " kv=" << c.kv_heads << " rqe=" << c.rqe
        << " se=" << c.se << " threads=" << threads;
    // The roll-up counts the same work the serial loop did (Σ b' recompute
    // sharing aside, which GQA legitimately amortizes).
    EXPECT_EQ(batched_stats.int_macs, per_head_stats.int_macs);
    EXPECT_EQ(batched_stats.quantized_values, per_head_stats.quantized_values);
    EXPECT_EQ(batched_stats.fp16_tail_macs, per_head_stats.fp16_tail_macs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gqa, LayerEquivalence,
    ::testing::Values(EquivCase{4, 4, true, true},    // MHA
                      EquivCase{8, 2, true, true},    // GQA 4:1
                      EquivCase{6, 3, true, true},    // GQA 2:1
                      EquivCase{8, 2, false, true},   // RQE off
                      EquivCase{8, 2, true, false},   // SE off
                      EquivCase{4, 2, false, false}));

TEST(LayerAttention, BatchedDecodeMatchesSerialDecodeCalls) {
  // One batched decode launch per step must equal H serial append +
  // hack_attention calls on per-head states, token for token, bit for bit.
  const std::size_t d_head = 64, heads = 4;  // heads == kv_heads
  HackAttentionConfig cfg;
  cfg.pi = 32;

  HackLayerKvState layer(d_head, heads, heads, cfg, kSeed);
  std::vector<HackKvState> states(heads, HackKvState(d_head, cfg));
  std::vector<Rng> rngs;
  for (std::size_t h = 0; h < heads; ++h) rngs.emplace_back(kSeed + h);

  // Prefill both sides with the same prompt.
  const LayerInputs prompt = make_layer_inputs(48, d_head, heads, heads, 9);
  const Matrix batched_prefill =
      layer.prefill(prompt.q_all, prompt.k_all, prompt.v_all);
  Matrix serial_prefill(48, heads * d_head);
  for (std::size_t h = 0; h < heads; ++h) {
    states[h].append_tokens(
        take_cols(prompt.k_all, h * d_head, (h + 1) * d_head),
        take_cols(prompt.v_all, h * d_head, (h + 1) * d_head), rngs[h]);
    const Matrix o = hack_attention(
        take_cols(prompt.q_all, h * d_head, (h + 1) * d_head), states[h],
        {.causal = true, .key_offset = 0}, rngs[h]);
    for (std::size_t r = 0; r < o.rows(); ++r) {
      std::copy(o.row(r).begin(), o.row(r).end(),
                serial_prefill.row(r).begin() + h * d_head);
    }
  }
  EXPECT_TRUE(batched_prefill == serial_prefill);

  for (std::size_t step = 0; step < 8; ++step) {
    const LayerInputs tok = make_layer_inputs(1, d_head, heads, heads,
                                              100 + step);
    const Matrix batched = layer.decode_step(tok.q_all, tok.k_all, tok.v_all);
    Matrix serial(1, heads * d_head);
    for (std::size_t h = 0; h < heads; ++h) {
      states[h].append_tokens(
          take_cols(tok.k_all, h * d_head, (h + 1) * d_head),
          take_cols(tok.v_all, h * d_head, (h + 1) * d_head), rngs[h]);
      const Matrix o = hack_attention(
          take_cols(tok.q_all, h * d_head, (h + 1) * d_head), states[h],
          {.causal = true, .key_offset = states[h].tokens() - 1}, rngs[h]);
      std::copy(o.row(0).begin(), o.row(0).end(),
                serial.row(0).begin() + h * d_head);
    }
    EXPECT_TRUE(batched == serial) << "decode step " << step;
  }

  // Per-layer accounting is the sum of the per-head states'.
  std::size_t wire = 0;
  for (const HackKvState& st : states) wire += st.wire_bytes();
  EXPECT_EQ(layer.wire_bytes(), wire);
  EXPECT_EQ(layer.tokens(), states[0].tokens());
}

TEST(LayerAttention, LargePrefillParallelAppendMatchesSerialHeads) {
  // A prompt big enough to cross the parallel-quantize threshold: the layer
  // appends all heads on the pool, the reference one head at a time — codes
  // and outputs must still match exactly.
  const std::size_t d_head = 64, heads = 4, kv_heads = 2;
  const LayerInputs in = make_layer_inputs(512, d_head, heads, kv_heads, 21);
  HackAttentionConfig cfg;
  cfg.pi = 32;

  const Matrix expected = per_head_prefill(in, d_head, heads, kv_heads, cfg);
  HackLayerKvState layer(d_head, kv_heads, heads, cfg, kSeed);
  const Matrix got = layer.prefill(in.q_all, in.k_all, in.v_all);
  EXPECT_TRUE(got == expected);

  // And the cached codes themselves are identical per head.
  for (std::size_t g = 0; g < kv_heads; ++g) {
    HackKvState ref(d_head, cfg);
    Rng rng(kSeed + g);
    ref.append_tokens(take_cols(in.k_all, g * d_head, (g + 1) * d_head),
                      take_cols(in.v_all, g * d_head, (g + 1) * d_head), rng);
    EXPECT_EQ(layer.head_state(g).k().codes, ref.k().codes);
    EXPECT_EQ(layer.head_state(g).v_quantized().codes,
              ref.v_quantized().codes);
  }
}

// ---- streaming-softmax tiled prefill ---------------------------------------

struct TiledCase {
  std::size_t heads, kv_heads;
  bool rqe, se;
};

class TiledEquivalence : public ::testing::TestWithParam<TiledCase> {};

// Tiling changes which values the P quantizer sees (unnormalized exp weights
// per tile instead of one normalized softmax row), so tiled and untiled
// differ by two independent 8-bit stochastic quantization draws — an
// irreducible ≈ (max_p / 255) · √Π · ‖V‖ noise floor, NOT a tiling bug. The
// sweep therefore runs V at σ = 1/32 (the magnitude of value projections in
// trained models; unit-σ i.i.d. V is the quantizer's worst case), where that
// floor sits near 5e-4, and pins 1e-3 max-abs. UnitVarianceV below covers
// σ = 1 against the proportionally scaled bound.
TEST_P(TiledEquivalence, TiledMatchesUntiledAcrossTileWidths) {
  const TiledCase& c = GetParam();
  const std::size_t d_head = 64, l = 70;  // ragged V tail at Π=32
  LayerInputs in = make_layer_inputs(l, d_head, c.heads, c.kv_heads, 3);
  in.v_all = scale(in.v_all, 1.0f / 32.0f);

  HackAttentionConfig cfg;
  cfg.pi = 32;
  cfg.requant_elimination = c.rqe;
  cfg.summation_elimination = c.se;

  // Untiled reference: the PR 2 full-score pipeline, per head, with the
  // exact RNG forking discipline of the engine.
  Matrix ref(l, c.heads * d_head);
  const std::size_t group = c.heads / c.kv_heads;
  std::vector<HackKvState> ref_states;
  for (std::size_t g = 0; g < c.kv_heads; ++g) {
    HackKvState& st = ref_states.emplace_back(d_head, cfg);
    Rng rng(kSeed + g);
    st.append_tokens(take_cols(in.k_all, g * d_head, (g + 1) * d_head),
                     take_cols(in.v_all, g * d_head, (g + 1) * d_head), rng);
    for (std::size_t sub = 0; sub < group; ++sub) {
      const std::size_t head = g * group + sub;
      Rng q_rng = rng.fork();
      Rng p_rng = rng.fork();
      const Matrix o = untiled_reference_attention(
          take_cols(in.q_all, head * d_head, (head + 1) * d_head), st,
          {.causal = true, .key_offset = 0}, q_rng, p_rng);
      for (std::size_t r = 0; r < l; ++r) {
        std::copy(o.row(r).begin(), o.row(r).end(),
                  ref.row(r).begin() + head * d_head);
      }
    }
  }

  // Tile sweep: single-token tiles, a prime that cuts every Π group, exactly
  // L, and wider than L (one tile). All must agree with the untiled pipeline
  // within quantization noise, be bit-identical across thread counts, and
  // leave the cached K/V codes untouched by the tiling.
  for (const std::size_t tile : {std::size_t{1}, std::size_t{37},
                                 std::size_t{70}, std::size_t{128}}) {
    HackAttentionConfig tcfg = cfg;
    tcfg.tile_tokens = tile;
    Matrix first;
    for (const int threads : {1, 2, 0}) {
      tcfg.threads = threads;
      HackLayerKvState layer(d_head, c.kv_heads, c.heads, tcfg, kSeed);
      const Matrix got = layer.prefill(in.q_all, in.k_all, in.v_all);
      if (first.empty()) {
        first = got;
        EXPECT_LE(max_abs_diff(got, ref), 1e-3f)
            << "tile=" << tile << " heads=" << c.heads << " rqe=" << c.rqe
            << " se=" << c.se;
        for (std::size_t g = 0; g < c.kv_heads; ++g) {
          EXPECT_EQ(layer.head_state(g).k().codes, ref_states[g].k().codes)
              << "tile=" << tile;
          if (ref_states[g].quantized_v_rows() > 0) {
            EXPECT_EQ(layer.head_state(g).v_quantized().codes,
                      ref_states[g].v_quantized().codes)
                << "tile=" << tile;
          }
        }
      } else {
        EXPECT_TRUE(got == first)
            << "tile=" << tile << " threads=" << threads
            << ": banding changed the tiled result";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TiledEquivalence,
    ::testing::Values(TiledCase{4, 4, true, true},    // MHA
                      TiledCase{8, 2, true, true},    // GQA 4:1
                      TiledCase{8, 2, false, true},   // RQE off (spliced V)
                      TiledCase{8, 2, true, false},   // SE off
                      TiledCase{4, 2, false, false}));

TEST(LayerAttention, TiledTracksUntiledAtUnitVarianceV) {
  // Unit-σ V: the same comparison at the quantizer's worst case, against the
  // noise-floor-scaled bound (32 × the sweep's 1e-3) plus a relative check
  // that a structural bug (dropped tile, bad rescale, wrong segment) would
  // blow through.
  const std::size_t d_head = 64, l = 70, heads = 4, kv_heads = 2;
  const LayerInputs in = make_layer_inputs(l, d_head, heads, kv_heads, 3);
  HackAttentionConfig cfg;
  cfg.pi = 32;
  cfg.tile_tokens = 37;

  Matrix ref(l, heads * d_head);
  for (std::size_t g = 0; g < kv_heads; ++g) {
    HackKvState st(d_head, cfg);
    Rng rng(kSeed + g);
    st.append_tokens(take_cols(in.k_all, g * d_head, (g + 1) * d_head),
                     take_cols(in.v_all, g * d_head, (g + 1) * d_head), rng);
    for (std::size_t sub = 0; sub < heads / kv_heads; ++sub) {
      const std::size_t head = g * (heads / kv_heads) + sub;
      Rng q_rng = rng.fork();
      Rng p_rng = rng.fork();
      const Matrix o = untiled_reference_attention(
          take_cols(in.q_all, head * d_head, (head + 1) * d_head), st,
          {.causal = true, .key_offset = 0}, q_rng, p_rng);
      for (std::size_t r = 0; r < l; ++r) {
        std::copy(o.row(r).begin(), o.row(r).end(),
                  ref.row(r).begin() + head * d_head);
      }
    }
  }
  HackLayerKvState layer(d_head, kv_heads, heads, cfg, kSeed);
  const Matrix got = layer.prefill(in.q_all, in.k_all, in.v_all);
  EXPECT_LE(max_abs_diff(got, ref), 32.0f * 1e-3f);
  float num = 0.0f, den = 0.0f;
  for (std::size_t i = 0; i < ref.flat().size(); ++i) {
    const float d = got.flat()[i] - ref.flat()[i];
    num += d * d;
    den += ref.flat()[i] * ref.flat()[i];
  }
  EXPECT_LT(std::sqrt(num / den), 0.02f);
}

TEST(LayerAttention, TileWidthResolutionPrecedence) {
  HackAttentionConfig cfg;
  cfg.pi = 64;
  cfg.tile_tokens = 123;
  EXPECT_EQ(attention_tile_tokens(cfg, 4096), 123u);  // explicit config wins
  cfg.tile_tokens = 0;
  const std::size_t auto_tile = attention_tile_tokens(cfg, 4096);
  EXPECT_GE(auto_tile, 64u);               // at least one partition
  EXPECT_LE(auto_tile, 4096u);             // bounded
  EXPECT_EQ(auto_tile % 64, 0u);           // whole-Π: segments stay whole
}

#ifdef NDEBUG
TEST(LayerAttention, LongContextStreamingSmoke) {
  // Release-only: an 8k-token context streamed through the tiled engine at
  // two tile widths. Guards against accumulator drift and masking bugs that
  // only show up at depth; tolerance covers two independent P quantization
  // draws.
  const std::size_t d_head = 64, lkv = 8192, lq = 2048;
  Rng rng(5);
  const Matrix k = Matrix::random_gaussian(lkv, d_head, rng);
  const Matrix v =
      scale(Matrix::random_gaussian(lkv, d_head, rng), 1.0f / 32.0f);
  const Matrix q = Matrix::random_gaussian(lq, d_head, rng);

  Matrix outs[2];
  const std::size_t tiles[2] = {512, 1024};
  for (int i = 0; i < 2; ++i) {
    HackAttentionConfig cfg;
    cfg.pi = 64;
    cfg.tile_tokens = tiles[i];
    HackLayerKvState layer(d_head, 1, 1, cfg, kSeed);
    layer.append_tokens(k, v);
    outs[i] = layer.attend(q, {.causal = true, .key_offset = lkv - lq});
    ASSERT_EQ(outs[i].rows(), lq);
    for (const float x : outs[i].flat()) {
      ASSERT_TRUE(std::isfinite(x)) << "tile=" << tiles[i];
    }
  }
  EXPECT_LE(max_abs_diff(outs[0], outs[1]), 1e-3f);
}
#endif  // NDEBUG

TEST(LayerAttention, DecodeGemvBitIdenticalOnPackedResidentCache) {
  // The resident K/V planes hold bit-packed codes; the decode GEMV (one
  // 8-bit Q row against the packed K plane, one 8-bit P row against the
  // packed V store) must produce the same floats as the same GEMV over a
  // byte-unpacked copy of the identical codes. This pins the tentpole
  // contract at the hq_matmul layer on a real cache, not a synthetic view.
  const std::size_t d_head = 64;
  for (const int kv_bits : {2, 4}) {
    HackAttentionConfig cfg;
    cfg.pi = 32;
    cfg.kv_bits = kv_bits;
    HackKvState st(d_head, cfg);
    Rng rng(kSeed);
    const Matrix k = Matrix::random_gaussian(70, d_head, rng);
    const Matrix v = Matrix::random_gaussian(70, d_head, rng);
    st.append_tokens(k, v, rng);
    ASSERT_EQ(st.k().storage_bits, kv_bits);   // resident plane is packed
    ASSERT_GT(st.quantized_v_rows(), 0u);
    ASSERT_EQ(st.v_quantized().storage_bits, kv_bits);

    QuantizedMatrix k_bytes = st.k();
    unpack_storage(k_bytes);
    QuantizedMatrix v_bytes = st.v_quantized();
    unpack_storage(v_bytes);

    const Matrix q_row = Matrix::random_gaussian(1, d_head, rng);
    Rng q_rng(kSeed + 1);
    const QuantizedMatrix qq = quantize(q_row, cfg.q_bits, cfg.pi,
                                        QuantAxis::kRow, cfg.rounding, q_rng);
    const Matrix s_packed = hq_matmul_nt(qq, st.k(), &st.k_sums());
    const Matrix s_bytes = hq_matmul_nt(qq, k_bytes, &st.k_sums());
    EXPECT_TRUE(s_packed == s_bytes) << "kv_bits=" << kv_bits;

    const Matrix p_row =
        Matrix::random_gaussian(1, st.quantized_v_rows(), rng);
    Rng p_rng(kSeed + 2);
    const QuantizedMatrix pq = quantize(p_row, cfg.q_bits, cfg.pi,
                                        QuantAxis::kRow, cfg.rounding, p_rng);
    const Matrix o_packed = hq_matmul(pq, st.v_quantized(), &st.v_sums());
    const Matrix o_bytes = hq_matmul(pq, v_bytes, &st.v_sums());
    EXPECT_TRUE(o_packed == o_bytes) << "kv_bits=" << kv_bits;

    // And the resident footprint really is the packed one.
    EXPECT_EQ(st.k().codes.size(),
              st.k().rows * ((d_head * kv_bits + 7) / 8));
  }
}

TEST(LayerAttention, VnniArmMatchesAvx2ArmBitwise) {
  // The integer GEMM arms compute the same exact int32 sums, so a tiled
  // prefill followed by flat single-row decode steps must produce the same
  // float bits under the AVX2 and the AVX-512 VNNI caps.
  if (int_gemm_cap_arm(IntGemmArm::kVnni) != IntGemmArm::kVnni) {
    GTEST_SKIP() << "CPU lacks avx512_vnni";
  }
  const std::size_t d_head = 64, kv_heads = 2, query_heads = 4;
  const std::size_t prompt = 150, steps = 3;
  for (const int kv_bits : {2, 4}) {
    HackAttentionConfig cfg;
    cfg.pi = 32;
    cfg.kv_bits = kv_bits;
    cfg.tile_tokens = 64;  // several KV tiles per prefill band
    Rng rng(kSeed + static_cast<std::uint64_t>(kv_bits));
    const Matrix q = Matrix::random_gaussian(prompt + steps,
                                             query_heads * d_head, rng);
    const Matrix k =
        Matrix::random_gaussian(prompt + steps, kv_heads * d_head, rng);
    const Matrix v =
        Matrix::random_gaussian(prompt + steps, kv_heads * d_head, rng);
    std::vector<Matrix> outs[2];
    const IntGemmArm arms[2] = {IntGemmArm::kAvx2, IntGemmArm::kVnni};
    for (int a = 0; a < 2; ++a) {
      ASSERT_EQ(int_gemm_cap_arm(arms[a]), arms[a]);
      HackLayerKvState st(d_head, kv_heads, query_heads, cfg, kSeed);
      outs[a].push_back(st.prefill(take_rows(q, 0, prompt),
                                   take_rows(k, 0, prompt),
                                   take_rows(v, 0, prompt)));
      for (std::size_t t = prompt; t < prompt + steps; ++t) {
        outs[a].push_back(st.decode_step(take_rows(q, t, t + 1),
                                         take_rows(k, t, t + 1),
                                         take_rows(v, t, t + 1)));
      }
    }
    int_gemm_cap_arm(IntGemmArm::kVnni);
    for (std::size_t i = 0; i < outs[0].size(); ++i) {
      const Matrix& x = outs[0][i];
      const Matrix& y = outs[1][i];
      ASSERT_EQ(x.size(), y.size());
      EXPECT_EQ(std::memcmp(x.flat().data(), y.flat().data(),
                            x.size() * sizeof(float)),
                0)
          << "kv_bits=" << kv_bits << " output " << i;
    }
  }
}

TEST(LayerAttention, NonCausalTiledMatchesUntiledReference) {
  // Non-causal multi-row attends run the same one-pass online-softmax fold
  // as causal ones, with no row ever retiring early. Against the untiled
  // full-softmax pipeline they must land within the same quantization-noise
  // bound as the causal tiled sweep, for every tile width, and be
  // bit-identical across thread counts at a fixed tile.
  const std::size_t d_head = 64, lkv = 70, lq = 9, heads = 4, kv_heads = 2;
  LayerInputs in = make_layer_inputs(lkv, d_head, heads, kv_heads, 3);
  in.v_all = scale(in.v_all, 1.0f / 32.0f);
  Rng qrng(8);
  const Matrix q_all = Matrix::random_gaussian(lq, heads * d_head, qrng);

  HackAttentionConfig cfg;
  cfg.pi = 32;

  Matrix ref(lq, heads * d_head);
  const std::size_t group = heads / kv_heads;
  for (std::size_t g = 0; g < kv_heads; ++g) {
    HackKvState st(d_head, cfg);
    Rng rng(kSeed + g);
    st.append_tokens(take_cols(in.k_all, g * d_head, (g + 1) * d_head),
                     take_cols(in.v_all, g * d_head, (g + 1) * d_head), rng);
    for (std::size_t sub = 0; sub < group; ++sub) {
      const std::size_t head = g * group + sub;
      Rng q_rng = rng.fork();
      Rng p_rng = rng.fork();
      const Matrix o = untiled_reference_attention(
          take_cols(q_all, head * d_head, (head + 1) * d_head), st,
          {.causal = false, .key_offset = 0}, q_rng, p_rng);
      for (std::size_t r = 0; r < lq; ++r) {
        std::copy(o.row(r).begin(), o.row(r).end(),
                  ref.row(r).begin() + head * d_head);
      }
    }
  }

  // Tiles: single-token (running-max rescale exercised hardest), a prime
  // that splits Π groups, and wider than the context (one tile, no rescale).
  for (const std::size_t tile :
       {std::size_t{1}, std::size_t{37}, std::size_t{128}}) {
    HackAttentionConfig tcfg = cfg;
    tcfg.tile_tokens = tile;
    Matrix first;
    for (const int threads : {1, 2, 0}) {
      tcfg.threads = threads;
      HackLayerKvState layer(d_head, kv_heads, heads, tcfg, kSeed);
      layer.append_tokens(in.k_all, in.v_all);
      const Matrix got =
          layer.attend(q_all, {.causal = false, .key_offset = 0});
      if (first.empty()) {
        first = got;
        EXPECT_LE(max_abs_diff(got, ref), 1e-3f) << "tile=" << tile;
      } else {
        EXPECT_TRUE(got == first)
            << "tile=" << tile << " threads=" << threads
            << ": banding changed the non-causal result";
      }
    }
  }
}

// One causal multi-head run for the pinned digests: a 150-token prefill (in
// one attend, or in chunks of 90 + 60 so the second attends at key_offset
// 90 over a ragged V tail), then 4 decode steps. The CRC32C chains the bits
// of every output and each KV head's stream state at the end.
std::uint32_t attention_digest(const HackAttentionConfig& cfg, bool chunked) {
  const std::size_t d_head = 64, kv_heads = 2, query_heads = 4;
  const std::size_t prompt = 150, split = 90, steps = 4;
  Rng data_rng(2024);
  const Matrix q = Matrix::random_uniform(prompt + steps, query_heads * d_head,
                                          data_rng, -3.0f, 3.0f);
  const Matrix k =
      Matrix::random_uniform(prompt + steps, kv_heads * d_head, data_rng);
  const Matrix v =
      Matrix::random_uniform(prompt + steps, kv_heads * d_head, data_rng);
  HackLayerKvState layer(d_head, kv_heads, query_heads, cfg, kSeed);
  std::vector<Matrix> outs;
  const auto attend_chunk = [&](std::size_t b, std::size_t e) {
    layer.append_tokens(take_rows(k, b, e), take_rows(v, b, e));
    outs.push_back(layer.attend(take_rows(q, b, e),
                                {.causal = true, .key_offset = b}));
  };
  if (chunked) {
    attend_chunk(0, split);
    attend_chunk(split, prompt);
  } else {
    attend_chunk(0, prompt);
  }
  for (std::size_t t = prompt; t < prompt + steps; ++t) {
    outs.push_back(layer.decode_step(take_rows(q, t, t + 1),
                                     take_rows(k, t, t + 1),
                                     take_rows(v, t, t + 1)));
  }
  std::uint32_t crc = 0;
  for (const Matrix& o : outs) {
    crc = crc32c(o.flat().data(), o.size() * sizeof(float), crc);
  }
  for (std::size_t h = 0; h < kv_heads; ++h) {
    const auto state = layer.head_rng(h).state();
    crc = crc32c(state.data(), sizeof(state), crc);
  }
  return crc;
}

// Pins the attention outputs bit for bit, not just their agreement with
// another path: {stochastic, nearest} × RQE × SE × tile {auto, Π, 37} ×
// {one-pass, chunked} prefill, each followed by decode steps. SE only moves
// where Σ b' comes from, so both SE settings share one digest. The auto tile
// is at least 409 tokens for any L2 of 256 KiB or more, so it covers the
// whole prompt in one tile on any such host. The inputs are uniform draws;
// the softmax's expf is the only libm call. The same digests must come out
// under the portable integer-GEMM, dense-matmul and quantizer arms.
TEST(LayerAttention, OutputsMatchPinnedDigests) {
  // [rounding][rqe on, off][tile auto, Π, 37][one-pass, chunked]
  const std::uint32_t expected[2][2][3][2] = {
      {{{0x45447DA8u, 0xD37AF6BDu},
        {0x99066C21u, 0xF9CE2AD7u},
        {0xC64621E3u, 0x070DDB0Fu}},
       {{0xF19F07F9u, 0x42BCC55Fu},
        {0x35930FBCu, 0x2AA1349Fu},
        {0xDF6B6DFBu, 0x9920ED45u}}},
      {{{0x46D8C9C9u, 0xEFE70229u},
        {0x3CE47843u, 0x327ACADCu},
        {0x103388DBu, 0x0A0446C0u}},
       {{0xF41A3965u, 0xAF3C7720u},
        {0x67756E71u, 0xC3E272D8u},
        {0xAC6105BCu, 0x4615C795u}}},
  };
  const std::size_t tiles[3] = {0, 32, 37};
  const auto run_all = [&](const char* arms) {
    for (int rd = 0; rd < 2; ++rd) {
      for (int rqe = 0; rqe < 2; ++rqe) {
        for (const bool se : {true, false}) {
          for (int ti = 0; ti < 3; ++ti) {
            for (int chunked = 0; chunked < 2; ++chunked) {
              HackAttentionConfig cfg;
              cfg.pi = 32;
              cfg.rounding = rd == 0 ? Rounding::kStochastic
                                     : Rounding::kNearest;
              cfg.requant_elimination = rqe == 0;
              cfg.summation_elimination = se;
              cfg.tile_tokens = tiles[ti];
              EXPECT_EQ(attention_digest(cfg, chunked == 1),
                        expected[rd][rqe][ti][chunked])
                  << arms << " arms: rounding " << rd << " rqe "
                  << (rqe == 0) << " se " << se << " tile " << tiles[ti]
                  << " chunked " << chunked;
            }
          }
        }
      }
    }
  };
  run_all("native");
  int_gemm_cap_arm(IntGemmArm::kPortable);
  matmul_cap_arm(MatmulArm::kPortable);
  quantize_cap_arm(QuantizeArm::kPortable);
  run_all("portable");
  int_gemm_cap_arm(IntGemmArm::kVnni);
  matmul_cap_arm(MatmulArm::kAvx512);
  quantize_cap_arm(QuantizeArm::kAvx512);
}

// int_macs of a causal prefill counts the visible (row, key) pairs of both
// products: the score tile over every key a row sees, P·V over the visible
// keys the quantized V store covers (all of them with RQE off). That is a
// closed form in the prompt length, whatever the lane count, the banding or
// the tile width, even though a clipped band multiplies fewer keys.
TEST(LayerAttention, PrefillIntMacsCountVisibleWork) {
  const std::size_t d_head = 64, kv_heads = 2, query_heads = 4, pi = 32;
  for (const std::size_t l : {std::size_t{100}, std::size_t{300}}) {
    for (const bool rqe : {true, false}) {
      const std::size_t vq = rqe ? l / pi * pi : l;
      std::int64_t visible = 0;
      for (std::size_t r = 0; r < l; ++r) {
        visible += static_cast<std::int64_t>((r + 1) + std::min(r + 1, vq));
      }
      const std::int64_t expected =
          visible * static_cast<std::int64_t>(query_heads * d_head);
      const LayerInputs in = make_layer_inputs(l, d_head, query_heads,
                                               kv_heads, 11);
      // 1 lane gives one band per head under 128 rows and three at 300;
      // 4 lanes give two bands per head at 100 rows.
      for (const int lanes : {1, 4}) {
        for (const std::size_t tile : {std::size_t{0}, std::size_t{37}}) {
          HackAttentionConfig cfg;
          cfg.pi = pi;
          cfg.requant_elimination = rqe;
          cfg.threads = lanes;
          cfg.tile_tokens = tile;
          HackLayerKvState layer(d_head, kv_heads, query_heads, cfg, kSeed);
          layer.append_tokens(in.k_all, in.v_all);
          HackAttnStats stats{};
          (void)layer.attend(in.q_all, {.causal = true, .key_offset = 0},
                             &stats);
          EXPECT_EQ(stats.int_macs, expected)
              << "l " << l << " rqe " << rqe << " lanes " << lanes
              << " tile " << tile;
        }
      }
    }
  }
}

TEST(LayerAttention, RejectsBadGeometry) {
  HackAttentionConfig cfg;
  cfg.pi = 32;
  EXPECT_THROW(HackLayerKvState(64, 3, 4, cfg, 0), CheckError);  // 3 ∤ 4
  EXPECT_THROW(HackLayerKvState(64, 0, 4, cfg, 0), CheckError);
  HackLayerKvState layer(64, 2, 4, cfg, 0);
  const LayerInputs in = make_layer_inputs(8, 64, 4, 2, 1);
  EXPECT_THROW(layer.append_tokens(in.k_all, in.q_all), CheckError);  // width
}

}  // namespace
}  // namespace hack
