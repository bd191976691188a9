#include "quant/quantizer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>

#include "base/thread_pool.h"
#include "quant/packed.h"
#include "tensor/half.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace hack {
namespace {

std::atomic<QuantizeArm> g_arm_cap{QuantizeArm::kAvx512};

struct SpanMeta {
  float min;
  float scale;
};

// Metadata is stored in FP16 (§6), so it is rounded before use: the codes
// must be computed against the metadata the dequantizer will actually see.
SpanMeta span_metadata(float lo, float hi, int levels) {
  return {fp16_round(lo), fp16_round((hi - lo) / static_cast<float>(levels))};
}

// The portable arm: one pass in index order, rounding each value as
// quantize_span's contract states. It draws from a local copy of the stream
// whose address never escapes, so the inlined xoshiro256** state stays in
// registers. Returns the code sum.
std::int64_t quantize_portable(const float* v, std::size_t n, SpanMeta meta,
                               int levels, Rounding rounding, Rng& rng,
                               std::uint8_t* codes) {
  Rng local = rng;
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = (static_cast<double>(v[i]) - meta.min) / meta.scale;
    const double lo = std::floor(x);
    const double frac = x - lo;
    double up = 0.0;
    if (rounding == Rounding::kNearest) {
      up = frac >= 0.5 ? 1.0 : 0.0;
    } else if (frac != 0.0 && local.next_double() < frac) {
      up = 1.0;
    }
    const std::uint8_t code =
        std::isfinite(lo) ? static_cast<std::uint8_t>(std::clamp(
                                lo + up, 0.0, static_cast<double>(levels)))
                          : 0;
    codes[i] = code;
    sum += code;
  }
  rng = local;
  return sum;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define HACK_QUANT_AVX512 "avx512f,avx512vl,avx512bw,avx512dq,bmi2,popcnt"

// The AVX-512 arm splits a span into two passes. Pass 1 computes every code
// as if no draw bumped it, eight values per vector, and lists the values
// that draw; pass 2 draws for them in index order. Longer spans run block
// by block, which keeps the draw order.
inline constexpr std::size_t kSpanBlock = 256;

// Pass 1's draw list for one block: a bitmap of the values with
// frac != 0 and, for each of them in index order, the bound below which its
// draw bumps the code. The scalar rule u < p, with u = (draw >> 11) · 2^-53,
// is exactly (draw >> 11) < ceil(p · 2^53). p is frac, or 0 where lo + 1
// clamps to the same code (lo < 0, lo >= levels, a non-finite x): such a
// value still draws, and nothing changes.
struct DrawList {
  static constexpr std::size_t kWords = kSpanBlock / 64;
  std::uint64_t below[kSpanBlock];
  std::uint64_t drawn[kWords];  // bit i % 64 of word i / 64: value i draws
  std::size_t n = 0;

  void reset() {
    n = 0;
    std::fill(drawn, drawn + kWords, std::uint64_t{0});
  }
};

// Pass 2 for one span: one draw per listed value, in list order, on a local
// copy of the stream (as in quantize_portable). Returns the bumps made.
std::int64_t draw_bumps(const DrawList& draws, std::uint8_t* codes,
                        Rng& rng) {
  Rng local = rng;
  std::int64_t bumps = 0;
  std::size_t j = 0;
  for (std::size_t w = 0; w < DrawList::kWords; ++w) {
    for (std::uint64_t m = draws.drawn[w]; m != 0; m &= m - 1) {
      const int up = (local.next_u64() >> 11) < draws.below[j++] ? 1 : 0;
      codes[w * 64 + static_cast<std::size_t>(std::countr_zero(m))] +=
          static_cast<std::uint8_t>(up);
      bumps += up;
    }
  }
  rng = local;
  return bumps;
}

bool cpu_has_avx512() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vl") &&
                         __builtin_cpu_supports("avx512bw") &&
                         __builtin_cpu_supports("avx512dq") &&
                         __builtin_cpu_supports("bmi2") &&
                         __builtin_cpu_supports("popcnt");
  return ok;
}

// Span [min, max] in 16-value vectors. Returns false on a NaN, whose
// ordering only std::minmax_element reproduces.
__attribute__((target(HACK_QUANT_AVX512))) bool minmax_avx512(
    const float* v, std::size_t n, float& lo, float& hi) {
  __m512 vmin = _mm512_set1_ps(std::numeric_limits<float>::infinity());
  __m512 vmax = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  __mmask16 nan = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live =
        n - i >= 16 ? __mmask16{0xFFFF}
                    : static_cast<__mmask16>((1u << (n - i)) - 1u);
    const __m512 x = _mm512_maskz_loadu_ps(live, v + i);
    vmin = _mm512_mask_min_ps(vmin, live, vmin, x);
    vmax = _mm512_mask_max_ps(vmax, live, vmax, x);
    nan |= _mm512_mask_cmp_ps_mask(live, x, x, _CMP_UNORD_Q);
  }
  lo = _mm512_reduce_min_ps(vmin);
  hi = _mm512_reduce_max_ps(vmax);
  return nan == 0;
}

// Pass 1: the portable arm's subtract, divide and floor, eight doubles at
// a time (the same IEEE operations, so the same values). Writes each
// value's unbumped code and returns their sum.
__attribute__((target(HACK_QUANT_AVX512))) std::int64_t prepare_avx512(
    const float* v, std::size_t n, double mn, double sc, int levels,
    bool stochastic, std::uint8_t* codes, DrawList& draws) {
  const __m512d vmn = _mm512_set1_pd(mn);
  const __m512d vsc = _mm512_set1_pd(sc);
  const __m512d vlev = _mm512_set1_pd(static_cast<double>(levels));
  const __m512d vneg1 = _mm512_set1_pd(-1.0);
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vhalf = _mm512_set1_pd(0.5);
  const __m512d vone = _mm512_set1_pd(1.0);
  const __m512d v2p53 = _mm512_set1_pd(0x1p53);
  const __m512d vinf =
      _mm512_set1_pd(std::numeric_limits<double>::infinity());
  __m256i vsum = _mm256_setzero_si256();
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 live = n - i >= 8
                              ? __mmask8{0xFF}
                              : static_cast<__mmask8>((1u << (n - i)) - 1u);
    const __m512d x = _mm512_div_pd(
        _mm512_sub_pd(_mm512_cvtps_pd(_mm256_maskz_loadu_ps(live, v + i)),
                      vmn),
        vsc);
    const __m512d lo =
        _mm512_roundscale_pd(x, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    const __m512d frac = _mm512_sub_pd(x, lo);
    const __mmask8 finite =
        _mm512_cmp_pd_mask(_mm512_abs_pd(lo), vinf, _CMP_LT_OQ);
    const __m512d c = _mm512_min_pd(_mm512_max_pd(lo, vneg1), vlev);
    const __mmask8 movable = finite &
                             _mm512_cmp_pd_mask(c, vzero, _CMP_GE_OQ) &
                             _mm512_cmp_pd_mask(c, vlev, _CMP_LT_OQ);
    __m512d code = _mm512_maskz_max_pd(finite, c, vzero);
    if (!stochastic) {
      code = _mm512_mask_add_pd(
          code, movable & _mm512_cmp_pd_mask(frac, vhalf, _CMP_GE_OQ), code,
          vone);
    } else {
      const __mmask8 draw =
          live & _mm512_cmp_pd_mask(frac, vzero, _CMP_NEQ_UQ);
      const __m512i below = _mm512_maskz_cvttpd_epu64(
          movable,
          _mm512_roundscale_pd(_mm512_mul_pd(frac, v2p53),
                               _MM_FROUND_TO_POS_INF | _MM_FROUND_NO_EXC));
      reinterpret_cast<std::uint8_t*>(draws.drawn)[i / 8] = draw;
      _mm512_mask_compressstoreu_epi64(draws.below + draws.n, draw, below);
      draws.n += static_cast<std::size_t>(std::popcount(draw));
    }
    const __m256i ci = _mm512_cvttpd_epi32(code);
    _mm_mask_storeu_epi8(codes + i, live, _mm256_cvtepi32_epi8(ci));
    vsum = _mm256_mask_add_epi32(vsum, live, vsum, ci);
  }
  alignas(32) std::int32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vsum);
  std::int64_t sum = 0;
  for (const std::int32_t s : lanes) sum += s;
  return sum;
}

// xoshiro256** rotate on 64-bit lanes.
template <int K>
__attribute__((target(HACK_QUANT_AVX512))) inline __m512i rotl_lanes(
    __m512i v) {
  return _mm512_rol_epi64(v, K);
}

// Pass 2 for up to 8 spans at once: lane l steps span l's stream (the
// state words s[0..3], lane l) through list l, as Rng::next_u64 would, and
// stops under a mask once the list is done, so every stream makes exactly
// its own draws in its own order. Bit j % 64 of bumps[j / 64][l] is lane
// l's j-th bump.
__attribute__((target(HACK_QUANT_AVX512))) void draw_lanes(
    const DrawList* lists, std::size_t lanes, __m512i (&s)[4],
    std::uint64_t (&bumps)[DrawList::kWords][8]) {
  alignas(64) std::uint64_t n[8] = {};
  alignas(64) std::int64_t offset[8] = {};
  std::size_t most = 0;
  constexpr std::size_t kStride = sizeof(DrawList) / sizeof(std::uint64_t);
  static_assert(sizeof(DrawList) % sizeof(std::uint64_t) == 0);
  for (std::size_t l = 0; l < lanes; ++l) {
    n[l] = lists[l].n;
    most = std::max(most, lists[l].n);
    offset[l] = static_cast<std::int64_t>(
        l * kStride + offsetof(DrawList, below) / sizeof(std::uint64_t));
  }
  const __m512i vn = _mm512_load_si512(n);
  const __m512i one = _mm512_set1_epi64(1);
  __m512i vj = _mm512_setzero_si512();
  __m512i vidx = _mm512_load_si512(offset);
  __m512i acc = _mm512_setzero_si512();
  for (std::size_t j = 0; j < most; ++j) {
    const __mmask8 m = _mm512_cmplt_epu64_mask(vj, vn);
    const __m512i bound = _mm512_mask_i64gather_epi64(
        _mm512_setzero_si512(), m, vidx, lists, 8);
    // result = rotl(s1 * 5, 7) * 9
    const __m512i s1x5 = _mm512_add_epi64(_mm512_slli_epi64(s[1], 2), s[1]);
    const __m512i rot = rotl_lanes<7>(s1x5);
    const __m512i result = _mm512_add_epi64(_mm512_slli_epi64(rot, 3), rot);
    const __mmask8 up = _mm512_mask_cmplt_epu64_mask(
        m, _mm512_srli_epi64(result, 11), bound);
    acc = _mm512_mask_or_epi64(acc, up, acc,
                               _mm512_set1_epi64(std::int64_t{1} << (j % 64)));
    if (j % 64 == 63) {
      _mm512_storeu_si512(bumps[j / 64], acc);
      acc = _mm512_setzero_si512();
    }
    const __m512i t = _mm512_slli_epi64(s[1], 17);
    const __m512i s2 = _mm512_xor_si512(s[2], s[0]);
    const __m512i s3 = _mm512_xor_si512(s[3], s[1]);
    const __m512i s1 = _mm512_xor_si512(s[1], s2);
    const __m512i s0 = _mm512_xor_si512(s[0], s3);
    s[0] = _mm512_mask_mov_epi64(s[0], m, s0);
    s[1] = _mm512_mask_mov_epi64(s[1], m, s1);
    s[2] = _mm512_mask_mov_epi64(s[2], m, _mm512_xor_si512(s2, t));
    s[3] = _mm512_mask_mov_epi64(s[3], m, rotl_lanes<45>(s3));
    vj = _mm512_add_epi64(vj, one);
    vidx = _mm512_add_epi64(vidx, one);
  }
  if (most % 64 != 0) _mm512_storeu_si512(bumps[most / 64], acc);
}

// Adds one lane's bumps to its codes: the bump bits are in draw order, so
// the next popcount(drawn word) of them deposit onto that word's draw
// positions, 64 codes per masked byte add. Returns the bumps made.
__attribute__((target(HACK_QUANT_AVX512))) std::int64_t apply_bumps(
    const DrawList& list, const std::uint64_t (&bumps)[DrawList::kWords][8],
    std::size_t lane, std::uint8_t* codes) {
  const __m512i ones = _mm512_set1_epi8(1);
  std::int64_t total = 0;
  std::size_t cursor = 0;
  for (std::size_t w = 0; w < DrawList::kWords; ++w) {
    const std::uint64_t drawn = list.drawn[w];
    if (drawn == 0) continue;
    const std::size_t q = cursor / 64, r = cursor % 64;
    const auto count = static_cast<std::size_t>(std::popcount(drawn));
    std::uint64_t bits = bumps[q][lane] >> r;
    if (r != 0 && r + count > 64) bits |= bumps[q + 1][lane] << (64 - r);
    cursor += count;
    const std::uint64_t at = _pdep_u64(bits, drawn);
    if (at == 0) continue;
    std::uint8_t* c = codes + w * 64;
    _mm512_mask_storeu_epi8(
        c, at, _mm512_add_epi8(_mm512_maskz_loadu_epi8(at, c), ones));
    total += std::popcount(at);
  }
  return total;
}

QuantizeArm cpu_arm() {
  return cpu_has_avx512() ? QuantizeArm::kAvx512 : QuantizeArm::kPortable;
}
#else
QuantizeArm cpu_arm() { return QuantizeArm::kPortable; }
#endif

QuantizeArm active_arm() {
  return std::min(cpu_arm(), g_arm_cap.load(std::memory_order_relaxed));
}

// std::minmax_element's (first smallest, last largest) of a span. The vector
// min/max find the values; only ±0 compare equal with different bits, so a
// zero extreme is re-read from the first (last) zero of the span.
void span_min_max(std::span<const float> values, bool avx512, float& lo,
                  float& hi) {
#ifdef HACK_QUANT_AVX512
  if (avx512 && minmax_avx512(values.data(), values.size(), lo, hi)) {
    if (lo == 0.0f) lo = *std::find(values.begin(), values.end(), 0.0f);
    if (hi == 0.0f) hi = *std::find(values.rbegin(), values.rend(), 0.0f);
    return;
  }
#endif
  (void)avx512;
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  lo = *lo_it;
  hi = *hi_it;
}

#ifdef HACK_QUANT_AVX512
// Up to 8 spans of a batch in lockstep: pass 1 span by span, then the
// draws of all their streams in vector lanes, block by block.
__attribute__((target(HACK_QUANT_AVX512))) void quantize_lanes(
    const SpanBatch& b, std::size_t first, std::size_t lanes, int bits) {
  const int levels = (1 << bits) - 1;
  SpanMeta meta[8];
  std::int64_t sum[8] = {};
  alignas(64) std::uint64_t words[4][8] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t i = first + l;
    float lo = 0.0f, hi = 0.0f;
    span_min_max({b.values + i * b.value_stride, b.len}, true, lo, hi);
    meta[l] = span_metadata(lo, hi, levels);
    b.mins[i * b.meta_stride] = meta[l].min;
    b.scales[i * b.meta_stride] = meta[l].scale;
    if (meta[l].scale == 0.0f) {
      std::fill_n(b.codes + i * b.code_stride, b.len, std::uint8_t{0});
    }
    const auto state = b.rngs[i].state();
    for (int w = 0; w < 4; ++w) words[w][l] = state[w];
  }
  __m512i s[4];
  for (int w = 0; w < 4; ++w) s[w] = _mm512_load_si512(words[w]);
  DrawList lists[8];
  alignas(64) std::uint64_t bumps[DrawList::kWords][8];
  for (std::size_t blk = 0; blk < b.len; blk += kSpanBlock) {
    const std::size_t n = std::min(kSpanBlock, b.len - blk);
    for (std::size_t l = 0; l < lanes; ++l) {
      lists[l].reset();
      if (meta[l].scale == 0.0f) continue;
      const std::size_t i = first + l;
      sum[l] += prepare_avx512(b.values + i * b.value_stride + blk, n,
                               meta[l].min, meta[l].scale, levels,
                               /*stochastic=*/true,
                               b.codes + i * b.code_stride + blk, lists[l]);
    }
    draw_lanes(lists, lanes, s, bumps);
    for (std::size_t l = 0; l < lanes; ++l) {
      sum[l] += apply_bumps(lists[l], bumps, l,
                            b.codes + (first + l) * b.code_stride + blk);
    }
  }
  for (int w = 0; w < 4; ++w) _mm512_store_si512(words[w], s[w]);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t i = first + l;
    b.rngs[i].set_state({words[0][l], words[1][l], words[2][l], words[3][l]});
    b.sums[i * b.meta_stride] = static_cast<std::int32_t>(sum[l]);
  }
}
#endif

}  // namespace

QuantizeArm quantize_cap_arm(QuantizeArm cap) {
  g_arm_cap.store(cap, std::memory_order_relaxed);
  return active_arm();
}

std::int64_t quantize_span(std::span<const float> values,
                           std::span<std::uint8_t> codes, int bits,
                           Rounding rounding, Rng& rng, float& out_min,
                           float& out_scale) {
  HACK_CHECK(!values.empty() && codes.size() == values.size(),
             "quantize_span needs matching non-empty spans");
  const bool avx512 = active_arm() == QuantizeArm::kAvx512;
  float lo = 0.0f, hi = 0.0f;
  span_min_max(values, avx512, lo, hi);
  const int levels = (1 << bits) - 1;
  const SpanMeta meta = span_metadata(lo, hi, levels);
  out_min = meta.min;
  out_scale = meta.scale;
  if (meta.scale == 0.0f) {
    std::fill(codes.begin(), codes.end(), std::uint8_t{0});
    return 0;
  }
  if (!avx512) {
    return quantize_portable(values.data(), values.size(), meta, levels,
                             rounding, rng, codes.data());
  }
  std::int64_t sum = 0;
#ifdef HACK_QUANT_AVX512
  const bool stochastic = rounding == Rounding::kStochastic;
  DrawList draws;
  for (std::size_t b = 0; b < values.size(); b += kSpanBlock) {
    const std::size_t n = std::min(kSpanBlock, values.size() - b);
    draws.reset();
    sum += prepare_avx512(values.data() + b, n, meta.min, meta.scale, levels,
                          stochastic, codes.data() + b, draws);
    sum += draw_bumps(draws, codes.data() + b, rng);
  }
#endif
  return sum;
}

void quantize_spans(const SpanBatch& batch, int bits, Rounding rounding) {
  HACK_CHECK(batch.len > 0, "quantize_spans needs non-empty spans");
#ifdef HACK_QUANT_AVX512
  if (rounding == Rounding::kStochastic &&
      active_arm() == QuantizeArm::kAvx512) {
    for (std::size_t first = 0; first < batch.count; first += 8) {
      quantize_lanes(batch, first, std::min<std::size_t>(8, batch.count - first),
                     bits);
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < batch.count; ++i) {
    const std::size_t m = i * batch.meta_stride;
    batch.sums[m] = static_cast<std::int32_t>(quantize_span(
        {batch.values + i * batch.value_stride, batch.len},
        {batch.codes + i * batch.code_stride, batch.len}, bits, rounding,
        batch.rngs[i], batch.mins[m], batch.scales[m]));
  }
}

QuantizedMatrix quantize(const Matrix& m, int bits, std::size_t pi,
                         QuantAxis axis, Rounding rounding, Rng& rng,
                         bool allow_ragged_tail, int threads) {
  HACK_CHECK(bits == 2 || bits == 4 || bits == 8,
             "unsupported quantization width: " << bits);
  HACK_CHECK(!m.empty(), "cannot quantize an empty matrix");

  QuantizedMatrix q;
  q.rows = m.rows();
  q.cols = m.cols();
  q.bits = bits;
  q.axis = axis;
  q.pi = pi;

  const std::size_t inner = axis == QuantAxis::kRow ? m.cols() : m.rows();
  const std::size_t outer = axis == QuantAxis::kRow ? m.rows() : m.cols();
  const PartitionScheme scheme(inner, pi, allow_ragged_tail);
  const std::size_t groups = scheme.group_count();

  q.codes.resize(m.size());
  q.mins.resize(outer * groups);
  q.scales.resize(outer * groups);
  q.groups = groups;

  // Quantizes one outer slice's partitions from `slice_rng`. A row-axis
  // partition is contiguous in both the matrix and the codes, so it is
  // quantized in place; a column-axis one is gathered into scratch.
  const auto quantize_slice = [&](std::size_t o, Rng& slice_rng,
                                  std::vector<float>& scratch,
                                  std::vector<std::uint8_t>& scratch_codes) {
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t begin = scheme.group_begin(g);
      const std::size_t len = scheme.group_size(g);
      float& part_min = q.mins[o * groups + g];
      float& part_scale = q.scales[o * groups + g];
      if (axis == QuantAxis::kRow) {
        quantize_span(m.row(o).subspan(begin, len),
                      {q.codes.data() + o * q.cols + begin, len}, bits,
                      rounding, slice_rng, part_min, part_scale);
        continue;
      }
      scratch.resize(len);
      scratch_codes.resize(len);
      for (std::size_t t = 0; t < len; ++t) scratch[t] = m(begin + t, o);
      quantize_span(scratch, scratch_codes, bits, rounding, slice_rng,
                    part_min, part_scale);
      for (std::size_t t = 0; t < len; ++t) {
        q.codes[(begin + t) * q.cols + o] = scratch_codes[t];
      }
    }
  };

  if (outer < 2 || m.size() < kParallelQuantizeMinValues) {
    // Serial path on the caller's stream: byte-identical to the original
    // implementation, no pool dispatch for decode-step appends.
    std::vector<float> scratch;
    std::vector<std::uint8_t> scratch_codes;
    for (std::size_t o = 0; o < outer; ++o) {
      quantize_slice(o, rng, scratch, scratch_codes);
    }
    return q;
  }

  // Parallel path: sub-streams are forked in slice order before dispatch, so
  // the result depends only on the caller's rng state — not on the pool size,
  // the `threads` request, or scheduling.
  std::vector<Rng> slice_rngs;
  slice_rngs.reserve(outer);
  for (std::size_t o = 0; o < outer; ++o) {
    slice_rngs.push_back(rng.fork());
  }
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    std::vector<float> scratch;
    std::vector<std::uint8_t> scratch_codes;
    for (std::size_t o = begin; o < end; ++o) {
      quantize_slice(o, slice_rngs[o], scratch, scratch_codes);
    }
  };
  if (threads == 1) {
    run_range(0, outer);
  } else {
    ThreadPool& pool = ThreadPool::global();
    pool.parallel_for(outer, chunks_for_request(threads, outer, pool.lanes()),
                      run_range);
  }
  return q;
}

void pack_storage(QuantizedMatrix& q) {
  HACK_CHECK(q.bits == 2 || q.bits == 4 || q.bits == 8,
             "unsupported code width " << q.bits);
  if (q.bits == 8 || q.storage_bits == q.bits) return;
  HACK_CHECK(q.storage_bits == 8,
             "cannot pack from storage width " << q.storage_bits);
  const std::size_t stride =
      (q.cols * static_cast<std::size_t>(q.bits) + 7) / 8;
  std::vector<std::uint8_t> packed(q.rows * stride, 0);
  if (!q.codes.empty()) {
    if ((q.cols * static_cast<std::size_t>(q.bits)) % 8 == 0) {
      // Rows are byte-exact, so row-padded packing equals one flat pack.
      pack_codes(q.codes, q.bits, packed.data());
    } else {
      for (std::size_t r = 0; r < q.rows; ++r) {
        pack_codes(std::span<const std::uint8_t>(q.codes)
                       .subspan(r * q.cols, q.cols),
                   q.bits, packed.data() + r * stride);
      }
    }
  }
  q.codes = std::move(packed);
  q.storage_bits = q.bits;
}

void unpack_storage(QuantizedMatrix& q) {
  if (q.storage_bits == 8) return;
  const std::size_t stride = q.code_row_stride();
  std::vector<std::uint8_t> raw(q.rows * q.cols);
  if (!raw.empty()) {
    if ((q.cols * static_cast<std::size_t>(q.storage_bits)) % 8 == 0) {
      unpack_codes(q.codes, q.storage_bits, q.rows * q.cols, raw.data());
    } else {
      for (std::size_t r = 0; r < q.rows; ++r) {
        unpack_codes(
            std::span<const std::uint8_t>(q.codes).subspan(r * stride, stride),
            q.storage_bits, q.cols, raw.data() + r * q.cols);
      }
    }
  }
  q.codes = std::move(raw);
  q.storage_bits = 8;
}

Matrix dequantize(const QuantizedMatrix& q, int threads) {
  Matrix m(q.rows, q.cols);
  const std::size_t groups = q.group_count();
  const PartitionScheme scheme(q.inner(), q.pi, /*allow_ragged_tail=*/true);
  HACK_CHECK(scheme.group_count() == groups, "inconsistent group count");
  const auto dequantize_rows = [&](std::size_t r_begin, std::size_t r_end) {
    for (std::size_t r = r_begin; r < r_end; ++r) {
      for (std::size_t c = 0; c < q.cols; ++c) {
        const std::size_t o = q.axis == QuantAxis::kRow ? r : c;
        const std::size_t z = q.axis == QuantAxis::kRow ? c : r;
        const std::size_t g = scheme.group_of(z);
        m(r, c) = q.scale_of(o, g) * static_cast<float>(q.code_at(r, c)) +
                  q.min_of(o, g);
      }
    }
  };
  if (threads == 1 || q.rows < 2 ||
      q.rows * q.cols < kParallelQuantizeMinValues) {
    dequantize_rows(0, q.rows);
  } else {
    ThreadPool& pool = ThreadPool::global();
    pool.parallel_for(q.rows,
                      chunks_for_request(threads, q.rows, pool.lanes()),
                      dequantize_rows);
  }
  return m;
}

float max_abs_error_bound(const QuantizedMatrix& q) {
  // Stochastic rounding moves a value by at most one code step (one scale),
  // and FP16 metadata rounding adds at most half an ULP of min plus the value
  // range times half an ULP of scale; the dominant term is the code step.
  float bound = 0.0f;
  const int levels = (1 << q.bits) - 1;
  for (std::size_t i = 0; i < q.scales.size(); ++i) {
    const float s = q.scales[i];
    const float m = std::fabs(q.mins[i]);
    // scale step + fp16 rounding slack on metadata.
    const float slack = s + 0.001f * (m + s * static_cast<float>(levels));
    bound = std::max(bound, slack);
  }
  return bound;
}

std::size_t QuantizedMatrix::packed_code_bytes() const {
  // Each outer slice is padded to a whole byte, matching the packed layout in
  // quant/packed.h.
  const std::size_t bits_per_outer = inner() * static_cast<std::size_t>(bits);
  const std::size_t bytes_per_outer = (bits_per_outer + 7) / 8;
  return outer() * bytes_per_outer;
}

void append_rows(QuantizedMatrix& q, const QuantizedMatrix& extra) {
  HACK_CHECK(q.axis == QuantAxis::kRow && extra.axis == QuantAxis::kRow,
             "append_rows requires row-axis quantization");
  HACK_CHECK(q.cols == extra.cols && q.bits == extra.bits && q.pi == extra.pi,
             "append_rows layout mismatch");
  HACK_CHECK(q.storage_bits == extra.storage_bits,
             "append_rows storage mismatch: " << q.storage_bits << " vs "
                                              << extra.storage_bits);
  // Rows are byte-padded in packed storage, so the concat stays row-exact.
  q.codes.insert(q.codes.end(), extra.codes.begin(), extra.codes.end());
  q.mins.insert(q.mins.end(), extra.mins.begin(), extra.mins.end());
  q.scales.insert(q.scales.end(), extra.scales.begin(), extra.scales.end());
  q.rows += extra.rows;
}

void append_inner_groups(QuantizedMatrix& q, const QuantizedMatrix& extra) {
  HACK_CHECK(q.axis == QuantAxis::kCol && extra.axis == QuantAxis::kCol,
             "append_inner_groups requires col-axis quantization");
  HACK_CHECK(q.cols == extra.cols && q.bits == extra.bits && q.pi == extra.pi,
             "append_inner_groups layout mismatch");
  HACK_CHECK(q.rows % q.pi == 0,
             "existing inner dim must be whole partitions, got " << q.rows);
  HACK_CHECK(extra.rows % q.pi == 0,
             "appended chunk must be whole partitions, got " << extra.rows);
  HACK_CHECK(q.storage_bits == extra.storage_bits,
             "append_inner_groups storage mismatch: "
                 << q.storage_bits << " vs " << extra.storage_bits);

  // Codes are row-major so appending rows is contiguous.
  q.codes.insert(q.codes.end(), extra.codes.begin(), extra.codes.end());

  // Metadata is indexed outer * group_count + group; group_count changes, so
  // re-lay it out.
  const std::size_t old_groups = q.rows / q.pi;
  const std::size_t add_groups = extra.rows / q.pi;
  const std::size_t new_groups = old_groups + add_groups;
  std::vector<float> mins(q.cols * new_groups);
  std::vector<float> scales(q.cols * new_groups);
  for (std::size_t o = 0; o < q.cols; ++o) {
    for (std::size_t g = 0; g < old_groups; ++g) {
      mins[o * new_groups + g] = q.mins[o * old_groups + g];
      scales[o * new_groups + g] = q.scales[o * old_groups + g];
    }
    for (std::size_t g = 0; g < add_groups; ++g) {
      mins[o * new_groups + old_groups + g] = extra.mins[o * add_groups + g];
      scales[o * new_groups + old_groups + g] =
          extra.scales[o * add_groups + g];
    }
  }
  q.mins = std::move(mins);
  q.scales = std::move(scales);
  q.rows += extra.rows;
  q.groups = new_groups;
}

}  // namespace hack
