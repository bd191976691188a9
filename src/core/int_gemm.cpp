#include "core/int_gemm.h"

#include <algorithm>
#include <atomic>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define HACK_X86_SIMD 1
#include <immintrin.h>
#endif

namespace hack {
namespace {

std::atomic<IntGemmArm> g_arm_cap{IntGemmArm::kVnni};

// Storage stride of one packed row (bytes). BITS == 8 is the classic
// one-byte-per-code layout.
template <int BITS>
constexpr std::size_t row_stride(std::size_t cols) {
  if constexpr (BITS == 8) return cols;
  return (cols * static_cast<std::size_t>(BITS) + 7) / 8;
}

// Scalar extraction of code c from a (possibly bit-packed) row.
template <int BITS>
inline std::uint8_t code_load(const std::uint8_t* row, std::size_t c) {
  if constexpr (BITS == 8) {
    return row[c];
  } else {
    const std::size_t bit = c * static_cast<std::size_t>(BITS);
    return static_cast<std::uint8_t>((row[bit >> 3] >> (bit & 7)) &
                                     ((1u << BITS) - 1u));
  }
}

// Portable NN band: 4-row register tile; each B row streamed once feeds four
// C rows. The inner j-loop is a plain quad-axpy, which the compiler
// vectorizes for byte storage; packed storage extracts codes inline.
template <int BITS>
void int_gemm_nn_rows_portable(const CodeView& a, const CodeView& b,
                               std::size_t i_begin, std::size_t i_end,
                               std::size_t z_begin, std::size_t z_end,
                               std::int32_t* out) {
  const std::size_t n = b.cols;
  const std::size_t bstride = row_stride<BITS>(n);
  std::size_t i = i_begin;
  for (; i + 4 <= i_end; i += 4) {
    std::int32_t* dst0 = out + (i - i_begin) * n;
    std::int32_t* dst1 = dst0 + n;
    std::int32_t* dst2 = dst1 + n;
    std::int32_t* dst3 = dst2 + n;
    const std::uint8_t* arow0 = a.data + i * a.cols;
    for (std::size_t z = z_begin; z < z_end; ++z) {
      const std::int32_t a0 = arow0[z];
      const std::int32_t a1 = arow0[a.cols + z];
      const std::int32_t a2 = arow0[2 * a.cols + z];
      const std::int32_t a3 = arow0[3 * a.cols + z];
      if ((a0 | a1 | a2 | a3) == 0) continue;
      const std::uint8_t* brow = b.data + z * bstride;
      for (std::size_t j = 0; j < n; ++j) {
        const std::int32_t bv = code_load<BITS>(brow, j);
        dst0[j] += a0 * bv;
        dst1[j] += a1 * bv;
        dst2[j] += a2 * bv;
        dst3[j] += a3 * bv;
      }
    }
  }
  for (; i < i_end; ++i) {
    std::int32_t* dst = out + (i - i_begin) * n;
    const std::uint8_t* arow = a.data + i * a.cols;
    for (std::size_t z = z_begin; z < z_end; ++z) {
      const std::int32_t aiz = arow[z];
      if (aiz == 0) continue;
      const std::uint8_t* brow = b.data + z * bstride;
      for (std::size_t j = 0; j < n; ++j) {
        dst[j] += aiz * static_cast<std::int32_t>(code_load<BITS>(brow, j));
      }
    }
  }
}

// Portable NT band: 4x4 register tile, 16 accumulators, each A/B row loaded
// once per z step instead of once per output.
template <int BITS>
void int_gemm_nt_rows_portable(const CodeView& a, const CodeView& b,
                               std::size_t i_begin, std::size_t i_end,
                               std::size_t z_begin, std::size_t z_end,
                               std::int32_t* out) {
  const std::size_t n = b.rows;
  const std::size_t bstride = row_stride<BITS>(b.cols);
  const std::size_t zlen = z_end - z_begin;
  std::size_t i = i_begin;
  for (; i + 4 <= i_end; i += 4) {
    const std::uint8_t* pa0 = a.data + i * a.cols + z_begin;
    const std::uint8_t* pa1 = pa0 + a.cols;
    const std::uint8_t* pa2 = pa1 + a.cols;
    const std::uint8_t* pa3 = pa2 + a.cols;
    std::int32_t* dst0 = out + (i - i_begin) * n;
    std::int32_t* dst1 = dst0 + n;
    std::int32_t* dst2 = dst1 + n;
    std::int32_t* dst3 = dst2 + n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::uint8_t* pb0 = b.data + j * bstride;
      const std::uint8_t* pb1 = pb0 + bstride;
      const std::uint8_t* pb2 = pb1 + bstride;
      const std::uint8_t* pb3 = pb2 + bstride;
      std::int32_t c00 = 0, c01 = 0, c02 = 0, c03 = 0;
      std::int32_t c10 = 0, c11 = 0, c12 = 0, c13 = 0;
      std::int32_t c20 = 0, c21 = 0, c22 = 0, c23 = 0;
      std::int32_t c30 = 0, c31 = 0, c32 = 0, c33 = 0;
      for (std::size_t z = 0; z < zlen; ++z) {
        const std::int32_t a0 = pa0[z], a1 = pa1[z], a2 = pa2[z], a3 = pa3[z];
        const std::int32_t b0 = code_load<BITS>(pb0, z_begin + z);
        const std::int32_t b1 = code_load<BITS>(pb1, z_begin + z);
        const std::int32_t b2 = code_load<BITS>(pb2, z_begin + z);
        const std::int32_t b3 = code_load<BITS>(pb3, z_begin + z);
        c00 += a0 * b0; c01 += a0 * b1; c02 += a0 * b2; c03 += a0 * b3;
        c10 += a1 * b0; c11 += a1 * b1; c12 += a1 * b2; c13 += a1 * b3;
        c20 += a2 * b0; c21 += a2 * b1; c22 += a2 * b2; c23 += a2 * b3;
        c30 += a3 * b0; c31 += a3 * b1; c32 += a3 * b2; c33 += a3 * b3;
      }
      dst0[j] += c00; dst0[j + 1] += c01; dst0[j + 2] += c02; dst0[j + 3] += c03;
      dst1[j] += c10; dst1[j + 1] += c11; dst1[j + 2] += c12; dst1[j + 3] += c13;
      dst2[j] += c20; dst2[j + 1] += c21; dst2[j + 2] += c22; dst2[j + 3] += c23;
      dst3[j] += c30; dst3[j + 1] += c31; dst3[j + 2] += c32; dst3[j + 3] += c33;
    }
    for (; j < n; ++j) {
      const std::uint8_t* pb = b.data + j * bstride;
      std::int32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
      for (std::size_t z = 0; z < zlen; ++z) {
        const std::int32_t bv = code_load<BITS>(pb, z_begin + z);
        c0 += static_cast<std::int32_t>(pa0[z]) * bv;
        c1 += static_cast<std::int32_t>(pa1[z]) * bv;
        c2 += static_cast<std::int32_t>(pa2[z]) * bv;
        c3 += static_cast<std::int32_t>(pa3[z]) * bv;
      }
      dst0[j] += c0;
      dst1[j] += c1;
      dst2[j] += c2;
      dst3[j] += c3;
    }
  }
  for (; i < i_end; ++i) {
    // Tail rows (and the decode GEMV case): one A row against 4 B rows.
    const std::uint8_t* pa = a.data + i * a.cols + z_begin;
    std::int32_t* dst = out + (i - i_begin) * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::uint8_t* pb0 = b.data + j * bstride;
      const std::uint8_t* pb1 = pb0 + bstride;
      const std::uint8_t* pb2 = pb1 + bstride;
      const std::uint8_t* pb3 = pb2 + bstride;
      std::int32_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
      for (std::size_t z = 0; z < zlen; ++z) {
        const std::int32_t av = pa[z];
        c0 += av * static_cast<std::int32_t>(code_load<BITS>(pb0, z_begin + z));
        c1 += av * static_cast<std::int32_t>(code_load<BITS>(pb1, z_begin + z));
        c2 += av * static_cast<std::int32_t>(code_load<BITS>(pb2, z_begin + z));
        c3 += av * static_cast<std::int32_t>(code_load<BITS>(pb3, z_begin + z));
      }
      dst[j] += c0;
      dst[j + 1] += c1;
      dst[j + 2] += c2;
      dst[j + 3] += c3;
    }
    for (; j < n; ++j) {
      dst[j] += int_dot_nt(a, b, i, j, z_begin, z_end);
    }
  }
}

#ifdef HACK_X86_SIMD

bool cpu_has_avx2() {
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
}

// In-register expansion of 16 consecutive codes starting at column j of a
// (possibly packed) row, one code per byte of the returned __m128i. Packed
// callers must pass j with j * BITS on a byte boundary (the vectorized loops
// step j by 16, which keeps any 2-/4-bit offset byte-aligned).
template <int BITS>
__attribute__((target("avx2"))) inline __m128i load16_bcodes(
    const std::uint8_t* row, std::size_t j) {
  if constexpr (BITS == 8) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + j));
  } else if constexpr (BITS == 4) {
    // 8 bytes = 16 nibbles; widen each byte to a 16-bit lane, then place the
    // low nibble in the lane's low byte and the high nibble in its high byte.
    const __m128i t = _mm_cvtepu8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + j / 2)));
    return _mm_or_si128(_mm_and_si128(t, _mm_set1_epi16(0x000F)),
                        _mm_and_si128(_mm_slli_epi16(t, 4),
                                      _mm_set1_epi16(0x0F00)));
  } else {
    static_assert(BITS == 2);
    // 4 bytes = 16 crumbs; widen each byte to a 32-bit lane and shift each
    // crumb into its own byte of the lane.
    std::uint32_t w;
    std::memcpy(&w, row + j / 4, sizeof(w));
    const __m128i t = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(w)));
    __m128i r = _mm_and_si128(t, _mm_set1_epi32(0x3));
    r = _mm_or_si128(r, _mm_and_si128(_mm_slli_epi32(t, 6),
                                      _mm_set1_epi32(0x300)));
    r = _mm_or_si128(r, _mm_and_si128(_mm_slli_epi32(t, 12),
                                      _mm_set1_epi32(0x30000)));
    r = _mm_or_si128(r, _mm_and_si128(_mm_slli_epi32(t, 18),
                                      _mm_set1_epi32(0x3000000)));
    return r;
  }
}

// Same expansion for 32 consecutive codes starting at column z, one code per
// byte of the returned __m256i. Packed callers must keep z * BITS on a byte
// boundary (the NT loop aligns its vector range first, then steps z by 32).
template <int BITS>
__attribute__((target("avx2"))) inline __m256i load32_bcodes(
    const std::uint8_t* row, std::size_t z) {
  if constexpr (BITS == 8) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + z));
  } else if constexpr (BITS == 4) {
    const __m256i t = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + z / 2)));
    return _mm256_or_si256(_mm256_and_si256(t, _mm256_set1_epi16(0x000F)),
                           _mm256_and_si256(_mm256_slli_epi16(t, 4),
                                            _mm256_set1_epi16(0x0F00)));
  } else {
    static_assert(BITS == 2);
    const __m256i t = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row + z / 4)));
    __m256i r = _mm256_and_si256(t, _mm256_set1_epi32(0x3));
    r = _mm256_or_si256(r, _mm256_and_si256(_mm256_slli_epi32(t, 6),
                                            _mm256_set1_epi32(0x300)));
    r = _mm256_or_si256(r, _mm256_and_si256(_mm256_slli_epi32(t, 12),
                                            _mm256_set1_epi32(0x30000)));
    r = _mm256_or_si256(r, _mm256_and_si256(_mm256_slli_epi32(t, 18),
                                            _mm256_set1_epi32(0x3000000)));
    return r;
  }
}

// NN band via explicit widening multiplies. B rows are consumed in z-pairs:
// the bytes of two consecutive B rows are interleaved to [b_z0[j], b_z1[j]]
// (the signed operand of pmaddubsw, which is why this path requires B codes
// < 64) and multiplied against the broadcast A pair [a_i[z0], a_i[z1]] (the
// unsigned operand, full 8-bit range). Each resulting int16 lane holds the
// per-column partial a0·b_z0[j] + a1·b_z1[j] (<= 2·255·63 = 32130, no
// saturation), which is widened in j-order into int32 accumulators held in
// registers across the z-chunk. R is the number of C rows in the register
// tile (4 for the steady state, 1–3 for band remainders and the decode
// GEMV), so packed decode never falls back to scalar extraction.
inline constexpr std::size_t kNnZChunk = 256;  // even, so pairs stay aligned

template <int BITS, int R>
__attribute__((target("avx2"))) void int_gemm_nn_block_avx2(
    const CodeView& a, const CodeView& b, std::size_t i, std::size_t i_begin,
    std::size_t z_begin, std::size_t z_end, std::int32_t* out) {
  const std::size_t n = b.cols;
  const std::size_t bstride = row_stride<BITS>(n);
  const std::size_t jvec = n & ~static_cast<std::size_t>(15);

  for (std::size_t zc = z_begin; zc < z_end; zc += kNnZChunk) {
    const std::size_t zc_end = std::min(zc + kNnZChunk, z_end);
    const std::size_t pairs = (zc_end - zc) / 2;
    const bool odd = ((zc_end - zc) & 1) != 0;

    // Broadcast-ready (a[z0] | a[z1] << 8) pairs for the tile rows.
    std::uint16_t apair[R][kNnZChunk / 2];
    for (std::size_t r = 0; r < R; ++r) {
      const std::uint8_t* ar = a.data + (i + r) * a.cols + zc;
      for (std::size_t p = 0; p < pairs; ++p) {
        apair[r][p] = static_cast<std::uint16_t>(
            ar[2 * p] | (static_cast<std::uint16_t>(ar[2 * p + 1]) << 8));
      }
    }

    for (std::size_t j = 0; j < jvec; j += 16) {
      __m256i acc_lo[R], acc_hi[R];
      for (std::size_t r = 0; r < R; ++r) {
        std::int32_t* dst = out + (i + r - i_begin) * n + j;
        acc_lo[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst));
        acc_hi[r] =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + 8));
      }
      for (std::size_t p = 0; p < pairs; ++p) {
        std::uint16_t any = 0;
        for (std::size_t r = 0; r < R; ++r) any |= apair[r][p];
        if (any == 0) continue;
        const std::uint8_t* brow0 = b.data + (zc + 2 * p) * bstride;
        const std::uint8_t* brow1 = brow0 + bstride;
        const __m128i b0 = load16_bcodes<BITS>(brow0, j);
        const __m128i b1 = load16_bcodes<BITS>(brow1, j);
        const __m256i inter = _mm256_set_m128i(_mm_unpackhi_epi8(b0, b1),
                                               _mm_unpacklo_epi8(b0, b1));
        for (std::size_t r = 0; r < R; ++r) {
          const __m256i prod = _mm256_maddubs_epi16(
              _mm256_set1_epi16(static_cast<short>(apair[r][p])), inter);
          acc_lo[r] = _mm256_add_epi32(
              acc_lo[r], _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
          acc_hi[r] = _mm256_add_epi32(
              acc_hi[r],
              _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
        }
      }
      if (odd) {
        const std::size_t z = zc_end - 1;
        const std::uint8_t* brow = b.data + z * bstride;
        const __m256i bw = _mm256_cvtepu8_epi16(load16_bcodes<BITS>(brow, j));
        for (std::size_t r = 0; r < R; ++r) {
          const std::int32_t av = a.data[(i + r) * a.cols + z];
          if (av == 0) continue;
          const __m256i prod = _mm256_mullo_epi16(
              _mm256_set1_epi16(static_cast<short>(av)), bw);  // <= 255·63
          acc_lo[r] = _mm256_add_epi32(
              acc_lo[r], _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
          acc_hi[r] = _mm256_add_epi32(
              acc_hi[r],
              _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
        }
      }
      for (std::size_t r = 0; r < R; ++r) {
        std::int32_t* dst = out + (i + r - i_begin) * n + j;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), acc_lo[r]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + 8), acc_hi[r]);
      }
    }

    // Remaining columns: scalar axpy over this z-chunk.
    if (jvec < n) {
      for (std::size_t z = zc; z < zc_end; ++z) {
        std::int32_t av[R];
        std::int32_t any = 0;
        for (std::size_t r = 0; r < R; ++r) {
          av[r] = a.data[(i + r) * a.cols + z];
          any |= av[r];
        }
        if (any == 0) continue;
        const std::uint8_t* brow = b.data + z * bstride;
        for (std::size_t j = jvec; j < n; ++j) {
          const std::int32_t bv = code_load<BITS>(brow, j);
          for (std::size_t r = 0; r < R; ++r) {
            out[(i + r - i_begin) * n + j] += av[r] * bv;
          }
        }
      }
    }
  }
}

template <int BITS>
__attribute__((target("avx2"))) void int_gemm_nn_rows_avx2(
    const CodeView& a, const CodeView& b, std::size_t i_begin,
    std::size_t i_end, std::size_t z_begin, std::size_t z_end,
    std::int32_t* out) {
  std::size_t i = i_begin;
  for (; i + 4 <= i_end; i += 4) {
    int_gemm_nn_block_avx2<BITS, 4>(a, b, i, i_begin, z_begin, z_end, out);
  }
  switch (i_end - i) {
    case 3:
      int_gemm_nn_block_avx2<BITS, 3>(a, b, i, i_begin, z_begin, z_end, out);
      break;
    case 2:
      int_gemm_nn_block_avx2<BITS, 2>(a, b, i, i_begin, z_begin, z_end, out);
      break;
    case 1:
      int_gemm_nn_block_avx2<BITS, 1>(a, b, i, i_begin, z_begin, z_end, out);
      break;
    default:
      break;
  }
}

// NT band via the u8 x i8 multiply-add idiom. Requires every B code < 64 so
// the adjacent-pair sums of pmaddubsw (<= 2 * 255 * 63 = 32130) fit int16.
// A is the unsigned operand (full 8-bit range allowed). Packed B rows are
// expanded 32 codes at a time; a scalar head first walks the z-range up to a
// byte boundary so every vector load starts byte-aligned.
template <int BITS>
__attribute__((target("avx2"))) void int_gemm_nt_rows_avx2(
    const CodeView& a, const CodeView& b, std::size_t i_begin,
    std::size_t i_end, std::size_t z_begin, std::size_t z_end,
    std::int32_t* out) {
  const std::size_t n = b.rows;
  const std::size_t bstride = row_stride<BITS>(b.cols);
  std::size_t zv_begin = z_begin;
  if constexpr (BITS != 8) {
    const std::size_t misbits = (z_begin * BITS) & 7;
    if (misbits != 0) {
      zv_begin = std::min(z_end, z_begin + (8 - misbits) / BITS);
    }
  }
  const std::size_t zvec = (z_end - zv_begin) & ~static_cast<std::size_t>(31);
  const std::size_t zv_end = zv_begin + zvec;
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::size_t i = i_begin; i < i_end; ++i) {
    const std::uint8_t* pa = a.data + i * a.cols;
    std::int32_t* dst = out + (i - i_begin) * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const std::uint8_t* pb0 = b.data + j * bstride;
      const std::uint8_t* pb1 = pb0 + bstride;
      const std::uint8_t* pb2 = pb1 + bstride;
      const std::uint8_t* pb3 = pb2 + bstride;
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (std::size_t z = zv_begin; z < zv_end; z += 32) {
        const __m256i av =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pa + z));
        acc0 = _mm256_add_epi32(
            acc0, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, load32_bcodes<BITS>(pb0, z)),
                      ones));
        acc1 = _mm256_add_epi32(
            acc1, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, load32_bcodes<BITS>(pb1, z)),
                      ones));
        acc2 = _mm256_add_epi32(
            acc2, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, load32_bcodes<BITS>(pb2, z)),
                      ones));
        acc3 = _mm256_add_epi32(
            acc3, _mm256_madd_epi16(
                      _mm256_maddubs_epi16(av, load32_bcodes<BITS>(pb3, z)),
                      ones));
      }
      // Fold the four accumulators into one lane each.
      const __m256i h01 = _mm256_hadd_epi32(acc0, acc1);
      const __m256i h23 = _mm256_hadd_epi32(acc2, acc3);
      const __m256i h = _mm256_hadd_epi32(h01, h23);
      const __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(h),
                                        _mm256_extracti128_si256(h, 1));
      alignas(16) std::int32_t lanes[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes), sum);
      std::int32_t c0 = lanes[0], c1 = lanes[1], c2 = lanes[2], c3 = lanes[3];
      // Scalar head (alignment) and tail (vector remainder).
      for (std::size_t z = z_begin; z < zv_begin; ++z) {
        const std::int32_t av = pa[z];
        c0 += av * static_cast<std::int32_t>(code_load<BITS>(pb0, z));
        c1 += av * static_cast<std::int32_t>(code_load<BITS>(pb1, z));
        c2 += av * static_cast<std::int32_t>(code_load<BITS>(pb2, z));
        c3 += av * static_cast<std::int32_t>(code_load<BITS>(pb3, z));
      }
      for (std::size_t z = zv_end; z < z_end; ++z) {
        const std::int32_t av = pa[z];
        c0 += av * static_cast<std::int32_t>(code_load<BITS>(pb0, z));
        c1 += av * static_cast<std::int32_t>(code_load<BITS>(pb1, z));
        c2 += av * static_cast<std::int32_t>(code_load<BITS>(pb2, z));
        c3 += av * static_cast<std::int32_t>(code_load<BITS>(pb3, z));
      }
      dst[j] += c0;
      dst[j + 1] += c1;
      dst[j + 2] += c2;
      dst[j + 3] += c3;
    }
    for (; j < n; ++j) {
      dst[j] += int_dot_nt(a, b, i, j, z_begin, z_end);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX-512 VNNI arm. Both layouts reduce to one kernel over a *quad layout* of
// B: L[q * ld + j] is an int32 lane holding the four B codes that column j
// multiplies at z = z0 + 4q .. z0 + 4q + 3 (byte k = offset k), zero past
// the z-range and in the padding columns [n, ld). For NT that is
// [z/4][key][4] of the K rows, for NN [z/4][column][4] of the V rows. One
// `vpdpbusd` then adds four exact u8 × s8 products per lane: A (Q or P
// codes, full 8-bit range) is the unsigned operand, broadcast four bytes at
// a time; B is the signed one, so its codes must stay below 128. The codes
// are expanded once per call instead of once per A row, and every int32
// accumulator is the same exact sum the other arms compute.
#define HACK_VNNI_TARGET "avx2,avx512f,avx512bw,avx512vl,avx512vnni"

bool cpu_has_vnni() {
  static const bool ok = __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512bw") &&
                         __builtin_cpu_supports("avx512vl") &&
                         __builtin_cpu_supports("avx512vnni");
  return ok;
}

// Extents of one layout build: at most kVnniQuads z-quads by kVnniCols
// columns (256 KiB of int32 lanes), so a thread's scratch stays bounded for
// any operand shape.
inline constexpr std::size_t kVnniQuads = 64;
inline constexpr std::size_t kVnniCols = 1024;
inline constexpr std::size_t kVnniTileRows = 8;

// The NT layout build costs about as much as two A rows of AVX2 multiply-
// adds against in-register expanded codes (2048 keys × 128 z of 2-bit K on
// a 4-vCPU AVX-512 host: one row 19 µs on AVX2 vs 37 µs on VNNI, three rows
// 62 vs 49 µs), so shorter bands, the decode GEMV among them, stay on AVX2.
// The NN layout is one row of P long and pays off from a single row.
inline constexpr std::size_t kVnniMinNtRows = 3;

// The four codes at z .. z + 3 of a row as one little-endian quad. Needs a
// whole quad inside the z-range and, for packed rows, z * BITS on a byte
// boundary.
template <int BITS>
inline std::uint32_t code_quad(const std::uint8_t* row, std::size_t z) {
  if constexpr (BITS == 8) {
    std::uint32_t w;
    std::memcpy(&w, row + z, sizeof(w));
    return w;
  } else if constexpr (BITS == 4) {
    const std::uint32_t w = row[z / 2] | (std::uint32_t{row[z / 2 + 1]} << 8);
    return (w & 0xFu) | ((w & 0xF0u) << 4) | ((w & 0xF00u) << 8) |
           ((w & 0xF000u) << 12);
  } else {
    static_assert(BITS == 2);
    const std::uint32_t w = row[z / 4];
    return (w & 0x3u) | ((w & 0xCu) << 6) | ((w & 0x30u) << 12) |
           ((w & 0xC0u) << 18);
  }
}

// The codes at z .. min(z + 4, z_end) of a row, zero-filled, one at a time:
// the partial last quad and packed ranges that start inside a byte.
template <int BITS>
inline std::uint32_t code_quad_scalar(const std::uint8_t* row, std::size_t z,
                                      std::size_t z_end) {
  std::uint32_t w = 0;
  for (std::size_t k = 0; z + k < z_end && k < 4; ++k) {
    w |= std::uint32_t{code_load<BITS>(row, z + k)} << (8 * k);
  }
  return w;
}

// Sixteen whole quads of one row starting at z (z * BITS on a byte
// boundary), quad q in lane q.
template <int BITS>
__attribute__((target(HACK_VNNI_TARGET))) inline __m512i load16_quads(
    const std::uint8_t* row, std::size_t z) {
  if constexpr (BITS == 8) {
    return _mm512_loadu_si512(row + z);
  } else if constexpr (BITS == 4) {
    const __m512i w = _mm512_cvtepu16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + z / 2)));
    __m512i r = _mm512_and_si512(w, _mm512_set1_epi32(0xF));
    r = _mm512_or_si512(r, _mm512_and_si512(_mm512_slli_epi32(w, 4),
                                            _mm512_set1_epi32(0xF00)));
    r = _mm512_or_si512(r, _mm512_and_si512(_mm512_slli_epi32(w, 8),
                                            _mm512_set1_epi32(0xF0000)));
    return _mm512_or_si512(r, _mm512_and_si512(_mm512_slli_epi32(w, 12),
                                               _mm512_set1_epi32(0xF000000)));
  } else {
    static_assert(BITS == 2);
    const __m512i w = _mm512_cvtepu8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + z / 4)));
    __m512i r = _mm512_and_si512(w, _mm512_set1_epi32(0x3));
    r = _mm512_or_si512(r, _mm512_and_si512(_mm512_slli_epi32(w, 6),
                                            _mm512_set1_epi32(0x300)));
    r = _mm512_or_si512(r, _mm512_and_si512(_mm512_slli_epi32(w, 12),
                                            _mm512_set1_epi32(0x30000)));
    return _mm512_or_si512(r, _mm512_and_si512(_mm512_slli_epi32(w, 18),
                                               _mm512_set1_epi32(0x3000000)));
  }
}

// NT layout of B rows [j0, j0 + cols) over z in [z0, z1): each key row's
// codes land as quads in its own column, sixteen quads per expansion and
// scatter while a whole sixteen remain; the rest one quad at a time.
template <int BITS>
__attribute__((target(HACK_VNNI_TARGET))) void build_nt_layout(
    const CodeView& b, std::size_t j0, std::size_t cols, std::size_t z0,
    std::size_t z1, std::uint32_t* lay, std::size_t ld) {
  const std::size_t nq = (z1 - z0 + 3) / 4;
  const bool aligned = ((z0 * BITS) & 7) == 0;
  const std::size_t full = aligned ? (z1 - z0) / 4 : 0;
  const std::size_t vec = full & ~static_cast<std::size_t>(15);
  for (std::size_t q = 0; q < nq; ++q) {
    std::fill(lay + q * ld + cols, lay + (q + 1) * ld, 0u);
  }
  const __m512i stride = _mm512_mullo_epi32(
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
      _mm512_set1_epi32(static_cast<int>(ld)));
  for (std::size_t j = 0; j < cols; ++j) {
    const std::uint8_t* row = b.row_ptr(j0 + j);
    std::size_t q = 0;
    for (; q < vec; q += 16) {
      _mm512_i32scatter_epi32(lay + q * ld + j, stride,
                              load16_quads<BITS>(row, z0 + 4 * q), 4);
    }
    for (; q < full; ++q) lay[q * ld + j] = code_quad<BITS>(row, z0 + 4 * q);
    for (; q < nq; ++q) {
      lay[q * ld + j] = code_quad_scalar<BITS>(row, z0 + 4 * q, z1);
    }
  }
}

// NN layout of B rows z in [z0, z1), columns [j0, j0 + cols) (j0 a multiple
// of 16): four consecutive B rows interleave byte-wise into one quad per
// column, sixteen columns per step.
template <int BITS>
__attribute__((target(HACK_VNNI_TARGET))) void build_nn_layout(
    const CodeView& b, std::size_t j0, std::size_t cols, std::size_t z0,
    std::size_t z1, std::uint32_t* lay, std::size_t ld) {
  const std::size_t nq = (z1 - z0 + 3) / 4;
  const std::size_t jvec = cols & ~static_cast<std::size_t>(15);
  for (std::size_t q = 0; q < nq; ++q) {
    const std::size_t z = z0 + 4 * q;
    const std::size_t rows = std::min<std::size_t>(4, z1 - z);
    const std::uint8_t* r[4] = {};
    for (std::size_t k = 0; k < rows; ++k) r[k] = b.row_ptr(z + k);
    std::uint32_t* dst = lay + q * ld;
    for (std::size_t j = 0; j < jvec; j += 16) {
      __m128i v[4];
      for (std::size_t k = 0; k < 4; ++k) {
        v[k] = k < rows ? load16_bcodes<BITS>(r[k], j0 + j)
                        : _mm_setzero_si128();
      }
      const __m128i lo01 = _mm_unpacklo_epi8(v[0], v[1]);
      const __m128i hi01 = _mm_unpackhi_epi8(v[0], v[1]);
      const __m128i lo23 = _mm_unpacklo_epi8(v[2], v[3]);
      const __m128i hi23 = _mm_unpackhi_epi8(v[2], v[3]);
      __m128i* out = reinterpret_cast<__m128i*>(dst + j);
      _mm_storeu_si128(out, _mm_unpacklo_epi16(lo01, lo23));
      _mm_storeu_si128(out + 1, _mm_unpackhi_epi16(lo01, lo23));
      _mm_storeu_si128(out + 2, _mm_unpacklo_epi16(hi01, hi23));
      _mm_storeu_si128(out + 3, _mm_unpackhi_epi16(hi01, hi23));
    }
    for (std::size_t j = jvec; j < cols; ++j) {
      std::uint32_t w = 0;
      for (std::size_t k = 0; k < rows; ++k) {
        w |= std::uint32_t{code_load<BITS>(r[k], j0 + j)} << (8 * k);
      }
      dst[j] = w;
    }
    std::fill(dst + cols, dst + ld, 0u);
  }
}

// One z-quad step of an R-row × 16V-column register tile: broadcast each
// row's A quad and multiply-add it against the quad's layout vectors.
template <int R, int V>
[[gnu::always_inline]] __attribute__((target(HACK_VNNI_TARGET))) inline void
vnni_step(__m512i (&acc)[R][V], const std::uint32_t* lay_q,
          const std::uint32_t (&aw)[R]) {
  __m512i bq[V];
  for (int v = 0; v < V; ++v) bq[v] = _mm512_loadu_si512(lay_q + 16 * v);
  for (int r = 0; r < R; ++r) {
    const __m512i av = _mm512_set1_epi32(static_cast<int>(aw[r]));
    for (int v = 0; v < V; ++v) {
      acc[r][v] = _mm512_dpbusd_epi32(acc[r][v], av, bq[v]);
    }
  }
}

// One R-row × 16V-column register tile: C[r][j] += Σ_q A quad · layout quad
// over rows `a` (stride lda; whole quads read in place, the partial last
// quad, if any, from `a_tail`) against layout columns `lay`. `mask` selects
// the live columns of the last vector.
template <int R, int V>
__attribute__((target(HACK_VNNI_TARGET))) void vnni_tile(
    const std::uint8_t* a, std::size_t lda, const std::uint32_t* a_tail,
    std::size_t full, std::size_t nq, const std::uint32_t* lay,
    std::size_t ld, std::int32_t* out, std::size_t ldo, __mmask16 mask) {
  __m512i acc[R][V];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) acc[r][v] = _mm512_setzero_si512();
  }
  std::uint32_t aw[R];
  for (std::size_t q = 0; q < full; ++q) {
    for (int r = 0; r < R; ++r) {
      std::memcpy(&aw[r], a + r * lda + 4 * q, sizeof(aw[r]));
    }
    vnni_step<R, V>(acc, lay + q * ld, aw);
  }
  if (full < nq) {
    for (int r = 0; r < R; ++r) aw[r] = a_tail[r];
    vnni_step<R, V>(acc, lay + full * ld, aw);
  }
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < V; ++v) {
      std::int32_t* dst = out + r * ldo + 16 * v;
      const __mmask16 m = v == V - 1 ? mask : static_cast<__mmask16>(0xFFFF);
      const __m512i cur = _mm512_maskz_loadu_epi32(m, dst);
      _mm512_mask_storeu_epi32(dst, m, _mm512_add_epi32(cur, acc[r][v]));
    }
  }
}

template <int V>
__attribute__((target(HACK_VNNI_TARGET))) void vnni_tile_rows(
    std::size_t rows, const std::uint8_t* a, std::size_t lda,
    const std::uint32_t* a_tail, std::size_t full, std::size_t nq,
    const std::uint32_t* lay, std::size_t ld, std::int32_t* out,
    std::size_t ldo, __mmask16 mask) {
  switch (rows) {
#define HACK_VNNI_ROWS(R)                                                  \
  case R:                                                                  \
    return vnni_tile<R, V>(a, lda, a_tail, full, nq, lay, ld, out, ldo,    \
                           mask);
    HACK_VNNI_ROWS(1)
    HACK_VNNI_ROWS(2)
    HACK_VNNI_ROWS(3)
    HACK_VNNI_ROWS(4)
    HACK_VNNI_ROWS(5)
    HACK_VNNI_ROWS(6)
    HACK_VNNI_ROWS(7)
    HACK_VNNI_ROWS(8)
#undef HACK_VNNI_ROWS
    default:
      break;
  }
}

// C rows [i_begin, i_end) += A · layout over output columns [0, cols) of
// `out` (leading dimension ldo), A read at z0 onward. Walks 32-column
// blocks outermost so a block's layout slice stays in L1 across the
// R-row tiles.
__attribute__((target(HACK_VNNI_TARGET))) void vnni_quad_gemm(
    const CodeView& a, std::size_t i_begin, std::size_t i_end,
    std::size_t z0, std::size_t z1, const std::uint32_t* lay, std::size_t ld,
    std::size_t cols, std::int32_t* out, std::size_t ldo) {
  const std::size_t nq = (z1 - z0 + 3) / 4;
  const std::size_t full = (z1 - z0) / 4;
  for (std::size_t j = 0; j < cols; j += 32) {
    const std::size_t w = std::min<std::size_t>(32, cols - j);
    const std::size_t last = w - (w > 16 ? 16 : 0);
    const auto mask = static_cast<__mmask16>((1u << last) - 1u);
    for (std::size_t i = i_begin; i < i_end; i += kVnniTileRows) {
      const std::size_t rows = std::min(kVnniTileRows, i_end - i);
      std::uint32_t a_tail[kVnniTileRows] = {};
      if (full < nq) {
        for (std::size_t r = 0; r < rows; ++r) {
          a_tail[r] =
              code_quad_scalar<8>(a.data + (i + r) * a.cols, z0 + 4 * full, z1);
        }
      }
      const std::uint8_t* pa = a.data + i * a.cols + z0;
      std::int32_t* dst = out + (i - i_begin) * ldo + j;
      if (w > 16) {
        vnni_tile_rows<2>(rows, pa, a.cols, a_tail, full, nq, lay + j, ld,
                          dst, ldo, mask);
      } else {
        vnni_tile_rows<1>(rows, pa, a.cols, a_tail, full, nq, lay + j, ld,
                          dst, ldo, mask);
      }
    }
  }
}

std::vector<std::uint32_t>& vnni_scratch() {
  thread_local std::vector<std::uint32_t> lay;
  return lay;
}

// Layout row stride (in lanes) for `cols` columns: whole vectors, and an
// odd count of them, so the sixteen quad rows one key writes fall in
// different L1 sets (a 4 KiB stride would put them all in one).
inline std::size_t vnni_ld(std::size_t cols) {
  return ((cols + 15) & ~std::size_t{31}) + 16;
}

// The VNNI arm's banded kernel for either layout: B expanded into the quad
// layout one (z-chunk × column-chunk) window at a time, then the register
// tiles over the band's rows.
template <bool kNT, int BITS>
void int_gemm_rows_vnni(const CodeView& a, const CodeView& b,
                        std::size_t i_begin, std::size_t i_end,
                        std::size_t z_begin, std::size_t z_end,
                        std::int32_t* out) {
  const std::size_t n = kNT ? b.rows : b.cols;
  std::vector<std::uint32_t>& lay = vnni_scratch();
  for (std::size_t z0 = z_begin; z0 < z_end; z0 += 4 * kVnniQuads) {
    const std::size_t z1 = std::min(z0 + 4 * kVnniQuads, z_end);
    for (std::size_t j0 = 0; j0 < n; j0 += kVnniCols) {
      const std::size_t cols = std::min(kVnniCols, n - j0);
      const std::size_t ld = vnni_ld(cols);
      lay.resize(std::max(lay.size(), ld * ((z1 - z0 + 3) / 4)));
      if constexpr (kNT) {
        build_nt_layout<BITS>(b, j0, cols, z0, z1, lay.data(), ld);
      } else {
        build_nn_layout<BITS>(b, j0, cols, z0, z1, lay.data(), ld);
      }
      vnni_quad_gemm(a, i_begin, i_end, z0, z1, lay.data(), ld, cols,
                     out + j0, n);
    }
  }
}

IntGemmArm cpu_arm() {
  static const IntGemmArm arm = cpu_has_vnni()   ? IntGemmArm::kVnni
                                : cpu_has_avx2() ? IntGemmArm::kAvx2
                                                 : IntGemmArm::kPortable;
  return arm;
}

#else  // !HACK_X86_SIMD

IntGemmArm cpu_arm() { return IntGemmArm::kPortable; }

#endif  // HACK_X86_SIMD

IntGemmArm active_arm() {
  return std::min(cpu_arm(), g_arm_cap.load(std::memory_order_relaxed));
}

// The arm one call over `rows` A rows takes. Packed storage bounds B's code
// values by its width; byte storage needs the caller's value-width promise
// `b_bits`: below 2^7 for VNNI's signed operand, below 2^6 for the int16
// pair sums of AVX2's pmaddubsw. Anything wider runs the portable kernels.
// Bands shorter than `vnni_min_rows` cannot repay the VNNI layout build and
// stay on AVX2 where the codes allow it.
IntGemmArm call_arm(const CodeView& b, int b_bits, std::size_t rows,
                    std::size_t vnni_min_rows) {
  const int width = b.bits != 8 ? b.bits : b_bits;
  if (width < 1 || width > 7) return IntGemmArm::kPortable;
  const IntGemmArm arm = active_arm();
  if (arm == IntGemmArm::kVnni && (rows >= vnni_min_rows || width > 6)) {
    return arm;
  }
  return width <= 6 ? std::min(arm, IntGemmArm::kAvx2) : IntGemmArm::kPortable;
}

}  // namespace

IntGemmArm int_gemm_cap_arm(IntGemmArm cap) {
  g_arm_cap.store(cap, std::memory_order_relaxed);
  return active_arm();
}

std::int32_t int_dot_nt(const CodeView& a, const CodeView& b, std::size_t i,
                        std::size_t j, std::size_t z_begin, std::size_t z_end) {
  HACK_CHECK(a.cols == b.cols, "NT inner dim mismatch");
  HACK_CHECK(z_end <= a.cols && z_begin <= z_end, "bad z-range");
  std::int32_t acc = 0;
  if (a.bits == 8 && b.bits == 8) {
    const std::uint8_t* pa = a.data + i * a.cols;
    const std::uint8_t* pb = b.data + j * b.cols;
    for (std::size_t z = z_begin; z < z_end; ++z) {
      acc +=
          static_cast<std::int32_t>(pa[z]) * static_cast<std::int32_t>(pb[z]);
    }
    return acc;
  }
  for (std::size_t z = z_begin; z < z_end; ++z) {
    acc += static_cast<std::int32_t>(a.at(i, z)) *
           static_cast<std::int32_t>(b.at(j, z));
  }
  return acc;
}

void int_gemm_nn_rows(const CodeView& a, const CodeView& b,
                      std::size_t i_begin, std::size_t i_end,
                      std::size_t z_begin, std::size_t z_end,
                      std::int32_t* out, int b_bits,
                      std::size_t b_row_offset) {
  HACK_CHECK(z_end <= a.cols && z_begin <= z_end, "bad z-range");
  HACK_CHECK(b_row_offset + z_end <= b.rows,
             "B row range " << b_row_offset << "+" << z_end << " out of "
                            << b.rows);
  HACK_CHECK(i_begin <= i_end && i_end <= a.rows, "bad row band");
  HACK_CHECK(a.bits == 8, "A operand must use byte code storage");
  HACK_CHECK(b.bits == 8 || b.bits == 4 || b.bits == 2,
             "unsupported B storage width " << b.bits);
  // The kernels only ever index B at row granularity, so a KV-tile offset is
  // a plain row-shifted view (rows are byte-padded, so the shift is exact
  // for packed storage too).
  const CodeView bv{b.row_ptr(b_row_offset), b.rows - b_row_offset, b.cols,
                    b.bits};
#ifdef HACK_X86_SIMD
  switch (call_arm(bv, b_bits, i_end - i_begin, 1)) {
    case IntGemmArm::kVnni:
      switch (bv.bits) {
        case 8:
          return int_gemm_rows_vnni<false, 8>(a, bv, i_begin, i_end,
                                                 z_begin, z_end, out);
        case 4:
          return int_gemm_rows_vnni<false, 4>(a, bv, i_begin, i_end,
                                                 z_begin, z_end, out);
        case 2:
          return int_gemm_rows_vnni<false, 2>(a, bv, i_begin, i_end,
                                                 z_begin, z_end, out);
      }
      break;
    case IntGemmArm::kAvx2:
      switch (bv.bits) {
        case 8:
          return int_gemm_nn_rows_avx2<8>(a, bv, i_begin, i_end, z_begin,
                                          z_end, out);
        case 4:
          return int_gemm_nn_rows_avx2<4>(a, bv, i_begin, i_end, z_begin,
                                          z_end, out);
        case 2:
          return int_gemm_nn_rows_avx2<2>(a, bv, i_begin, i_end, z_begin,
                                          z_end, out);
      }
      break;
    case IntGemmArm::kPortable:
      break;
  }
#else
  (void)b_bits;
#endif
  switch (bv.bits) {
    case 4:
      int_gemm_nn_rows_portable<4>(a, bv, i_begin, i_end, z_begin, z_end, out);
      break;
    case 2:
      int_gemm_nn_rows_portable<2>(a, bv, i_begin, i_end, z_begin, z_end, out);
      break;
    default:
      int_gemm_nn_rows_portable<8>(a, bv, i_begin, i_end, z_begin, z_end, out);
      break;
  }
}

void int_gemm_nt_rows(const CodeView& a, const CodeView& b,
                      std::size_t i_begin, std::size_t i_end,
                      std::size_t z_begin, std::size_t z_end,
                      std::int32_t* out, int b_bits, std::size_t j_begin,
                      std::size_t j_end) {
  if (j_end == kIntGemmFull) j_end = b.rows;
  HACK_CHECK(a.cols == b.cols, "NT inner dim mismatch");
  HACK_CHECK(z_end <= a.cols && z_begin <= z_end, "bad z-range");
  HACK_CHECK(i_begin <= i_end && i_end <= a.rows, "bad row band");
  HACK_CHECK(j_begin <= j_end && j_end <= b.rows, "bad B row range");
  HACK_CHECK(a.bits == 8, "A operand must use byte code storage");
  HACK_CHECK(b.bits == 8 || b.bits == 4 || b.bits == 2,
             "unsupported B storage width " << b.bits);
  // Output columns [j_begin, j_end) come from the row-shifted view of B.
  const CodeView bv{b.row_ptr(j_begin), j_end - j_begin, b.cols, b.bits};
#ifdef HACK_X86_SIMD
  switch (call_arm(bv, b_bits, i_end - i_begin, kVnniMinNtRows)) {
    case IntGemmArm::kVnni:
      switch (bv.bits) {
        case 8:
          return int_gemm_rows_vnni<true, 8>(a, bv, i_begin, i_end,
                                                 z_begin, z_end, out);
        case 4:
          return int_gemm_rows_vnni<true, 4>(a, bv, i_begin, i_end,
                                                 z_begin, z_end, out);
        case 2:
          return int_gemm_rows_vnni<true, 2>(a, bv, i_begin, i_end,
                                                 z_begin, z_end, out);
      }
      break;
    case IntGemmArm::kAvx2:
      switch (bv.bits) {
        case 8:
          return int_gemm_nt_rows_avx2<8>(a, bv, i_begin, i_end, z_begin,
                                          z_end, out);
        case 4:
          return int_gemm_nt_rows_avx2<4>(a, bv, i_begin, i_end, z_begin,
                                          z_end, out);
        case 2:
          return int_gemm_nt_rows_avx2<2>(a, bv, i_begin, i_end, z_begin,
                                          z_end, out);
      }
      break;
    case IntGemmArm::kPortable:
      break;
  }
#else
  (void)b_bits;
#endif
  switch (bv.bits) {
    case 4:
      int_gemm_nt_rows_portable<4>(a, bv, i_begin, i_end, z_begin, z_end, out);
      break;
    case 2:
      int_gemm_nt_rows_portable<2>(a, bv, i_begin, i_end, z_begin, z_end, out);
      break;
    default:
      int_gemm_nt_rows_portable<8>(a, bv, i_begin, i_end, z_begin, z_end, out);
      break;
  }
}

void int_gemm_nn_block(const CodeView& a, const CodeView& b,
                       std::size_t z_begin, std::size_t z_end,
                       std::vector<std::int32_t>& out, int b_bits) {
  HACK_CHECK(a.cols == b.rows, "NN shape mismatch");
  HACK_CHECK(z_end <= a.cols && z_begin <= z_end, "bad z-range");
  HACK_CHECK(out.size() == a.rows * b.cols, "output size mismatch");
  int_gemm_nn_rows(a, b, 0, a.rows, z_begin, z_end, out.data(), b_bits);
}

void int_gemm_nt_block(const CodeView& a, const CodeView& b,
                       std::size_t z_begin, std::size_t z_end,
                       std::vector<std::int32_t>& out, int b_bits) {
  HACK_CHECK(a.cols == b.cols, "NT inner dim mismatch");
  HACK_CHECK(z_end <= a.cols && z_begin <= z_end, "bad z-range");
  HACK_CHECK(out.size() == a.rows * b.rows, "output size mismatch");
  int_gemm_nt_rows(a, b, 0, a.rows, z_begin, z_end, out.data(), b_bits);
}

}  // namespace hack
