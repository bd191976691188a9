// Integer GEMM on quantization codes.
//
// Models the GPU INT8 tensor-core path HACK rides on: unsigned 8-bit codes
// multiplied with 32-bit accumulation. Two layouts cover attention's needs:
//   - NT: C = A * B^T where both A (M x Z) and B (N x Z) store the contracted
//     dimension contiguously per row (Q * K^T).
//   - NN: C = A * B where B is Z x N (P * V).
// Block-range variants compute the partial dot over one partition's z-range,
// which is how the per-group Eq. (4) correction is assembled.
//
// The row-range kernels (`int_gemm_*_rows`) are the engine room of the
// blocked HQ-GEMM path: they compute a contiguous band of C rows with 4x4
// register-blocked micro-tiles, so a thread pool can split the M dimension
// into independent bands. The whole-matrix `int_gemm_*_block` entry points
// are thin wrappers over the banded kernels.
//
// The B operand may be *bit-packed* (CodeView::bits of 2 or 4): rows store
// codes little-endian within each byte, each row padded up to a whole byte.
// The packed kernels expand codes in-register (AVX2 nibble/crumb unpack
// feeding the same pmaddubsw pipeline) or extract them scalar-wise, and are
// bit-identical to unpacking B to bytes first and running the u8 kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "base/check.h"

namespace hack {

// View over a row-major code matrix. `bits` is the storage width of each
// code: 8 means the classic one-byte-per-code layout; 2 or 4 mean rows are
// bit-packed little-endian with each row padded to a whole byte, so row r
// starts at byte r * row_stride_bytes().
struct CodeView {
  const std::uint8_t* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  int bits = 8;

  std::size_t row_stride_bytes() const {
    return bits == 8
               ? cols
               : (cols * static_cast<std::size_t>(bits) + 7) / 8;
  }
  const std::uint8_t* row_ptr(std::size_t r) const {
    return data + r * row_stride_bytes();
  }
  std::uint8_t at(std::size_t r, std::size_t c) const {
    if (bits == 8) return data[r * cols + c];
    const std::size_t bit = c * static_cast<std::size_t>(bits);
    return static_cast<std::uint8_t>(
        (row_ptr(r)[bit >> 3] >> (bit & 7)) & ((1u << bits) - 1u));
  }
};

// dot over z in [z_begin, z_end) of A.row(i) and B.row(j) (NT layout).
std::int32_t int_dot_nt(const CodeView& a, const CodeView& b, std::size_t i,
                        std::size_t j, std::size_t z_begin, std::size_t z_end);

// Sentinel for "the whole extent" in the offset/range parameters below.
inline constexpr std::size_t kIntGemmFull = static_cast<std::size_t>(-1);

// Banded NN kernel: accumulates rows [i_begin, i_end) of C += A * B over the
// z-range, where A is M x Z and B is row-major with N columns. `out` points
// at the output band, row-major with leading dimension N: out[(i - i_begin) *
// N + j] accumulates C[i][j]. `b_row_offset` is the column-offset stride into
// B's token rows: A column z multiplies B row `b_row_offset + z`, which is
// how the streaming P·V tile contracts a [M x tile] A block against the
// middle of a tall V store (0 recovers the classic A-cols == B-rows
// contract). `b_bits` is the bit width of B's code *values*: when they fit 6
// bits (the paper's 2-/4-bit V cache) and the CPU supports AVX2, the kernel
// runs an explicit widening-multiply path (z-pairs through pmaddubsw, widened
// to int32 in j-order); otherwise the portable 4-row axpy tile is used. When
// B is bit-packed (b.bits of 2 or 4) the codes are expanded in-register on
// the same pipeline. All paths produce identical int32 results. A must use
// byte storage (a.bits == 8).
void int_gemm_nn_rows(const CodeView& a, const CodeView& b,
                      std::size_t i_begin, std::size_t i_end,
                      std::size_t z_begin, std::size_t z_end,
                      std::int32_t* out, int b_bits = 8,
                      std::size_t b_row_offset = 0);

// Banded NT kernel: same contract with B stored N x Z (C += A * B^T).
// `[j_begin, j_end)` restricts the output columns to that range of B rows —
// one KV tile of a Q·Kᵀ score block — with `out` leading dimension
// shrinking to j_end - j_begin (kIntGemmFull = all of B). `b_bits` is the bit
// width of B's code values (values < 2^b_bits). When B codes fit 6 bits —
// the paper's 2-/4-bit KV caches — and the CPU supports AVX2, the dot
// products run through the u8 x i8 multiply-add idiom (pmaddubsw: 255 * 63 *
// 2 pair sums stay inside int16); otherwise a portable register-blocked path
// is used. Bit-packed B (b.bits of 2 or 4) is expanded in-register. All
// paths produce identical int32 results. A must use byte storage.
void int_gemm_nt_rows(const CodeView& a, const CodeView& b,
                      std::size_t i_begin, std::size_t i_end,
                      std::size_t z_begin, std::size_t z_end,
                      std::int32_t* out, int b_bits = 8,
                      std::size_t j_begin = 0,
                      std::size_t j_end = kIntGemmFull);

// C[i][j] += over the z-range: A (M x Z) row-major times B (Z x N) row-major.
// `out` is M x N row-major int32, accumulated into.
void int_gemm_nn_block(const CodeView& a, const CodeView& b,
                       std::size_t z_begin, std::size_t z_end,
                       std::vector<std::int32_t>& out, int b_bits = 8);

// Same for the NT layout: B is N x Z.
void int_gemm_nt_block(const CodeView& a, const CodeView& b,
                       std::size_t z_begin, std::size_t z_end,
                       std::vector<std::int32_t>& out, int b_bits = 8);

// Test hook: force the portable (non-SIMD) kernels regardless of CPU
// features, so the scalar packed/unpacked paths can be exercised on AVX2
// hosts. Not thread-safe against in-flight GEMMs; flip it only around
// single-threaded test sections.
void int_gemm_force_portable(bool on);

}  // namespace hack
