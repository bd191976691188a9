#include <gtest/gtest.h>

#include <span>
#include <string>

#include "base/rng.h"
#include "core/int_gemm.h"
#include "quant/packed.h"

namespace hack {
namespace {

std::vector<std::uint8_t> random_codes(std::size_t n, int bits, Rng& rng) {
  std::vector<std::uint8_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<std::uint8_t>(rng.next_below(1u << bits));
  }
  return codes;
}

TEST(IntGemm, DotNtKnownValues) {
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> b = {5, 6, 7, 8};
  const CodeView av{a.data(), 1, 4};
  const CodeView bv{b.data(), 1, 4};
  EXPECT_EQ(int_dot_nt(av, bv, 0, 0, 0, 4), 1 * 5 + 2 * 6 + 3 * 7 + 4 * 8);
  EXPECT_EQ(int_dot_nt(av, bv, 0, 0, 1, 3), 2 * 6 + 3 * 7);
  EXPECT_EQ(int_dot_nt(av, bv, 0, 0, 2, 2), 0);
}

TEST(IntGemm, NnMatchesNaive) {
  Rng rng(1);
  const std::size_t m = 5, z = 48, n = 7;
  const auto a = random_codes(m * z, 8, rng);
  const auto b = random_codes(z * n, 8, rng);
  const CodeView av{a.data(), m, z};
  const CodeView bv{b.data(), z, n};
  std::vector<std::int32_t> out(m * n, 0);
  int_gemm_nn_block(av, bv, 0, z, out);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t expect = 0;
      for (std::size_t k = 0; k < z; ++k) {
        expect += static_cast<std::int32_t>(a[i * z + k]) * b[k * n + j];
      }
      EXPECT_EQ(out[i * n + j], expect) << i << "," << j;
    }
  }
}

TEST(IntGemm, NtMatchesNaive) {
  Rng rng(2);
  const std::size_t m = 4, z = 64, n = 6;
  const auto a = random_codes(m * z, 2, rng);
  const auto b = random_codes(n * z, 2, rng);
  const CodeView av{a.data(), m, z};
  const CodeView bv{b.data(), n, z};
  std::vector<std::int32_t> out(m * n, 0);
  int_gemm_nt_block(av, bv, 0, z, out);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      std::int32_t expect = 0;
      for (std::size_t k = 0; k < z; ++k) {
        expect += static_cast<std::int32_t>(a[i * z + k]) * b[j * z + k];
      }
      EXPECT_EQ(out[i * n + j], expect);
    }
  }
}

TEST(IntGemm, NtJRangeMatchesFullColumns) {
  // The KV-tile view: restricting output columns to B rows [j0, j1) must
  // reproduce exactly those columns of the full kernel, for both the AVX2
  // small-code path (2-bit B) and the generic path (8-bit B).
  Rng rng(11);
  const std::size_t m = 6, z = 96, n = 37;
  for (const int b_bits : {2, 8}) {
    const auto a = random_codes(m * z, 8, rng);
    const auto b = random_codes(n * z, b_bits, rng);
    const CodeView av{a.data(), m, z};
    const CodeView bv{b.data(), n, z};
    std::vector<std::int32_t> full(m * n, 0);
    int_gemm_nt_rows(av, bv, 0, m, 0, z, full.data(), b_bits);
    for (const auto [j0, j1] : {std::pair<std::size_t, std::size_t>{0, n},
                                {5, 21},
                                {n - 1, n},
                                {0, 1},
                                {16, 16}}) {
      std::vector<std::int32_t> tile(m * (j1 - j0), 0);
      int_gemm_nt_rows(av, bv, 0, m, 0, z, tile.data(), b_bits, j0, j1);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = j0; j < j1; ++j) {
          ASSERT_EQ(tile[i * (j1 - j0) + (j - j0)], full[i * n + j])
              << "b_bits=" << b_bits << " j0=" << j0 << " j1=" << j1;
        }
      }
    }
  }
}

TEST(IntGemm, NnRowOffsetMatchesShiftedContraction) {
  // b_row_offset contracts A columns against B rows [offset, offset + z):
  // the KV-tile P·V case, where A is a tile-local block and B the tall V
  // store. Check against the naive shifted loop for both kernel paths.
  Rng rng(12);
  const std::size_t m = 5, z_tile = 40, n = 19, b_rows = 100;
  for (const int b_bits : {2, 8}) {
    const auto a = random_codes(m * z_tile, 8, rng);
    const auto b = random_codes(b_rows * n, b_bits, rng);
    const CodeView av{a.data(), m, z_tile};
    const CodeView bv{b.data(), b_rows, n};
    for (const std::size_t offset : {std::size_t{0}, std::size_t{7},
                                     std::size_t{60}}) {
      std::vector<std::int32_t> out(m * n, 0);
      int_gemm_nn_rows(av, bv, 0, m, 0, z_tile, out.data(), b_bits, offset);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
          std::int32_t expect = 0;
          for (std::size_t k = 0; k < z_tile; ++k) {
            expect += static_cast<std::int32_t>(a[i * z_tile + k]) *
                      b[(offset + k) * n + j];
          }
          ASSERT_EQ(out[i * n + j], expect)
              << "b_bits=" << b_bits << " offset=" << offset;
        }
      }
    }
  }
}

TEST(IntGemm, BlockDecompositionSumsToFull) {
  // Computing per-partition blocks and accumulating equals one full pass —
  // the property Eq. (4) relies on when splitting the inner dimension.
  Rng rng(3);
  const std::size_t m = 3, z = 96, n = 5;
  const auto a = random_codes(m * z, 2, rng);
  const auto b = random_codes(z * n, 2, rng);
  const CodeView av{a.data(), m, z};
  const CodeView bv{b.data(), z, n};

  std::vector<std::int32_t> full(m * n, 0);
  int_gemm_nn_block(av, bv, 0, z, full);

  std::vector<std::int32_t> blocked(m * n, 0);
  for (std::size_t begin = 0; begin < z; begin += 32) {
    int_gemm_nn_block(av, bv, begin, begin + 32, blocked);
  }
  EXPECT_EQ(full, blocked);
}

TEST(IntGemm, AccumulatesIntoExistingOutput) {
  const std::vector<std::uint8_t> a = {1, 1};
  const std::vector<std::uint8_t> b = {2, 2};
  const CodeView av{a.data(), 1, 2};
  const CodeView bv{b.data(), 2, 1};
  std::vector<std::int32_t> out(1, 100);
  int_gemm_nn_block(av, bv, 0, 2, out);
  EXPECT_EQ(out[0], 104);
}

TEST(IntGemm, NoOverflowAtMaxCodes) {
  // Worst case 8-bit: 255*255*Z with Z=4096 is ~2.7e8 < int32 max.
  const std::size_t z = 4096;
  std::vector<std::uint8_t> a(z, 255), b(z, 255);
  const CodeView av{a.data(), 1, z};
  const CodeView bv{b.data(), 1, z};
  const std::int32_t dot = int_dot_nt(av, bv, 0, 0, 0, z);
  EXPECT_EQ(dot, 255 * 255 * static_cast<std::int32_t>(z));
}

TEST(IntGemm, BandedRowsMatchFullKernel) {
  // Computing C in row bands (the thread-pool decomposition) must equal one
  // full-range call, for both layouts and any band split.
  Rng rng(4);
  const std::size_t m = 13, z = 96, n = 11;
  const auto a = random_codes(m * z, 8, rng);
  const auto b_nn = random_codes(z * n, 8, rng);
  const auto b_nt = random_codes(n * z, 8, rng);
  const CodeView av{a.data(), m, z};
  const CodeView bv_nn{b_nn.data(), z, n};
  const CodeView bv_nt{b_nt.data(), n, z};

  std::vector<std::int32_t> full_nn(m * n, 0), full_nt(m * n, 0);
  int_gemm_nn_block(av, bv_nn, 0, z, full_nn);
  int_gemm_nt_block(av, bv_nt, 0, z, full_nt);

  const std::size_t splits[] = {0, 1, 4, 5, 12, m};
  std::vector<std::int32_t> banded_nn(m * n, 0), banded_nt(m * n, 0);
  for (std::size_t s = 0; s + 1 < std::size(splits); ++s) {
    const std::size_t i0 = splits[s], i1 = splits[s + 1];
    int_gemm_nn_rows(av, bv_nn, i0, i1, 0, z, banded_nn.data() + i0 * n);
    int_gemm_nt_rows(av, bv_nt, i0, i1, 0, z, banded_nt.data() + i0 * n);
  }
  EXPECT_EQ(full_nn, banded_nn);
  EXPECT_EQ(full_nt, banded_nt);
}

TEST(IntGemm, NtSmallCodeFastPathMatchesGeneric) {
  // b_bits <= 6 may take a SIMD multiply-add path; the int32 results must be
  // identical to the generic kernel, including ragged z-ranges and row/col
  // remainders.
  Rng rng(5);
  for (const int b_bits : {2, 4, 6}) {
    const std::size_t m = 7, z = 130, n = 9;
    const auto a = random_codes(m * z, 8, rng);
    const auto b = random_codes(n * z, b_bits, rng);
    const CodeView av{a.data(), m, z};
    const CodeView bv{b.data(), n, z};
    for (const auto& range :
         {std::pair<std::size_t, std::size_t>{0, z}, {0, 64}, {64, 128},
          {128, 130}, {3, 37}}) {
      std::vector<std::int32_t> generic(m * n, 17), fast(m * n, 17);
      int_gemm_nt_rows(av, bv, 0, m, range.first, range.second,
                       generic.data(), /*b_bits=*/8);
      int_gemm_nt_rows(av, bv, 0, m, range.first, range.second, fast.data(),
                       b_bits);
      EXPECT_EQ(generic, fast) << "b_bits=" << b_bits << " z-range ["
                               << range.first << "," << range.second << ")";
    }
  }
}

TEST(IntGemm, NnSmallCodeFastPathMatchesGeneric) {
  // b_bits <= 6 may take the explicit AVX2 widening-multiply path (z-pairs
  // through pmaddubsw); the int32 results must be identical to the generic
  // kernel, including odd z-ranges, column remainders, and row remainders.
  Rng rng(6);
  for (const int b_bits : {2, 4, 6}) {
    const std::size_t m = 7, z = 131, n = 37;  // n % 16 != 0, odd z tail
    const auto a = random_codes(m * z, 8, rng);
    const auto b = random_codes(z * n, b_bits, rng);
    const CodeView av{a.data(), m, z};
    const CodeView bv{b.data(), z, n};
    for (const auto& range :
         {std::pair<std::size_t, std::size_t>{0, z}, {0, 64}, {64, 128},
          {128, 131}, {3, 38}}) {
      std::vector<std::int32_t> generic(m * n, 17), fast(m * n, 17);
      int_gemm_nn_rows(av, bv, 0, m, range.first, range.second,
                       generic.data(), /*b_bits=*/8);
      int_gemm_nn_rows(av, bv, 0, m, range.first, range.second, fast.data(),
                       b_bits);
      EXPECT_EQ(generic, fast) << "b_bits=" << b_bits << " z-range ["
                               << range.first << "," << range.second << ")";
    }
  }
}

TEST(IntGemm, NnFastPathLongZAccumulates) {
  // z longer than the AVX2 kernel's chunk (256) with saturating-range codes:
  // accumulation across chunk boundaries must stay exact.
  Rng rng(7);
  const std::size_t m = 5, z = 700, n = 16;
  auto a = random_codes(m * z, 8, rng);
  auto b = random_codes(z * n, 6, rng);
  // Force worst-case magnitudes on a stripe to stress the int16 headroom.
  for (std::size_t i = 0; i < z; ++i) {
    a[i] = 255;
    b[i * n] = 63;
  }
  const CodeView av{a.data(), m, z};
  const CodeView bv{b.data(), z, n};
  std::vector<std::int32_t> generic(m * n, 0), fast(m * n, 0);
  int_gemm_nn_rows(av, bv, 0, m, 0, z, generic.data(), /*b_bits=*/8);
  int_gemm_nn_rows(av, bv, 0, m, 0, z, fast.data(), /*b_bits=*/6);
  EXPECT_EQ(generic, fast);
}

// Bit-packs `codes` ([rows x cols], one byte per code) into the row-padded
// layout packed CodeViews consume: little-endian within each byte, every row
// padded up to a whole byte.
std::vector<std::uint8_t> pack_rows(const std::vector<std::uint8_t>& codes,
                                    std::size_t rows, std::size_t cols,
                                    int bits) {
  const std::size_t stride = (cols * static_cast<std::size_t>(bits) + 7) / 8;
  std::vector<std::uint8_t> packed(rows * stride, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    pack_codes(
        std::span<const std::uint8_t>(codes).subspan(r * cols, cols), bits,
        packed.data() + r * stride);
  }
  return packed;
}

// Restores the dispatch default when a test body throws mid-sweep.
struct PortableGuard {
  ~PortableGuard() { int_gemm_cap_arm(IntGemmArm::kVnni); }
};

TEST(IntGemm, PackedNtBitIdenticalToUnpacked) {
  // The packed NT kernel (in-register crumb/nibble expansion on AVX2, bit
  // extraction on the portable path) must produce the same int32 results as
  // byte-storage B, across odd z-ranges (misaligned packed heads), partial
  // j-ranges, and both dispatch arms.
  PortableGuard guard;
  Rng rng(21);
  for (const int bits : {2, 4}) {
    const std::size_t m = 5, z = 131, n = 23;  // odd z: padded packed rows
    const auto a = random_codes(m * z, 8, rng);
    const auto b = random_codes(n * z, bits, rng);
    const auto bp = pack_rows(b, n, z, bits);
    const CodeView av{a.data(), m, z};
    const CodeView bv{b.data(), n, z};
    const CodeView bpv{bp.data(), n, z, bits};
    for (const bool portable : {false, true}) {
      int_gemm_cap_arm(portable ? IntGemmArm::kPortable : IntGemmArm::kVnni);
      for (const auto& range :
           {std::pair<std::size_t, std::size_t>{0, z}, {0, 64}, {64, 128},
            {128, 131}, {3, 37}, {1, 2}}) {
        std::vector<std::int32_t> byte_b(m * n, 17), packed_b(m * n, 17);
        int_gemm_nt_rows(av, bv, 0, m, range.first, range.second,
                         byte_b.data(), bits);
        int_gemm_nt_rows(av, bpv, 0, m, range.first, range.second,
                         packed_b.data(), bits);
        EXPECT_EQ(byte_b, packed_b)
            << "bits=" << bits << " portable=" << portable << " z-range ["
            << range.first << "," << range.second << ")";
      }
      for (const auto [j0, j1] : {std::pair<std::size_t, std::size_t>{0, n},
                                  {5, 21},
                                  {n - 1, n},
                                  {0, 1}}) {
        std::vector<std::int32_t> byte_b(m * (j1 - j0), 0);
        std::vector<std::int32_t> packed_b(m * (j1 - j0), 0);
        int_gemm_nt_rows(av, bv, 0, m, 0, z, byte_b.data(), bits, j0, j1);
        int_gemm_nt_rows(av, bpv, 0, m, 0, z, packed_b.data(), bits, j0, j1);
        EXPECT_EQ(byte_b, packed_b) << "bits=" << bits << " portable="
                                    << portable << " j-range [" << j0 << ","
                                    << j1 << ")";
      }
    }
    int_gemm_cap_arm(IntGemmArm::kVnni);
  }
}

TEST(IntGemm, PackedNnBitIdenticalToUnpacked) {
  // Same contract for the NN kernel, including the b_row_offset KV-tile view
  // (packed rows are byte-padded, so a row offset is a byte-exact view) and
  // banded i-ranges (the thread-pool decomposition). Row counts 1..4 hit the
  // few-row AVX2 blocks the decode GEMV rides on.
  PortableGuard guard;
  Rng rng(22);
  for (const int bits : {2, 4}) {
    const std::size_t z_tile = 41, n = 37, b_rows = 100;
    const auto b = random_codes(b_rows * n, bits, rng);
    const auto bp = pack_rows(b, b_rows, n, bits);
    const CodeView bv{b.data(), b_rows, n};
    const CodeView bpv{bp.data(), b_rows, n, bits};
    for (const std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{4}, std::size_t{7}}) {
      const auto a = random_codes(m * z_tile, 8, rng);
      const CodeView av{a.data(), m, z_tile};
      for (const bool portable : {false, true}) {
        int_gemm_cap_arm(portable ? IntGemmArm::kPortable : IntGemmArm::kVnni);
        for (const std::size_t offset :
             {std::size_t{0}, std::size_t{7}, std::size_t{59}}) {
          std::vector<std::int32_t> byte_b(m * n, 3), packed_b(m * n, 3);
          int_gemm_nn_rows(av, bv, 0, m, 0, z_tile, byte_b.data(), bits,
                           offset);
          int_gemm_nn_rows(av, bpv, 0, m, 0, z_tile, packed_b.data(), bits,
                           offset);
          EXPECT_EQ(byte_b, packed_b)
              << "bits=" << bits << " m=" << m << " portable=" << portable
              << " offset=" << offset;
        }
        // Banded rows over an odd z-range.
        if (m >= 4) {
          std::vector<std::int32_t> byte_b(m * n, 0), packed_b(m * n, 0);
          for (std::size_t i0 = 0; i0 < m; i0 += 3) {
            const std::size_t i1 = std::min(m, i0 + 3);
            int_gemm_nn_rows(av, bv, i0, i1, 3, 38, byte_b.data() + i0 * n,
                             bits, 11);
            int_gemm_nn_rows(av, bpv, i0, i1, 3, 38, packed_b.data() + i0 * n,
                             bits, 11);
          }
          EXPECT_EQ(byte_b, packed_b)
              << "bits=" << bits << " m=" << m << " portable=" << portable;
        }
      }
      int_gemm_cap_arm(IntGemmArm::kVnni);
    }
  }
}

TEST(IntGemm, PackedDispatchArmsAgree) {
  // AVX2 in-register expansion vs the scalar extraction fallback on the same
  // packed operand — byte-aligned rows (z a multiple of 16, the KV-plane
  // shape) plus saturating-range codes to stress the int16 pair sums.
  PortableGuard guard;
  Rng rng(23);
  for (const int bits : {2, 4}) {
    const std::size_t m = 4, z = 320, n = 16;
    const auto a = random_codes(m * z, 8, rng);
    auto b_nt = random_codes(n * z, bits, rng);
    auto b_nn = random_codes(z * n, bits, rng);
    const std::uint8_t top = static_cast<std::uint8_t>((1u << bits) - 1u);
    for (std::size_t i = 0; i < z; ++i) {
      b_nt[i] = top;       // row 0 of NT B saturated
      b_nn[i * n] = top;   // column 0 of NN B saturated
    }
    const auto bp_nt = pack_rows(b_nt, n, z, bits);
    const auto bp_nn = pack_rows(b_nn, z, n, bits);
    const CodeView av{a.data(), m, z};
    const CodeView bv_nt{bp_nt.data(), n, z, bits};
    const CodeView bv_nn{bp_nn.data(), z, n, bits};

    std::vector<std::int32_t> simd_nt(m * n, 0), scalar_nt(m * n, 0);
    std::vector<std::int32_t> simd_nn(m * n, 0), scalar_nn(m * n, 0);
    int_gemm_nt_rows(av, bv_nt, 0, m, 0, z, simd_nt.data(), bits);
    int_gemm_nn_rows(av, bv_nn, 0, m, 0, z, simd_nn.data(), bits);
    int_gemm_cap_arm(IntGemmArm::kPortable);
    int_gemm_nt_rows(av, bv_nt, 0, m, 0, z, scalar_nt.data(), bits);
    int_gemm_nn_rows(av, bv_nn, 0, m, 0, z, scalar_nn.data(), bits);
    int_gemm_cap_arm(IntGemmArm::kVnni);
    EXPECT_EQ(simd_nt, scalar_nt) << "bits=" << bits;
    EXPECT_EQ(simd_nn, scalar_nn) << "bits=" << bits;
  }
}

TEST(IntGemm, PackedEightBitViewIsByteView) {
  // bits == 8 in a CodeView is the classic byte layout: at() and the kernels
  // must treat it identically to the historical two-field aggregate.
  Rng rng(24);
  const std::size_t m = 3, z = 48, n = 5;
  const auto a = random_codes(m * z, 8, rng);
  const auto b = random_codes(n * z, 8, rng);
  const CodeView bv_implicit{b.data(), n, z};
  const CodeView bv_explicit{b.data(), n, z, 8};
  EXPECT_EQ(bv_implicit.row_stride_bytes(), z);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t c = 0; c < z; ++c) {
      ASSERT_EQ(bv_implicit.at(j, c), bv_explicit.at(j, c));
    }
  }
  const CodeView av{a.data(), m, z};
  std::vector<std::int32_t> imp(m * n, 0), exp(m * n, 0);
  int_gemm_nt_rows(av, bv_implicit, 0, m, 0, z, imp.data());
  int_gemm_nt_rows(av, bv_explicit, 0, m, 0, z, exp.data());
  EXPECT_EQ(imp, exp);
}

// ------------------------------------------------------ per-arm identity

const char* arm_isa(IntGemmArm arm) {
  switch (arm) {
    case IntGemmArm::kPortable:
      return "portable";
    case IntGemmArm::kAvx2:
      return "avx2";
    case IntGemmArm::kVnni:
      return "avx512_vnni";
  }
  return "?";
}

// Every arm this CPU runs must give the portable arm's int32 accumulators,
// bit for bit, on any shape: the arm only changes how the exact sums are
// computed. Arms the CPU lacks are skipped by name.
class IntGemmArmTest : public ::testing::TestWithParam<IntGemmArm> {
 protected:
  void SetUp() override {
    if (int_gemm_cap_arm(GetParam()) != GetParam()) {
      GTEST_SKIP() << "CPU lacks " << arm_isa(GetParam());
    }
  }
  void TearDown() override { int_gemm_cap_arm(IntGemmArm::kVnni); }

  // Runs `gemm` into two copies of the same non-zero output, one under the
  // portable cap and one under this test's arm.
  template <class Gemm>
  void expect_matches_portable(std::size_t out_size, Gemm gemm,
                               const std::string& what) {
    std::vector<std::int32_t> ref(out_size), got(out_size);
    for (std::size_t i = 0; i < out_size; ++i) {
      ref[i] = got[i] = static_cast<std::int32_t>(i % 13) - 6;
    }
    int_gemm_cap_arm(IntGemmArm::kPortable);
    gemm(ref.data());
    int_gemm_cap_arm(GetParam());
    gemm(got.data());
    EXPECT_EQ(got, ref) << arm_isa(GetParam()) << ": " << what;
  }
};

// One B operand: code values below 2^value_bits, stored as bytes or packed.
struct BOperand {
  int value_bits;
  int storage_bits;
};

constexpr BOperand kOperands[] = {
    {2, 8}, {2, 2}, {4, 8}, {4, 4}, {7, 8}, {8, 8},
};

using ZRange = std::pair<std::size_t, std::size_t>;

TEST_P(IntGemmArmTest, NtMatchesPortable) {
  // Row tails of 1-7 around the 8-row tile, key tails off the 16-lane
  // vector, z-ranges that are not whole quads or start inside a packed
  // byte, and j-range views.
  Rng rng(31);
  const std::size_t z = 131;
  for (const BOperand op : kOperands) {
    for (const std::size_t n : {std::size_t{5}, std::size_t{37},
                                std::size_t{50}}) {
      const auto b = random_codes(n * z, op.value_bits, rng);
      const auto bp = op.storage_bits == 8
                          ? b
                          : pack_rows(b, n, z, op.storage_bits);
      const CodeView bv{bp.data(), n, z, op.storage_bits};
      for (const std::size_t m : {1, 2, 3, 5, 7, 8, 9, 15, 17}) {
        const auto a = random_codes(m * z, 8, rng);
        const CodeView av{a.data(), m, z};
        for (const ZRange zr : {ZRange{0, z}, ZRange{0, 64}, ZRange{64, 128},
                                ZRange{3, 37}, ZRange{5, 70}, ZRange{1, 2},
                                ZRange{128, 131}}) {
          for (const ZRange jr : {ZRange{0, n}, ZRange{1, n - 2}}) {
            const std::size_t cols = jr.second - jr.first;
            expect_matches_portable(
                m * cols,
                [&](std::int32_t* out) {
                  int_gemm_nt_rows(av, bv, 0, m, zr.first, zr.second, out,
                                   op.value_bits, jr.first, jr.second);
                },
                "NT bits=" + std::to_string(op.value_bits) + "/" +
                    std::to_string(op.storage_bits) + " m=" +
                    std::to_string(m) + " n=" + std::to_string(n) + " z=[" +
                    std::to_string(zr.first) + "," +
                    std::to_string(zr.second) + ") j=[" +
                    std::to_string(jr.first) + "," +
                    std::to_string(jr.second) + ")");
          }
        }
      }
    }
  }
}

TEST_P(IntGemmArmTest, NnMatchesPortable) {
  // Same sweep for P·V: column tails off the 16-lane vector, b_row_offset
  // views into a tall B, z-ranges that are not whole quads, banded rows.
  Rng rng(32);
  const std::size_t z_tile = 67, b_rows = 150;
  for (const BOperand op : kOperands) {
    for (const std::size_t n : {std::size_t{5}, std::size_t{37},
                                std::size_t{70}}) {
      const auto b = random_codes(b_rows * n, op.value_bits, rng);
      const auto bp = op.storage_bits == 8
                          ? b
                          : pack_rows(b, b_rows, n, op.storage_bits);
      const CodeView bv{bp.data(), b_rows, n, op.storage_bits};
      for (const std::size_t m : {1, 2, 3, 5, 7, 8, 9, 15, 17}) {
        const auto a = random_codes(m * z_tile, 8, rng);
        const CodeView av{a.data(), m, z_tile};
        for (const ZRange zr : {ZRange{0, z_tile}, ZRange{0, 64},
                                ZRange{3, 38}, ZRange{1, 2},
                                ZRange{64, 67}}) {
          for (const std::size_t offset : {0, 9, 83}) {
            const std::string what =
                "NN bits=" + std::to_string(op.value_bits) + "/" +
                std::to_string(op.storage_bits) + " m=" + std::to_string(m) +
                " n=" + std::to_string(n) + " z=[" +
                std::to_string(zr.first) + "," + std::to_string(zr.second) +
                ") offset=" + std::to_string(offset);
            expect_matches_portable(
                m * n,
                [&](std::int32_t* out) {
                  int_gemm_nn_rows(av, bv, 0, m, zr.first, zr.second, out,
                                   op.value_bits, offset);
                },
                what);
            if (m >= 5) {  // the same rows in bands [0, 2) and [2, m)
              expect_matches_portable(
                  m * n,
                  [&](std::int32_t* out) {
                    int_gemm_nn_rows(av, bv, 0, 2, zr.first, zr.second, out,
                                     op.value_bits, offset);
                    int_gemm_nn_rows(av, bv, 2, m, zr.first, zr.second,
                                     out + 2 * n, op.value_bits, offset);
                  },
                  what + " banded");
            }
          }
        }
      }
    }
  }
}

TEST_P(IntGemmArmTest, LargeOperandsMatchPortable) {
  // Extents past one VNNI layout build (1024 columns, 256 z per build) and
  // worst-case magnitudes: every A code 255 and every B code at its top.
  Rng rng(33);
  const std::size_t m = 9, z = 600, n_nt = 1100, n_nn = 1030;
  for (const BOperand op : {BOperand{2, 2}, BOperand{7, 8}}) {
    for (const bool saturated : {false, true}) {
      auto a = random_codes(m * z, 8, rng);
      auto b_nt = random_codes(n_nt * z, op.value_bits, rng);
      auto b_nn = random_codes(z * n_nn, op.value_bits, rng);
      if (saturated) {
        const auto top = static_cast<std::uint8_t>((1u << op.value_bits) - 1);
        std::fill(a.begin(), a.end(), std::uint8_t{255});
        std::fill(b_nt.begin(), b_nt.end(), top);
        std::fill(b_nn.begin(), b_nn.end(), top);
      }
      const auto bp_nt = op.storage_bits == 8
                             ? b_nt
                             : pack_rows(b_nt, n_nt, z, op.storage_bits);
      const auto bp_nn = op.storage_bits == 8
                             ? b_nn
                             : pack_rows(b_nn, z, n_nn, op.storage_bits);
      const CodeView av{a.data(), m, z};
      const CodeView bv_nt{bp_nt.data(), n_nt, z, op.storage_bits};
      const CodeView bv_nn{bp_nn.data(), z, n_nn, op.storage_bits};
      const std::string what = "bits=" + std::to_string(op.value_bits) +
                               " saturated=" + std::to_string(saturated);
      expect_matches_portable(
          m * n_nt,
          [&](std::int32_t* out) {
            int_gemm_nt_rows(av, bv_nt, 0, m, 0, z, out, op.value_bits);
          },
          "NT " + what);
      expect_matches_portable(
          m * n_nn,
          [&](std::int32_t* out) {
            int_gemm_nn_rows(av, bv_nn, 0, m, 0, z, out, op.value_bits);
          },
          "NN " + what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arms, IntGemmArmTest,
    ::testing::Values(IntGemmArm::kPortable, IntGemmArm::kAvx2,
                      IntGemmArm::kVnni),
    [](const ::testing::TestParamInfo<IntGemmArm>& info) {
      return std::string(arm_isa(info.param));
    });

TEST(IntGemm, ShapeChecks) {
  const std::vector<std::uint8_t> a = {1, 2};
  const CodeView av{a.data(), 1, 2};
  const CodeView bv{a.data(), 1, 2};
  std::vector<std::int32_t> bad_out(5, 0);
  EXPECT_THROW(int_gemm_nt_block(av, bv, 0, 2, bad_out), CheckError);
  std::vector<std::int32_t> out(1, 0);
  EXPECT_THROW(int_gemm_nt_block(av, bv, 1, 3, out), CheckError);
}

}  // namespace
}  // namespace hack
