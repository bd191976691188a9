// Tests for the paper's core contribution: Eq. (4) homomorphic quantized
// matrix multiplication. The central property: hq_matmul(A', B') equals
// matmul(dequantize(A'), dequantize(B')) — computing on quantized operands
// plus the affine correction is exactly "dequantize then multiply", without
// ever materializing the dequantized matrices.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cost_model.h"
#include "core/hq_matmul.h"
#include "metrics/tensor_metrics.h"
#include "tensor/ops.h"

namespace hack {
namespace {

struct Operands {
  QuantizedMatrix a;  // row-axis, M x Z
  QuantizedMatrix b_col;  // col-axis, Z x N
  QuantizedMatrix b_row;  // row-axis, N x Z (the NT/K layout of the same data)
  Matrix a_src, b_src;
};

Operands make_operands(std::size_t m, std::size_t z, std::size_t n,
                       std::size_t pi, int a_bits, int b_bits,
                       std::uint64_t seed, bool ragged = false) {
  Rng rng(seed);
  Operands ops;
  ops.a_src = Matrix::random_gaussian(m, z, rng);
  ops.b_src = Matrix::random_gaussian(z, n, rng);
  Rng q1(seed + 1), q2(seed + 2), q3(seed + 3);
  ops.a = quantize(ops.a_src, a_bits, pi, QuantAxis::kRow,
                   Rounding::kStochastic, q1, ragged);
  ops.b_col = quantize(ops.b_src, b_bits, pi, QuantAxis::kCol,
                       Rounding::kStochastic, q2, ragged);
  // NT layout: B^T stored row-major with row-axis partitioning gives the
  // same partitions over z per output column.
  ops.b_row = quantize(transpose(ops.b_src), b_bits, pi, QuantAxis::kRow,
                       Rounding::kStochastic, q3, ragged);
  return ops;
}

// Double-precision reference: matmul of the dequantized operands.
Matrix dequant_then_matmul(const QuantizedMatrix& a,
                           const QuantizedMatrix& b) {
  return matmul(dequantize(a), dequantize(b));
}

TEST(HqMatmul, EqualsDequantizeThenMultiply) {
  const Operands ops = make_operands(4, 64, 6, 32, 8, 2, 10);
  const Matrix hq = hq_matmul(ops.a, ops.b_col);
  const Matrix ref = dequant_then_matmul(ops.a, ops.b_col);
  // Identical arithmetic up to float reassociation.
  EXPECT_LT(relative_l2(hq, ref), 2e-5);
}

TEST(HqMatmul, NtEqualsDequantizeThenMultiply) {
  const Operands ops = make_operands(3, 128, 5, 64, 8, 2, 11);
  const Matrix hq = hq_matmul_nt(ops.a, ops.b_row);
  const Matrix ref = matmul_nt(dequantize(ops.a), dequantize(ops.b_row));
  EXPECT_LT(relative_l2(hq, ref), 2e-5);
}

TEST(HqMatmul, SumCacheChangesNothing) {
  const Operands ops = make_operands(2, 64, 9, 32, 8, 2, 12);
  const SumCache sums = SumCache::build(ops.b_col);
  HqStats with{}, without{};
  const Matrix c1 = hq_matmul(ops.a, ops.b_col, &sums, &with);
  const Matrix c2 = hq_matmul(ops.a, ops.b_col, nullptr, &without);
  EXPECT_EQ(max_abs_diff(c1, c2), 0.0f);  // bit-identical results
  EXPECT_EQ(with.sum_flops, 0);           // SE removed the NZ adds
  EXPECT_EQ(without.sum_flops,
            static_cast<std::int64_t>(ops.b_col.cols) *
                static_cast<std::int64_t>(ops.b_col.rows));
}

TEST(HqMatmul, ApproximatesTrueProduct) {
  // Against the *unquantized* product the error is governed by quantization
  // noise. I.i.d. Gaussian data is the worst case for 2-bit quantization
  // (real KV has per-channel structure), so assert a loose bound for 2-bit
  // and a tight one for 4-bit.
  const Operands ops2 = make_operands(8, 128, 16, 32, 8, 2, 13);
  const Matrix truth = matmul(ops2.a_src, ops2.b_src);
  EXPECT_LT(relative_l2(hq_matmul(ops2.a, ops2.b_col), truth), 0.8);

  const Operands ops4 = make_operands(8, 128, 16, 32, 8, 4, 13);
  const Matrix truth4 = matmul(ops4.a_src, ops4.b_src);
  EXPECT_LT(relative_l2(hq_matmul(ops4.a, ops4.b_col), truth4), 0.25);
}

TEST(HqMatmul, FinerPartitionsImproveAccuracy) {
  double errs[3] = {};
  const std::size_t pis[3] = {32, 64, 128};
  for (int i = 0; i < 3; ++i) {
    Rng rng(14);
    Matrix a_src = Matrix::random_gaussian(6, 128, rng);
    Matrix b_src = Matrix::random_gaussian(128, 6, rng);
    // Heavy tails make the partition-size effect visible.
    for (std::size_t k = 0; k < b_src.size(); k += 13) b_src.flat()[k] *= 5.0f;
    Rng q1(15), q2(16);
    const QuantizedMatrix a = quantize(a_src, 8, pis[i], QuantAxis::kRow,
                                       Rounding::kStochastic, q1);
    const QuantizedMatrix b = quantize(b_src, 2, pis[i], QuantAxis::kCol,
                                       Rounding::kStochastic, q2);
    errs[i] = relative_l2(hq_matmul(a, b), matmul(a_src, b_src));
  }
  EXPECT_LT(errs[0], errs[1]);
  EXPECT_LT(errs[1], errs[2]);
}

TEST(HqMatmul, ExactForValuesOnQuantizationGrid) {
  // If every partition holds values already on its quantization grid the
  // whole pipeline is exact (up to FP16 metadata rounding of min/scale).
  Matrix a(2, 32), b(32, 3);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.flat()[i] = static_cast<float>(i % 4);  // exactly 2-bit representable
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.flat()[i] = static_cast<float>((i * 7) % 4);
  }
  Rng q1(17), q2(18);
  const QuantizedMatrix qa =
      quantize(a, 2, 32, QuantAxis::kRow, Rounding::kNearest, q1);
  const QuantizedMatrix qb =
      quantize(b, 2, 32, QuantAxis::kCol, Rounding::kNearest, q2);
  const Matrix c = hq_matmul(qa, qb);
  const Matrix truth = matmul(a, b);
  EXPECT_LT(max_abs_diff(c, truth), 0.15f);  // FP16 scale rounding only
}

TEST(HqMatmul, StatsMatchClosedFormCosts) {
  const std::size_t m = 3, z = 128, n = 7;
  const Operands ops = make_operands(m, z, n, 64, 8, 2, 19);
  HqStats stats{};
  (void)hq_matmul(ops.a, ops.b_col, nullptr, &stats);
  EXPECT_EQ(stats.int_macs, hq_gemm_macs(m, z, n));
  EXPECT_EQ(stats.approx_flops + stats.sum_flops, hq_approx_flops(m, z, n));
  HqStats se{};
  const SumCache sums = SumCache::build(ops.b_col);
  (void)hq_matmul(ops.a, ops.b_col, &sums, &se);
  EXPECT_EQ(se.approx_flops, hq_approx_flops_se(m, z, n));
}

TEST(HqMatmul, DecodeShapeSingleRow) {
  // Decode: M = 1 query row against a long K/V (the §5.3 fast path).
  const Operands ops = make_operands(1, 64, 200, 64, 8, 2, 20);
  const Matrix hq = hq_matmul_nt(ops.a, ops.b_row);
  const Matrix ref = matmul_nt(dequantize(ops.a), dequantize(ops.b_row));
  EXPECT_LT(relative_l2(hq, ref), 2e-5);
}

TEST(HqMatmul, RaggedTailGroups) {
  // Inner dim not divisible by Π (the P·V tail case when RQE is off).
  const Operands ops = make_operands(2, 100, 4, 32, 8, 2, 21, /*ragged=*/true);
  const Matrix hq = hq_matmul(ops.a, ops.b_col);
  const Matrix ref = dequant_then_matmul(ops.a, ops.b_col);
  EXPECT_LT(relative_l2(hq, ref), 2e-5);
}

TEST(HqMatmul, MismatchedPartitionsThrow) {
  const Operands ops = make_operands(2, 64, 3, 32, 8, 2, 22);
  Rng q(23);
  const QuantizedMatrix b64 = quantize(ops.b_src, 2, 64, QuantAxis::kCol,
                                       Rounding::kStochastic, q);
  EXPECT_THROW(hq_matmul(ops.a, b64), CheckError);
}

TEST(HqMatmul, WrongAxisThrows) {
  const Operands ops = make_operands(2, 64, 3, 32, 8, 2, 24);
  EXPECT_THROW(hq_matmul(ops.a, ops.a), CheckError);      // B not col-axis
  EXPECT_THROW(hq_matmul_nt(ops.a, ops.b_col), CheckError);  // B not row-axis
}

TEST(HqMatmul, MismatchedSumCacheThrows) {
  const Operands ops = make_operands(2, 64, 3, 32, 8, 2, 25);
  const SumCache wrong = SumCache::build(ops.a);
  EXPECT_THROW(hq_matmul(ops.a, ops.b_col, &wrong), CheckError);
}

TEST(HqMatmul, KvTileSegmentsGeometry) {
  // 70 rows, Π = 32: groups [0,32) [32,64) [64,70) — the RQE-off spliced
  // store shape. A tile cutting through groups yields partial segments.
  const auto segs = kv_tile_segments(10, 70, 70, 32);
  ASSERT_EQ(segs.size(), 3u);
  EXPECT_EQ(segs[0].begin, 10u);
  EXPECT_EQ(segs[0].end, 32u);
  EXPECT_EQ(segs[0].group, 0u);
  EXPECT_FALSE(segs[0].whole_group);
  EXPECT_EQ(segs[1].begin, 32u);
  EXPECT_EQ(segs[1].end, 64u);
  EXPECT_TRUE(segs[1].whole_group);
  EXPECT_EQ(segs[2].begin, 64u);
  EXPECT_EQ(segs[2].end, 70u);
  EXPECT_EQ(segs[2].group, 2u);
  EXPECT_TRUE(segs[2].whole_group);  // the ragged final group, covered whole

  EXPECT_TRUE(kv_tile_segments(32, 32, 70, 32).empty());
  const auto one = kv_tile_segments(33, 34, 70, 32);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_FALSE(one[0].whole_group);
  EXPECT_EQ(one[0].group, 1u);
}

TEST(HqMatmul, NtScoreTileMatchesFullColumnsExactly) {
  // A score tile restricts output columns; per-column arithmetic is
  // unchanged, so the tile must be bit-identical to the full result's slice.
  const Operands ops = make_operands(8, 64, 33, 32, 8, 2, 40);
  const SumCache sums = SumCache::build(ops.b_row);
  const Matrix full = hq_matmul_nt(ops.a, ops.b_row, &sums);
  const HqNtPrep prep(ops.b_row, &sums);
  const std::vector<std::int32_t> a_sums = hq_a_row_sums(ops.a);

  for (const auto [k0, k1] : {std::pair<std::size_t, std::size_t>{0, 33},
                              {5, 20},
                              {32, 33},
                              {0, 1}}) {
    std::vector<float> tile(ops.a.rows * (k1 - k0));
    hq_nt_score_tile(ops.a, prep, a_sums, 0, ops.a.rows, k0, k1, tile.data());
    for (std::size_t i = 0; i < ops.a.rows; ++i) {
      for (std::size_t j = k0; j < k1; ++j) {
        ASSERT_EQ(tile[i * (k1 - k0) + (j - k0)], full(i, j))
            << k0 << " " << k1;
      }
    }
  }
}

// Builds the segment-quantized A block hq_nn_tile_accumulate requires: each
// kv_tile_segment of the float source quantized as its own (possibly ragged)
// group, metadata [row x segments] — what the streaming engine produces for
// a softmax tile.
QuantizedMatrix quantize_per_segment(const Matrix& a_tile,
                                     std::span<const KvSegment> segs,
                                     std::size_t k0, std::size_t pi, int bits,
                                     Rng& rng) {
  QuantizedMatrix q;
  q.rows = a_tile.rows();
  q.cols = a_tile.cols();
  q.bits = bits;
  q.axis = QuantAxis::kRow;
  q.pi = pi;
  q.groups = segs.size();
  q.codes.assign(q.rows * q.cols, 0);
  q.mins.assign(q.rows * segs.size(), 0.0f);
  q.scales.assign(q.rows * segs.size(), 0.0f);
  std::vector<float> vals;
  std::vector<std::uint8_t> codes;
  for (std::size_t i = 0; i < q.rows; ++i) {
    for (std::size_t s = 0; s < segs.size(); ++s) {
      const std::size_t len = segs[s].end - segs[s].begin;
      vals.resize(len);
      codes.resize(len);
      for (std::size_t z = 0; z < len; ++z) {
        vals[z] = a_tile(i, segs[s].begin - k0 + z);
      }
      quantize_span(vals, codes, bits, Rounding::kStochastic, rng,
                    q.mins[i * segs.size() + s], q.scales[i * segs.size() + s]);
      std::copy(codes.begin(), codes.end(),
                q.codes.begin() + i * q.cols + (segs[s].begin - k0));
    }
  }
  return q;
}

TEST(HqMatmul, NnTileAccumulateMatchesDequantReference) {
  // Ragged-tail V store (70 rows, Π=32) contracted over tiles that cut
  // through groups: Eq. (4) per segment must equal dequantize-then-multiply
  // of the tile slice, with and without a SumCache serving the whole-group
  // segments.
  Rng rng(77);
  const std::size_t z = 70, n = 9, m = 6, pi = 32;
  const Matrix b_src = Matrix::random_gaussian(z, n, rng);
  Rng bq(78);
  const QuantizedMatrix b = quantize(b_src, 2, pi, QuantAxis::kCol,
                                     Rounding::kStochastic, bq,
                                     /*allow_ragged_tail=*/true);
  const SumCache sums = SumCache::build(b);
  const Matrix b_deq = dequantize(b);

  for (const auto [k0, k1] : {std::pair<std::size_t, std::size_t>{0, 70},
                              {10, 55},
                              {32, 64},
                              {63, 70}}) {
    const auto segs = kv_tile_segments(k0, k1, z, pi);
    const Matrix a_src =
        Matrix::random_gaussian(m, k1 - k0, rng);  // softmax-tile stand-in
    Rng aq(100 + k0);
    const QuantizedMatrix a =
        quantize_per_segment(a_src, segs, k0, pi, 8, aq);

    // Σ a' per (row, segment), laid out like the segment metadata.
    std::vector<std::int32_t> a_code_sums(m * segs.size(), 0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t s = 0; s < segs.size(); ++s) {
        for (std::size_t zz = segs[s].begin; zz < segs[s].end; ++zz) {
          a_code_sums[i * segs.size() + s] += a.codes[i * a.cols + (zz - k0)];
        }
      }
    }

    for (const SumCache* cache : {static_cast<const SumCache*>(nullptr),
                                  &sums}) {
      const KvTileBSums b_seg_sums = kv_tile_b_sums(b, cache, segs);
      Matrix c(m, n, 0.0f);
      hq_nn_tile_accumulate(a.codes.data(), m, a.mins, a.scales, a_code_sums,
                            b, segs, b_seg_sums.sums, k0, k1,
                            c.flat().data());

      // Dequantize A through the segment metadata and multiply the slice.
      Matrix expected(m, n, 0.0f);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t s = 0; s < segs.size(); ++s) {
          for (std::size_t zz = segs[s].begin; zz < segs[s].end; ++zz) {
            const float av =
                a.scales[i * segs.size() + s] *
                    static_cast<float>(a.codes[i * a.cols + (zz - k0)]) +
                a.mins[i * segs.size() + s];
            for (std::size_t j = 0; j < n; ++j) {
              expected(i, j) += av * b_deq(zz, j);
            }
          }
        }
      }
      EXPECT_LT(relative_l2(c, expected), 2e-4)
          << "k0=" << k0 << " k1=" << k1 << " cache=" << (cache != nullptr);
      // With a SumCache only boundary-cut segments pay Σ b' adds.
      std::int64_t partial_adds = 0;
      for (const KvSegment& s : segs) {
        if (!s.whole_group || cache == nullptr) {
          partial_adds += static_cast<std::int64_t>(s.end - s.begin) * n;
        }
      }
      EXPECT_EQ(b_seg_sums.sum_flops, partial_adds);
    }
  }
}

struct HqCase {
  std::size_t m, z, n, pi;
  int a_bits, b_bits;
};

class HqMatmulSweep : public ::testing::TestWithParam<HqCase> {};

TEST_P(HqMatmulSweep, MatchesDequantReferenceAcrossShapes) {
  const auto p = GetParam();
  const Operands ops =
      make_operands(p.m, p.z, p.n, p.pi, p.a_bits, p.b_bits, 1000 + p.z);
  const Matrix hq = hq_matmul(ops.a, ops.b_col);
  const Matrix ref = dequant_then_matmul(ops.a, ops.b_col);
  EXPECT_LT(relative_l2(hq, ref), 2e-4) << "m=" << p.m << " z=" << p.z;

  const Matrix hq_nt = hq_matmul_nt(ops.a, ops.b_row);
  const Matrix ref_nt = matmul_nt(dequantize(ops.a), dequantize(ops.b_row));
  EXPECT_LT(relative_l2(hq_nt, ref_nt), 2e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HqMatmulSweep,
    ::testing::Values(HqCase{1, 64, 1, 64, 8, 2}, HqCase{1, 128, 64, 64, 8, 2},
                      HqCase{16, 64, 16, 16, 8, 2},
                      HqCase{8, 256, 4, 128, 8, 2}, HqCase{2, 32, 2, 32, 2, 2},
                      HqCase{5, 96, 7, 32, 4, 4}, HqCase{3, 64, 3, 64, 8, 8},
                      HqCase{1, 512, 2, 64, 8, 2}));

}  // namespace
}  // namespace hack
