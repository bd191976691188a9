#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "metrics/tensor_metrics.h"
#include "quant/quantizer.h"
#include "tensor/half.h"

namespace hack {
namespace {

TEST(Quantizer, CodesWithinRange) {
  Rng rng(1);
  const Matrix m = Matrix::random_gaussian(8, 64, rng);
  for (const int bits : {2, 4, 8}) {
    Rng qrng(2);
    const QuantizedMatrix q =
        quantize(m, bits, 16, QuantAxis::kRow, Rounding::kStochastic, qrng);
    for (const std::uint8_t code : q.codes) {
      EXPECT_LT(code, 1u << bits);
    }
  }
}

TEST(Quantizer, RoundTripErrorBoundedByScale) {
  Rng rng(3);
  const Matrix m = Matrix::random_gaussian(16, 128, rng, 2.0f);
  Rng qrng(4);
  const QuantizedMatrix q =
      quantize(m, 2, 32, QuantAxis::kRow, Rounding::kStochastic, qrng);
  const Matrix recon = dequantize(q);
  EXPECT_LE(max_abs_diff(recon, m), max_abs_error_bound(q));
}

TEST(Quantizer, NearestRoundingErrorHalfStep) {
  Rng rng(5);
  const Matrix m = Matrix::random_gaussian(8, 64, rng);
  Rng qrng(6);
  const QuantizedMatrix q =
      quantize(m, 8, 16, QuantAxis::kRow, Rounding::kNearest, qrng);
  const Matrix recon = dequantize(q);
  // Nearest rounding: error <= scale/2 (+ FP16 metadata slack).
  const std::size_t groups = q.group_count();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      const float s = q.scale_of(r, c / 16);
      EXPECT_LE(std::fabs(recon(r, c) - m(r, c)), 0.5f * s + 0.01f)
          << r << "," << c << " groups=" << groups;
    }
  }
}

TEST(Quantizer, ExactOnConstantPartitions) {
  // A constant partition has scale 0; dequantization returns the constant.
  Matrix m(4, 32, 3.25f);
  Rng qrng(7);
  const QuantizedMatrix q =
      quantize(m, 2, 16, QuantAxis::kRow, Rounding::kStochastic, qrng);
  const Matrix recon = dequantize(q);
  for (const float v : recon.flat()) EXPECT_EQ(v, 3.25f);
}

TEST(Quantizer, ExtremesRepresentedExactly) {
  // Partition min maps to code 0 and max to the top code; both reconstruct
  // to within FP16 metadata precision.
  Matrix m(1, 16);
  for (std::size_t c = 0; c < 16; ++c) {
    m(0, c) = static_cast<float>(c);  // min 0, max 15
  }
  Rng qrng(8);
  const QuantizedMatrix q =
      quantize(m, 4, 16, QuantAxis::kRow, Rounding::kNearest, qrng);
  const Matrix recon = dequantize(q);
  EXPECT_NEAR(recon(0, 0), 0.0f, 1e-3f);
  EXPECT_NEAR(recon(0, 15), 15.0f, 0.02f);
}

TEST(Quantizer, ColumnAxisPartitionsColumns) {
  // Distinct column statistics must yield distinct per-column metadata.
  Matrix m(32, 2);
  for (std::size_t r = 0; r < 32; ++r) {
    m(r, 0) = static_cast<float>(r);         // [0, 31]
    m(r, 1) = 100.0f + static_cast<float>(r);  // [100, 131]
  }
  Rng qrng(9);
  const QuantizedMatrix q =
      quantize(m, 2, 32, QuantAxis::kCol, Rounding::kNearest, qrng);
  EXPECT_EQ(q.group_count(), 1u);
  EXPECT_NEAR(q.min_of(0, 0), 0.0f, 0.01f);
  EXPECT_NEAR(q.min_of(1, 0), 100.0f, 0.1f);
}

TEST(Quantizer, StochasticRoundingIsUnbiasedPerElement) {
  // Averaging many stochastic quantizations approaches the source value.
  Matrix m(1, 16);
  for (std::size_t c = 0; c < 16; ++c) m(0, c) = 0.1f * static_cast<float>(c);
  Rng qrng(10);
  Matrix sum(1, 16, 0.0f);
  constexpr int kRuns = 3000;
  for (int run = 0; run < kRuns; ++run) {
    const QuantizedMatrix q =
        quantize(m, 2, 16, QuantAxis::kRow, Rounding::kStochastic, qrng);
    const Matrix recon = dequantize(q);
    for (std::size_t c = 0; c < 16; ++c) sum(0, c) += recon(0, c);
  }
  for (std::size_t c = 0; c < 16; ++c) {
    EXPECT_NEAR(sum(0, c) / kRuns, m(0, c), 0.02f) << c;
  }
}

TEST(Quantizer, FinerPartitionsReduceError) {
  Rng rng(11);
  // Heavy-tailed data: per-partition ranges shrink with finer partitions.
  Matrix m = Matrix::random_gaussian(8, 128, rng, 1.0f);
  for (std::size_t i = 0; i < m.size(); i += 17) m.flat()[i] *= 4.0f;
  double err_by_pi[3] = {0, 0, 0};
  const std::size_t pis[3] = {32, 64, 128};
  for (int p = 0; p < 3; ++p) {
    Rng qrng(12);
    const QuantizedMatrix q = quantize(m, 2, pis[p], QuantAxis::kRow,
                                       Rounding::kStochastic, qrng);
    err_by_pi[p] = relative_l2(dequantize(q), m);
  }
  EXPECT_LT(err_by_pi[0], err_by_pi[1]);
  EXPECT_LT(err_by_pi[1], err_by_pi[2]);
}

TEST(Quantizer, MoreBitsReduceError) {
  Rng rng(13);
  const Matrix m = Matrix::random_gaussian(8, 64, rng);
  double errs[3] = {0, 0, 0};
  const int bits[3] = {2, 4, 8};
  for (int i = 0; i < 3; ++i) {
    Rng qrng(14);
    const QuantizedMatrix q = quantize(m, bits[i], 16, QuantAxis::kRow,
                                       Rounding::kStochastic, qrng);
    errs[i] = relative_l2(dequantize(q), m);
  }
  EXPECT_LT(errs[1], errs[0]);
  EXPECT_LT(errs[2], errs[1]);
}

TEST(Quantizer, PackedBytesMatchFormula) {
  Rng rng(15);
  const Matrix m = Matrix::random_gaussian(10, 64, rng);
  Rng qrng(16);
  const QuantizedMatrix q =
      quantize(m, 2, 16, QuantAxis::kRow, Rounding::kStochastic, qrng);
  // 64 codes * 2 bits = 16 bytes per row; 10 rows.
  EXPECT_EQ(q.packed_code_bytes(), 160u);
  // 4 groups * 10 rows * (min + scale) * 2 bytes.
  EXPECT_EQ(q.metadata_bytes(), 160u);
  EXPECT_EQ(q.stored_bytes(), 320u);
}

TEST(Quantizer, AppendRowsPreservesOldMetadata) {
  Rng rng(17);
  const Matrix a = Matrix::random_gaussian(4, 64, rng);
  const Matrix b = Matrix::random_gaussian(2, 64, rng);
  Rng qrng(18);
  QuantizedMatrix qa =
      quantize(a, 2, 32, QuantAxis::kRow, Rounding::kStochastic, qrng);
  const std::vector<float> mins_before = qa.mins;
  const QuantizedMatrix qb =
      quantize(b, 2, 32, QuantAxis::kRow, Rounding::kStochastic, qrng);
  append_rows(qa, qb);
  EXPECT_EQ(qa.rows, 6u);
  for (std::size_t i = 0; i < mins_before.size(); ++i) {
    EXPECT_EQ(qa.mins[i], mins_before[i]);
  }
  // Reconstruction equals per-part reconstructions stacked.
  const Matrix recon = dequantize(qa);
  EXPECT_EQ(recon.rows(), 6u);
}

TEST(Quantizer, AppendInnerGroupsGrowsColumns) {
  Rng rng(19);
  const Matrix a = Matrix::random_gaussian(32, 8, rng);
  const Matrix b = Matrix::random_gaussian(32, 8, rng);
  Rng qrng(20);
  QuantizedMatrix qa =
      quantize(a, 2, 32, QuantAxis::kCol, Rounding::kStochastic, qrng);
  const QuantizedMatrix qb =
      quantize(b, 2, 32, QuantAxis::kCol, Rounding::kStochastic, qrng);
  const Matrix ra = dequantize(qa);
  const Matrix rb = dequantize(qb);
  append_inner_groups(qa, qb);
  EXPECT_EQ(qa.rows, 64u);
  EXPECT_EQ(qa.group_count(), 2u);
  const Matrix merged = dequantize(qa);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(merged(r, c), ra(r, c));
      EXPECT_EQ(merged(32 + r, c), rb(r, c));
    }
  }
}

TEST(Quantizer, AppendInnerGroupsRejectsPartialPartitions) {
  Rng rng(21);
  const Matrix a = Matrix::random_gaussian(32, 4, rng);
  const Matrix partial = Matrix::random_gaussian(20, 4, rng);
  Rng qrng(22);
  QuantizedMatrix qa =
      quantize(a, 2, 32, QuantAxis::kCol, Rounding::kStochastic, qrng);
  const QuantizedMatrix qp = quantize(partial, 2, 32, QuantAxis::kCol,
                                      Rounding::kStochastic, qrng,
                                      /*allow_ragged_tail=*/true);
  EXPECT_THROW(append_inner_groups(qa, qp), CheckError);
}

struct QuantCase {
  int bits;
  std::size_t pi;
  std::size_t rows;
  std::size_t cols;
  int axis;  // 0 = row, 1 = col
};

class QuantizerSweep : public ::testing::TestWithParam<QuantCase> {};

TEST_P(QuantizerSweep, RoundTripWithinBound) {
  const auto param = GetParam();
  Rng rng(100 + param.bits);
  const Matrix m =
      Matrix::random_gaussian(param.rows, param.cols, rng, 1.5f);
  Rng qrng(200 + param.pi);
  const QuantizedMatrix q =
      quantize(m, param.bits, param.pi,
               param.axis == 0 ? QuantAxis::kRow : QuantAxis::kCol,
               Rounding::kStochastic, qrng, /*allow_ragged_tail=*/true);
  EXPECT_EQ(q.rows, param.rows);
  EXPECT_EQ(q.cols, param.cols);
  const Matrix recon = dequantize(q);
  EXPECT_LE(max_abs_diff(recon, m), max_abs_error_bound(q));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QuantizerSweep,
    ::testing::Values(QuantCase{2, 32, 7, 96, 0}, QuantCase{2, 64, 1, 128, 0},
                      QuantCase{2, 128, 3, 128, 0}, QuantCase{4, 16, 5, 80, 0},
                      QuantCase{8, 64, 2, 64, 0}, QuantCase{2, 32, 96, 7, 1},
                      QuantCase{2, 64, 130, 5, 1}, QuantCase{4, 16, 50, 3, 1},
                      QuantCase{8, 32, 64, 2, 1},
                      QuantCase{2, 64, 100, 128, 0}));

TEST(Quantizer, ParallelPathDeterministicAcrossThreadRequests) {
  // Above kParallelQuantizeMinValues the outer-slice loop moves onto the
  // shared pool with one sub-Rng forked per slice; the codes must depend
  // only on the seed, never on the requested thread count or pool size.
  Rng rng(40);
  const Matrix m = Matrix::random_gaussian(1200, 128, rng);  // 153k values
  ASSERT_GE(m.size(), kParallelQuantizeMinValues);
  Rng r1(41), r2(41), r3(41);
  const QuantizedMatrix serial =
      quantize(m, 2, 64, QuantAxis::kRow, Rounding::kStochastic, r1,
               /*allow_ragged_tail=*/false, /*threads=*/1);
  const QuantizedMatrix auto_threads =
      quantize(m, 2, 64, QuantAxis::kRow, Rounding::kStochastic, r2,
               /*allow_ragged_tail=*/false, /*threads=*/0);
  const QuantizedMatrix three =
      quantize(m, 2, 64, QuantAxis::kRow, Rounding::kStochastic, r3,
               /*allow_ragged_tail=*/false, /*threads=*/3);
  EXPECT_EQ(serial.codes, auto_threads.codes);
  EXPECT_EQ(serial.mins, auto_threads.mins);
  EXPECT_EQ(serial.scales, auto_threads.scales);
  EXPECT_EQ(serial.codes, three.codes);

  // And the callers' master streams advanced identically.
  EXPECT_EQ(r1.next_u64(), r2.next_u64());

  // Col-axis too (the V-cache layout).
  Rng c1(42), c2(42);
  const QuantizedMatrix col_serial =
      quantize(m, 2, 64, QuantAxis::kCol, Rounding::kStochastic, c1,
               /*allow_ragged_tail=*/true, /*threads=*/1);
  const QuantizedMatrix col_auto =
      quantize(m, 2, 64, QuantAxis::kCol, Rounding::kStochastic, c2,
               /*allow_ragged_tail=*/true, /*threads=*/0);
  EXPECT_EQ(col_serial.codes, col_auto.codes);

  // dequantize parallelizes over rows; serial and pooled must agree exactly.
  const Matrix d1 = dequantize(serial, /*threads=*/1);
  const Matrix d0 = dequantize(serial, /*threads=*/0);
  EXPECT_TRUE(d1 == d0);
}

// The scalar quantize_span loop the vectorized kernel replaced, kept as the
// oracle: std::minmax_element, FP16 metadata, then one out-of-line
// stochastic_round / nearest_round per value in index order.
void oracle_quantize_span(std::span<const float> values,
                          std::span<std::uint8_t> codes, int bits,
                          Rounding rounding, Rng& rng, float& out_min,
                          float& out_scale) {
  const auto [lo_it, hi_it] = std::minmax_element(values.begin(), values.end());
  const float lo = *lo_it;
  const float hi = *hi_it;
  const int levels = (1 << bits) - 1;
  const float min_fp16 = fp16_round(lo);
  const float scale_fp16 = fp16_round((hi - lo) / static_cast<float>(levels));
  out_min = min_fp16;
  out_scale = scale_fp16;
  if (scale_fp16 == 0.0f) {
    std::fill(codes.begin(), codes.end(), std::uint8_t{0});
    return;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double normalized =
        (static_cast<double>(values[i]) - min_fp16) / scale_fp16;
    std::int64_t code = rounding == Rounding::kStochastic
                            ? stochastic_round(normalized, rng)
                            : nearest_round(normalized);
    code = std::clamp<std::int64_t>(code, 0, levels);
    codes[i] = static_cast<std::uint8_t>(code);
  }
}

// Spans that reach every branch of the kernel: random widths and offsets,
// P-like spans with a masked run of zeros, an all-equal span (scale 0),
// signed-zero minima, exact-integer normalized values (no draw), and
// values just below an FP16-rounded-up minimum (the clamp at 0).
std::vector<std::vector<float>> equivalence_spans() {
  std::vector<std::vector<float>> spans;
  Rng data(99);
  for (std::size_t len = 1; len <= 200; ++len) {
    std::vector<float> v(len);
    const float shift = data.next_float() * 8.0f - 4.0f;
    for (float& x : v) x = static_cast<float>(data.next_gaussian()) + shift;
    spans.push_back(v);
    for (std::size_t i = len / 2; i < len; ++i) v[i] = 0.0f;  // masked run
    for (std::size_t i = 0; i < len / 2; ++i) v[i] = data.next_float();
    spans.push_back(v);
    // FP16 rounds 1.0009765625 - 2^-20 up, so the minimum normalizes below
    // zero and the smallest values clamp.
    for (float& x : v) x = 1.0009765625f - 0x1p-20f + data.next_float() * 0.01f;
    v[0] = 1.0009765625f - 0x1p-20f;
    spans.push_back(v);
  }
  spans.push_back(std::vector<float>(77, 0.3f));             // scale 0
  spans.push_back({-0.0f, 0.0f, -0.0f});                      // scale -0
  spans.push_back({0.0f, -0.0f, 0.0f, -0.0f});
  spans.push_back({0.0f, -0.0f, 0.75f, 0.25f, -0.0f});        // +0 minimum
  spans.push_back({-0.0f, 0.5f, 0.0f, 1.0f, 0.25f});          // -0 minimum
  spans.push_back({-1.0f, -0.5f, -0.0f, -0.75f, 0.0f});       // zero maximum
  for (const int levels : {3, 15, 255}) {  // exact integers: frac == 0
    std::vector<float> v;
    for (int k = 0; k <= levels; ++k) v.push_back(0.25f * static_cast<float>(k));
    spans.push_back(v);
  }
  return spans;
}

TEST(Quantizer, SpanKernelMatchesScalarOracle) {
  const std::vector<std::vector<float>> spans = equivalence_spans();
  for (const QuantizeArm arm : {QuantizeArm::kPortable, QuantizeArm::kAvx512}) {
    if (quantize_cap_arm(arm) != arm) continue;  // the CPU lacks this arm
    for (const int bits : {2, 4, 8}) {
      for (const Rounding rounding :
           {Rounding::kStochastic, Rounding::kNearest}) {
        Rng rng(1000 + static_cast<std::uint64_t>(bits));
        Rng oracle_rng = rng;
        for (std::size_t s = 0; s < spans.size(); ++s) {
          const std::vector<float>& v = spans[s];
          std::vector<std::uint8_t> got(v.size()), want(v.size());
          float got_min = 0, got_scale = 0, want_min = 0, want_scale = 0;
          const std::int64_t sum = quantize_span(v, got, bits, rounding, rng,
                                                 got_min, got_scale);
          oracle_quantize_span(v, want, bits, rounding, oracle_rng, want_min,
                               want_scale);
          const auto trace = testing::Message()
                             << "arm " << static_cast<int>(arm) << " bits "
                             << bits << " rounding "
                             << static_cast<int>(rounding) << " span " << s
                             << " len " << v.size();
          ASSERT_EQ(got, want) << trace;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got_min),
                    std::bit_cast<std::uint32_t>(want_min))
              << trace;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got_scale),
                    std::bit_cast<std::uint32_t>(want_scale))
              << trace;
          ASSERT_EQ(rng.state(), oracle_rng.state()) << trace;
          ASSERT_EQ(sum, std::accumulate(got.begin(), got.end(),
                                         std::int64_t{0}))
              << trace;
        }
      }
    }
  }
  quantize_cap_arm(QuantizeArm::kAvx512);
}

TEST(Quantizer, SpanBatchMatchesOneSpanAtATime) {
  // quantize_spans against one quantize_span per span, on strided storage:
  // batches that fill 8 lanes, leave some idle, span several blocks, and mix
  // in constant spans (scale 0) whose streams must not move.
  Rng data(7);
  for (const QuantizeArm arm : {QuantizeArm::kPortable, QuantizeArm::kAvx512}) {
    if (quantize_cap_arm(arm) != arm) continue;
    for (const std::size_t count : {1, 3, 8, 13}) {
      for (const std::size_t len : {1, 5, 64, 300}) {
        for (const Rounding rounding :
             {Rounding::kStochastic, Rounding::kNearest}) {
          const std::size_t vstride = len + 3, cstride = len + 1, mstride = 2;
          std::vector<float> values(count * vstride);
          for (float& x : values) x = data.next_float();
          for (std::size_t i = 0; i < count; i += 4) {  // constant spans
            std::fill_n(values.begin() + i * vstride, len, 0.5f);
          }
          for (std::size_t i = 1; i < count; i += 3) {  // masked tails
            std::fill_n(values.begin() + i * vstride + len / 2, len - len / 2,
                        0.0f);
          }
          std::vector<Rng> rngs, want_rngs;
          for (std::size_t i = 0; i < count; ++i) {
            rngs.emplace_back(100 + i);
            want_rngs.emplace_back(100 + i);
          }
          std::vector<std::uint8_t> codes(count * cstride, 0);
          std::vector<float> mins(count * mstride), scales(count * mstride);
          std::vector<std::int32_t> sums(count * mstride);
          quantize_spans({values.data(), vstride, codes.data(), cstride,
                          mins.data(), scales.data(), sums.data(), mstride,
                          rngs.data(), count, len},
                         4, rounding);
          for (std::size_t i = 0; i < count; ++i) {
            std::vector<std::uint8_t> want(len);
            float want_min = 0, want_scale = 0;
            const std::int64_t want_sum = quantize_span(
                {values.data() + i * vstride, len}, want, 4, rounding,
                want_rngs[i], want_min, want_scale);
            const auto trace = testing::Message()
                               << "arm " << static_cast<int>(arm) << " count "
                               << count << " len " << len << " span " << i;
            ASSERT_TRUE(std::equal(want.begin(), want.end(),
                                   codes.begin() + i * cstride))
                << trace;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(mins[i * mstride]),
                      std::bit_cast<std::uint32_t>(want_min))
                << trace;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(scales[i * mstride]),
                      std::bit_cast<std::uint32_t>(want_scale))
                << trace;
            ASSERT_EQ(sums[i * mstride], want_sum) << trace;
            ASSERT_EQ(rngs[i].state(), want_rngs[i].state()) << trace;
          }
        }
      }
    }
  }
  quantize_cap_arm(QuantizeArm::kAvx512);
}

TEST(Quantizer, SpanBeyondFp16RangeCodesZeroAndDraws) {
  // min -7e4 rounds to -inf in FP16, so every normalized value is
  // non-finite: each still draws, as the scalar loop did, and codes 0.
  const std::vector<float> v = {-7e4f, 1.0f, 2.0f, 5.0f, -3.0f};
  for (const QuantizeArm arm : {QuantizeArm::kPortable, QuantizeArm::kAvx512}) {
    if (quantize_cap_arm(arm) != arm) continue;
    Rng rng(5);
    Rng expected_rng = rng;
    for (std::size_t i = 0; i < v.size(); ++i) (void)expected_rng.next_u64();
    std::vector<std::uint8_t> codes(v.size(), 9);
    float mn = 0, sc = 0;
    EXPECT_EQ(quantize_span(v, codes, 4, Rounding::kStochastic, rng, mn, sc),
              0);
    EXPECT_EQ(codes, std::vector<std::uint8_t>(v.size(), 0));
    EXPECT_TRUE(std::isinf(mn));
    EXPECT_EQ(rng.state(), expected_rng.state());
  }
  quantize_cap_arm(QuantizeArm::kAvx512);
}

TEST(Quantizer, PackStorageRoundTripsAndIndexes) {
  // pack_storage rewrites .codes in place to the bit-packed resident layout;
  // code_at must read the same values either way, dequantize must be
  // bit-identical, and unpack_storage must restore the original byte vector.
  Rng rng(50);
  for (const int bits : {2, 4}) {
    // 96 cols: (cols * bits) % 8 == 0, the KV-plane shape (flat pack).
    // 13 cols at 2-bit: padded rows, the per-row subspan pack.
    for (const std::size_t cols : {std::size_t{96}, std::size_t{13}}) {
      const Matrix m = Matrix::random_gaussian(9, cols, rng);
      Rng qrng(51);
      QuantizedMatrix q = quantize(m, bits, 16, QuantAxis::kRow,
                                   Rounding::kStochastic, qrng,
                                   /*allow_ragged_tail=*/true);
      const std::vector<std::uint8_t> byte_codes = q.codes;
      const Matrix recon_bytes = dequantize(q);

      pack_storage(q);
      EXPECT_EQ(q.storage_bits, bits);
      EXPECT_EQ(q.codes.size(), q.rows * q.code_row_stride());
      EXPECT_LT(q.codes.size(), byte_codes.size());
      for (std::size_t r = 0; r < q.rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          ASSERT_EQ(q.code_at(r, c), byte_codes[r * cols + c])
              << "bits=" << bits << " cols=" << cols << " (" << r << "," << c
              << ")";
        }
      }
      const Matrix recon_packed = dequantize(q);
      EXPECT_TRUE(recon_packed == recon_bytes);

      pack_storage(q);  // idempotent on already-packed storage
      EXPECT_EQ(q.storage_bits, bits);

      unpack_storage(q);
      EXPECT_EQ(q.storage_bits, 8);
      EXPECT_EQ(q.codes, byte_codes) << "bits=" << bits << " cols=" << cols;
    }
  }
}

TEST(Quantizer, PackStorageEightBitIsNoOp) {
  Rng rng(52);
  const Matrix m = Matrix::random_gaussian(4, 32, rng);
  Rng qrng(53);
  QuantizedMatrix q =
      quantize(m, 8, 16, QuantAxis::kRow, Rounding::kStochastic, qrng);
  const std::vector<std::uint8_t> before = q.codes;
  pack_storage(q);
  EXPECT_EQ(q.storage_bits, 8);
  EXPECT_EQ(q.codes, before);
}

TEST(Quantizer, AppendRowsRequiresMatchingStorage) {
  // Row append concatenates code storage; mixing packed and byte planes
  // would corrupt the layout, so it must be rejected — and packed-to-packed
  // appends must equal pack(append(unpacked)).
  Rng rng(54);
  const Matrix a = Matrix::random_gaussian(4, 64, rng);
  const Matrix b = Matrix::random_gaussian(3, 64, rng);
  Rng q1(55), q2(55);
  QuantizedMatrix qa_bytes =
      quantize(a, 2, 32, QuantAxis::kRow, Rounding::kStochastic, q1);
  QuantizedMatrix qb_bytes =
      quantize(b, 2, 32, QuantAxis::kRow, Rounding::kStochastic, q1);
  QuantizedMatrix qa_packed =
      quantize(a, 2, 32, QuantAxis::kRow, Rounding::kStochastic, q2);
  QuantizedMatrix qb_packed =
      quantize(b, 2, 32, QuantAxis::kRow, Rounding::kStochastic, q2);
  pack_storage(qa_packed);
  pack_storage(qb_packed);

  QuantizedMatrix mixed = qa_packed;
  EXPECT_THROW(append_rows(mixed, qb_bytes), CheckError);

  append_rows(qa_bytes, qb_bytes);
  append_rows(qa_packed, qb_packed);
  pack_storage(qa_bytes);
  EXPECT_EQ(qa_packed.codes, qa_bytes.codes);
  EXPECT_EQ(qa_packed.rows, 7u);
}

}  // namespace
}  // namespace hack
