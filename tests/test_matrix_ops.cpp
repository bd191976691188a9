#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace hack {
namespace {

TEST(Matrix, ShapeAndFill) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (const float v : m.flat()) EXPECT_EQ(v, 2.5f);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), CheckError);
  EXPECT_THROW(m.at(0, 2), CheckError);
}

TEST(Matrix, FromRowsValidatesSize) {
  EXPECT_THROW(Matrix::from_rows(2, 2, {1.0f, 2.0f, 3.0f}), CheckError);
}

TEST(Matmul, KnownProduct) {
  const Matrix a = Matrix::from_rows(2, 3, {1, 2, 3, 4, 5, 6});
  const Matrix b = Matrix::from_rows(3, 2, {7, 8, 9, 10, 11, 12});
  const Matrix c = matmul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Matmul, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), CheckError);
}

TEST(MatmulNT, AgreesWithExplicitTranspose) {
  Rng rng(42);
  const Matrix a = Matrix::random_uniform(5, 7, rng);
  const Matrix b = Matrix::random_uniform(6, 7, rng);
  const Matrix direct = matmul_nt(a, b);
  const Matrix via_transpose = matmul(a, transpose(b));
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.flat()[i], via_transpose.flat()[i], 1e-5f);
  }
}

TEST(Transpose, Involution) {
  Rng rng(1);
  const Matrix a = Matrix::random_uniform(4, 9, rng);
  EXPECT_TRUE(transpose(transpose(a)) == a);
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(2);
  const Matrix s = Matrix::random_uniform(6, 11, rng, -5.0f, 5.0f);
  const Matrix p = softmax_rows(s);
  for (std::size_t i = 0; i < p.rows(); ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_GT(p(i, j), 0.0f);
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Softmax, InvariantToRowShift) {
  const Matrix a = Matrix::from_rows(1, 3, {1.0f, 2.0f, 3.0f});
  const Matrix b = Matrix::from_rows(1, 3, {101.0f, 102.0f, 103.0f});
  const Matrix pa = softmax_rows(a);
  const Matrix pb = softmax_rows(b);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(pa(0, j), pb(0, j), 1e-6f);
  }
}

TEST(Softmax, NumericallyStableAtLargeMagnitude) {
  const Matrix a = Matrix::from_rows(1, 2, {1000.0f, 999.0f});
  const Matrix p = softmax_rows(a);
  EXPECT_FALSE(std::isnan(p(0, 0)));
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0f, 1e-6f);
  EXPECT_GT(p(0, 0), p(0, 1));
}

TEST(SoftmaxCausal, MasksFutureKeys) {
  Rng rng(3);
  const Matrix s = Matrix::random_uniform(4, 4, rng);
  const Matrix p = softmax_rows_causal(s, /*key_offset=*/0);
  for (std::size_t i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 4; ++j) {
      if (j > i) {
        EXPECT_EQ(p(i, j), 0.0f) << i << "," << j;
      }
      sum += p(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(SoftmaxCausal, OffsetShiftsVisibility) {
  Rng rng(4);
  const Matrix s = Matrix::random_uniform(2, 6, rng);
  const Matrix p = softmax_rows_causal(s, /*key_offset=*/3);
  // Row 0 sees keys 0..3, row 1 sees 0..4.
  EXPECT_EQ(p(0, 4), 0.0f);
  EXPECT_EQ(p(0, 5), 0.0f);
  EXPECT_EQ(p(1, 5), 0.0f);
  EXPECT_GT(p(1, 4), 0.0f);
}

TEST(AddSubScale, Elementwise) {
  const Matrix a = Matrix::from_rows(2, 2, {1, 2, 3, 4});
  const Matrix b = Matrix::from_rows(2, 2, {10, 20, 30, 40});
  const Matrix sum = add(a, b);
  const Matrix diff = sub(b, a);
  const Matrix twice = scale(a, 2.0f);
  EXPECT_FLOAT_EQ(sum(1, 1), 44.0f);
  EXPECT_FLOAT_EQ(diff(0, 1), 18.0f);
  EXPECT_FLOAT_EQ(twice(1, 0), 6.0f);
}

TEST(Vstack, StacksRows) {
  const Matrix a = Matrix::from_rows(1, 2, {1, 2});
  const Matrix b = Matrix::from_rows(2, 2, {3, 4, 5, 6});
  const Matrix c = vstack(a, b);
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_FLOAT_EQ(c(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(c(2, 1), 6.0f);
}

TEST(Vstack, EmptyBaseReturnsExtra) {
  const Matrix b = Matrix::from_rows(2, 2, {3, 4, 5, 6});
  EXPECT_TRUE(vstack(Matrix(), b) == b);
}

TEST(TakeRowsCols, Slicing) {
  const Matrix a = Matrix::from_rows(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  const Matrix mid_rows = take_rows(a, 1, 2);
  EXPECT_EQ(mid_rows.rows(), 1u);
  EXPECT_FLOAT_EQ(mid_rows(0, 2), 6.0f);
  const Matrix right_cols = take_cols(a, 2, 3);
  EXPECT_EQ(right_cols.cols(), 1u);
  EXPECT_FLOAT_EQ(right_cols(1, 0), 6.0f);
}

TEST(Tensor3, SliceRoundTrip) {
  Tensor3 t(2, 3, 4);
  Rng rng(5);
  const Matrix m = Matrix::random_uniform(3, 4, rng);
  t.set_slice(1, m);
  EXPECT_TRUE(t.slice(1) == m);
  // Slice 0 untouched. (Bind the slice: flat() returns a span into it.)
  const Matrix s0 = t.slice(0);
  for (const float v : s0.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Matrix, RoundToFp16AppliesPrecisionFilter) {
  Matrix m = Matrix::from_rows(1, 2, {1.0000001f, 3.14159265f});
  m.round_to_fp16();
  EXPECT_EQ(m(0, 0), 1.0f);
  EXPECT_NEAR(m(0, 1), 3.140625f, 1e-6f);  // nearest binary16 to pi
}

// random_gaussian fills chunks in parallel from states found by a serial
// skip pass; the matrix and the generator's final state must equal the
// plain serial loop's, for sizes on and off the chunk grid.
TEST(Matrix, RandomGaussianMatchesSerialLoop) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {0, 5}, {5, 0}, {1, 1}, {3, 7}, {128, 128}, {129, 128}, {257, 300},
      {1024, 96}};
  for (const std::uint64_t seed : {1ULL, 42ULL, 0x7acc5eedULL}) {
    for (const auto& [rows, cols] : shapes) {
      Rng serial(seed);
      std::vector<float> want(rows * cols);
      for (float& v : want) {
        v = 0.5f * static_cast<float>(serial.next_gaussian());
      }
      Rng rng(seed);
      const Matrix got = Matrix::random_gaussian(rows, cols, rng, 0.5f);
      ASSERT_EQ(got.rows(), rows);
      ASSERT_EQ(got.cols(), cols);
      EXPECT_TRUE(std::equal(want.begin(), want.end(), got.flat().begin()))
          << "seed " << seed << " shape " << rows << "x" << cols;
      EXPECT_EQ(rng.state(), serial.state())
          << "seed " << seed << " shape " << rows << "x" << cols;
      EXPECT_EQ(rng.next_u64(), serial.next_u64());
    }
  }
}

}  // namespace
}  // namespace hack
