// The dense FP32 matmul's bit contract (tensor/ops.h): every arm, at any
// lane count, gives the scalar loop's bits — each output element adds its
// rounded products in k order, never fused. That is what lets the serving
// engine stack every lane's rows into one product without moving a token.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "base/rng.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace hack {
namespace {

const char* arm_name(MatmulArm arm) {
  switch (arm) {
    case MatmulArm::kPortable: return "portable";
    case MatmulArm::kAvx2: return "avx2";
    case MatmulArm::kAvx512: return "avx512";
  }
  return "?";
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.flat().data(), y.flat().data(),
                     x.size() * sizeof(float)) == 0;
}

// Uniform entries with about a quarter exact zeros, so the scalar loop's
// zero skip is exercised against arms that add 0 * b instead.
Matrix sparse_uniform(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m = Matrix::random_uniform(rows, cols, rng);
  for (float& v : m.flat()) {
    if (rng.next_below(4) == 0) v = 0.0f;
  }
  return m;
}

class MatmulArmTest : public ::testing::TestWithParam<MatmulArm> {
 protected:
  // Caps matmul at the parameter's arm; skips when the CPU lacks it.
  void SetUp() override {
    if (matmul_cap_arm(GetParam()) != GetParam()) {
      matmul_cap_arm(MatmulArm::kAvx512);
      GTEST_SKIP() << "this CPU has no " << arm_name(GetParam()) << " arm";
    }
  }
  void TearDown() override { matmul_cap_arm(MatmulArm::kAvx512); }

  // The scalar loop, serial: the reference every arm must equal.
  static Matrix reference(const Matrix& a, const Matrix& b) {
    matmul_cap_arm(MatmulArm::kPortable);
    Matrix c = matmul(a, b, 1);
    EXPECT_EQ(matmul_cap_arm(GetParam()), GetParam());
    return c;
  }
};

TEST_P(MatmulArmTest, BitwiseEqualToScalarLoop) {
  Rng rng(0xd3e5e);
  for (const std::size_t z : {1u, 255u, 256u, 257u, 1024u}) {
    for (const std::size_t n : {1u, 17u, 63u, 64u, 65u, 200u, 1024u}) {
      const Matrix b = Matrix::random_uniform(z, n, rng);
      for (const std::size_t m : {1u, 2u, 5u, 6u, 7u, 13u, 37u, 160u}) {
        const Matrix a = sparse_uniform(m, z, rng);
        const Matrix want = reference(a, b);
        for (const int threads : {1, 4}) {
          EXPECT_TRUE(same_bits(matmul(a, b, threads), want))
              << arm_name(GetParam()) << " m=" << m << " z=" << z
              << " n=" << n << " threads=" << threads;
        }
      }
    }
  }
}

TEST_P(MatmulArmTest, EmptyShapes) {
  Rng rng(5);
  for (const int threads : {1, 4}) {
    // Zero rows, zero columns, and a zero inner dimension (all-zero C).
    EXPECT_EQ(matmul(Matrix(0, 300), Matrix::random_uniform(300, 70, rng),
                     threads),
              Matrix(0, 70));
    EXPECT_EQ(matmul(Matrix::random_uniform(9, 300, rng), Matrix(300, 0),
                     threads),
              Matrix(9, 0));
    EXPECT_EQ(matmul(Matrix(9, 0), Matrix(0, 70), threads), Matrix(9, 70));
  }
}

// Inputs on which a fused multiply-add rounds differently from a multiply
// then an add. Even k: 1 * -(1 + 2^-11), exact. Odd k: (1 + 2^-12)^2 =
// 1 + 2^-11 + 2^-24, which rounds (a tie, to even) to 1 + 2^-11, so every
// pair sums to exactly 0. A fused step keeps the 2^-24 and ends at 2^-24.
TEST_P(MatmulArmTest, NeverFusesMultiplyAndAdd) {
  const float e11 = std::ldexp(1.0f, -11);
  const float e12 = std::ldexp(1.0f, -12);
  const std::size_t z = 600;  // crosses two k-block boundaries
  for (const std::size_t m : {1u, 7u, 13u}) {
    for (const std::size_t n : {1u, 17u, 64u, 65u, 200u}) {
      Matrix a(m, z), b(z, n);
      for (std::size_t k = 0; k < z; ++k) {
        const bool odd = k % 2 == 1;
        for (std::size_t i = 0; i < m; ++i) a(i, k) = odd ? 1.0f + e12 : 1.0f;
        for (std::size_t j = 0; j < n; ++j) {
          b(k, j) = odd ? 1.0f + e12 : -(1.0f + e11);
        }
      }
      for (const int threads : {1, 4}) {
        const Matrix c = matmul(a, b, threads);
        EXPECT_TRUE(same_bits(c, Matrix(m, n)))
            << arm_name(GetParam()) << " m=" << m << " n=" << n
            << " threads=" << threads << " c(0,0)=" << c(0, 0);
      }
    }
  }
}

// A row's bits do not depend on the rows stacked with it.
TEST_P(MatmulArmTest, StackedRowsEqualRowsAlone) {
  Rng rng(77);
  const Matrix b = Matrix::random_uniform(300, 130, rng);
  const Matrix a = sparse_uniform(19, 300, rng);
  const Matrix stacked = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    EXPECT_TRUE(
        same_bits(matmul(take_rows(a, i, i + 1), b), take_rows(stacked, i, i + 1)))
        << arm_name(GetParam()) << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arms, MatmulArmTest,
    ::testing::Values(MatmulArm::kPortable, MatmulArm::kAvx2,
                      MatmulArm::kAvx512),
    [](const ::testing::TestParamInfo<MatmulArm>& info) {
      return std::string(arm_name(info.param));
    });

}  // namespace
}  // namespace hack
