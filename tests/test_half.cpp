#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "base/rng.h"
#include "tensor/half.h"

namespace hack {
namespace {

TEST(Half, ExactSmallIntegers) {
  // All integers up to 2048 are exactly representable in binary16.
  for (int i = -2048; i <= 2048; ++i) {
    const float f = static_cast<float>(i);
    EXPECT_EQ(fp16_round(f), f) << i;
  }
}

TEST(Half, ExactPowersOfTwo) {
  for (int e = -14; e <= 15; ++e) {
    const float f = std::ldexp(1.0f, e);
    EXPECT_EQ(fp16_round(f), f) << "2^" << e;
  }
}

TEST(Half, KnownBitPatterns) {
  EXPECT_EQ(Half(1.0f).bits(), 0x3c00);
  EXPECT_EQ(Half(-2.0f).bits(), 0xc000);
  EXPECT_EQ(Half(0.5f).bits(), 0x3800);
  EXPECT_EQ(Half(65504.0f).bits(), 0x7bff);  // max finite
  EXPECT_EQ(Half(0.0f).bits(), 0x0000);
  EXPECT_EQ(Half(-0.0f).bits(), 0x8000);
}

TEST(Half, OverflowToInfinity) {
  EXPECT_TRUE(std::isinf(fp16_round(70000.0f)));
  EXPECT_TRUE(std::isinf(fp16_round(-70000.0f)));
  EXPECT_LT(fp16_round(-70000.0f), 0.0f);
}

TEST(Half, SubnormalRange) {
  const float tiny = std::ldexp(1.0f, -24);  // smallest positive subnormal
  EXPECT_EQ(fp16_round(tiny), tiny);
  EXPECT_EQ(fp16_round(tiny / 2.0f), 0.0f);  // underflow
}

TEST(Half, NanPreserved) {
  EXPECT_TRUE(std::isnan(fp16_round(std::numeric_limits<float>::quiet_NaN())));
}

TEST(Half, InfinityPreserved) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_TRUE(std::isinf(fp16_round(inf)));
  EXPECT_TRUE(std::isinf(fp16_round(-inf)));
}

TEST(Half, RoundTripIsIdempotent) {
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const float f = (rng.next_float() - 0.5f) * 100.0f;
    const float once = fp16_round(f);
    EXPECT_EQ(fp16_round(once), once);
  }
}

TEST(Half, RelativeErrorBound) {
  // binary16 has 11 significand bits: relative error <= 2^-11 for normals.
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    const float f = 0.1f + rng.next_float() * 1000.0f;
    const float r = fp16_round(f);
    EXPECT_LE(std::fabs(r - f) / f, 1.0f / 2048.0f + 1e-7f) << f;
  }
}

TEST(Half, RoundToNearestEven) {
  // 2049 is halfway between 2048 and 2050 -> ties to even mantissa (2048).
  EXPECT_EQ(fp16_round(2049.0f), 2048.0f);
  EXPECT_EQ(fp16_round(2051.0f), 2052.0f);
}

TEST(Half, RoundMatchesSoftwareConversionOnBitPatterns) {
  // fp16_round takes the F16C conversions where the CPU has them; their
  // round trip must equal Half's software one bit for bit: on every 4099th
  // bit pattern and the two after it, and on the rounding ties and range
  // edges (overflow to inf, the smallest subnormal, underflow to zero).
  std::vector<float> xs = {2049.0f,   2051.0f,    65504.0f,  65519.0f,
                           65520.0f,  0x1p-24f,   0x1p-25f,  0x1.8p-25f,
                           0x1p-26f,  0x1.8p-24f, 0x1p-14f,  0x1.ffcp-15f,
                           -0.0f,     0.0f};
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    for (std::uint32_t k = 0; k < 3; ++k) {
      xs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(u) + k));
    }
  }
  const std::size_t edges = 14;
  for (std::size_t i = 0; i < edges; ++i) xs.push_back(-xs[i]);
  for (const float x : xs) {
    const float got = fp16_round(x);
    if (std::isnan(x)) {
      EXPECT_TRUE(std::isnan(got));
      continue;
    }
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
              std::bit_cast<std::uint32_t>(Half(x).to_float()))
        << std::hexfloat << x;
  }
}

TEST(Half, MonotoneOnSamples) {
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const float a = (rng.next_float() - 0.5f) * 200.0f;
    const float b = a + rng.next_float() * 10.0f;
    EXPECT_LE(fp16_round(a), fp16_round(b));
  }
}

}  // namespace
}  // namespace hack
