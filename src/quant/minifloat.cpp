#include "quant/minifloat.h"

#include <cmath>

#include "base/check.h"

namespace hack {
namespace {

struct Layout {
  int exp_bits;
  int man_bits;
  int bias;
};

Layout layout_of(MiniFloatFormat format) {
  switch (format) {
    case MiniFloatFormat::kFp8E4M3:
      return {4, 3, 7};
    case MiniFloatFormat::kFp6E3M2:
      return {3, 2, 3};
    case MiniFloatFormat::kFp4E2M1:
      return {2, 1, 1};
  }
  HACK_CHECK(false, "unknown minifloat format");
  return {};
}

// Largest finite magnitude of the format (all-ones exponent is kept finite,
// saturating semantics as in E4M3).
float max_finite(const Layout& l) {
  const int max_exp = (1 << l.exp_bits) - 1 - l.bias;
  const float max_man =
      2.0f - std::ldexp(1.0f, -l.man_bits);  // 1.111... in binary
  return std::ldexp(max_man, max_exp);
}

}  // namespace

int minifloat_bits(MiniFloatFormat format) {
  const Layout l = layout_of(format);
  return 1 + l.exp_bits + l.man_bits;
}

std::string minifloat_name(MiniFloatFormat format) {
  switch (format) {
    case MiniFloatFormat::kFp8E4M3:
      return "FP8";
    case MiniFloatFormat::kFp6E3M2:
      return "FP6";
    case MiniFloatFormat::kFp4E2M1:
      return "FP4";
  }
  return "?";
}

std::uint8_t minifloat_encode(float value, MiniFloatFormat format) {
  const Layout l = layout_of(format);
  const std::uint8_t sign = value < 0.0f || (value == 0.0f && std::signbit(value))
                                ? 1
                                : 0;
  float mag = std::fabs(value);
  if (std::isnan(mag)) {
    mag = 0.0f;  // quantizing NaN makes no sense for KV data; treat as zero
  }
  const float limit = max_finite(l);
  if (mag > limit) {
    mag = limit;  // saturate
  }

  const int total = 1 + l.exp_bits + l.man_bits;
  const std::uint8_t sign_shifted =
      static_cast<std::uint8_t>(sign << (total - 1));
  if (mag == 0.0f) {
    return sign_shifted;
  }

  int exp = 0;
  float frac = std::frexp(mag, &exp);  // mag = frac * 2^exp, frac in [0.5, 1)
  // Normal form m.1xxx * 2^(exp-1): exponent field e = exp - 1 + bias.
  int e_field = exp - 1 + l.bias;
  std::uint32_t man = 0;
  if (e_field <= 0) {
    // Subnormal: value = 0.man * 2^(1 - bias - man_bits) steps.
    const float step = std::ldexp(1.0f, 1 - l.bias - l.man_bits);
    long q = std::lround(mag / step);
    if (q == 0) return sign_shifted;
    if (q >= (1L << l.man_bits)) {
      // Rounded up into the smallest normal.
      e_field = 1;
      man = 0;
    } else {
      e_field = 0;
      man = static_cast<std::uint32_t>(q);
    }
  } else {
    // Round mantissa (frac in [0.5,1) -> 1.f in [1,2)).
    const float scaled = (frac * 2.0f - 1.0f) * static_cast<float>(1 << l.man_bits);
    long q = std::lround(scaled);
    if (q >= (1L << l.man_bits)) {
      q = 0;
      ++e_field;
    }
    man = static_cast<std::uint32_t>(q);
    const int e_max = (1 << l.exp_bits) - 1;
    if (e_field > e_max) {
      // Saturate to max finite.
      e_field = e_max;
      man = (1u << l.man_bits) - 1;
    }
  }
  return static_cast<std::uint8_t>(
      sign_shifted | (static_cast<std::uint32_t>(e_field) << l.man_bits) | man);
}

namespace {

// Decodes a bit pattern back to float.
float minifloat_decode(std::uint8_t bits, MiniFloatFormat format) {
  const Layout l = layout_of(format);
  const int total = 1 + l.exp_bits + l.man_bits;
  const int sign = (bits >> (total - 1)) & 1;
  const int e_field =
      (bits >> l.man_bits) & ((1 << l.exp_bits) - 1);
  const int man = bits & ((1 << l.man_bits) - 1);

  float mag = 0.0f;
  if (e_field == 0) {
    mag = std::ldexp(static_cast<float>(man), 1 - l.bias - l.man_bits);
  } else {
    const float significand =
        1.0f + std::ldexp(static_cast<float>(man), -l.man_bits);
    mag = std::ldexp(significand, e_field - l.bias);
  }
  return sign ? -mag : mag;
}

}  // namespace

float minifloat_round(float value, MiniFloatFormat format) {
  return minifloat_decode(minifloat_encode(value, format), format);
}

Matrix minifloat_round_matrix(const Matrix& m, MiniFloatFormat format) {
  Matrix out(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.size(); ++i) {
    out.flat()[i] = minifloat_round(m.flat()[i], format);
  }
  return out;
}

double minifloat_compression_vs_fp16(MiniFloatFormat format) {
  return 1.0 - static_cast<double>(minifloat_bits(format)) / 16.0;
}

}  // namespace hack
