#include "tensor/half.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace hack {

std::uint16_t Half::from_float(float value) {
  const std::uint32_t f = std::bit_cast<std::uint32_t>(value);
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  const std::uint32_t exponent = (f >> 23) & 0xffu;
  std::uint32_t mantissa = f & 0x7fffffu;

  if (exponent == 0xffu) {
    // Inf / NaN: keep a quiet-NaN payload bit so NaNs stay NaN.
    return static_cast<std::uint16_t>(sign | 0x7c00u | (mantissa ? 0x200u : 0));
  }

  // Re-bias from 127 to 15.
  const int unbiased = static_cast<int>(exponent) - 127;
  if (unbiased > 15) {
    return static_cast<std::uint16_t>(sign | 0x7c00u);  // overflow -> inf
  }

  if (unbiased >= -14) {
    // Normal range: keep top 10 mantissa bits with round-to-nearest-even.
    const std::uint32_t half_exp = static_cast<std::uint32_t>(unbiased + 15);
    std::uint32_t result = sign | (half_exp << 10) | (mantissa >> 13);
    const std::uint32_t round_bits = mantissa & 0x1fffu;
    if (round_bits > 0x1000u || (round_bits == 0x1000u && (result & 1u))) {
      ++result;  // carries into the exponent correctly (1.111.. -> 10.000..)
    }
    return static_cast<std::uint16_t>(result);
  }

  if (unbiased < -25) {
    return static_cast<std::uint16_t>(sign);  // underflows to signed zero
  }

  // Subnormal half: value = M · 2^(u-23) with M = 1.mantissa as a 24-bit
  // integer; the stored field is round(value / 2^-24) = M >> (-u - 1),
  // round-to-nearest-even on the dropped bits. A carry past 10 bits lands
  // exactly on the smallest normal encoding.
  mantissa |= 0x800000u;
  const int shift = -unbiased - 1;  // in [14, 24] here
  std::uint32_t result = sign | (mantissa >> shift);
  const std::uint32_t dropped = mantissa & ((1u << shift) - 1);
  const std::uint32_t halfway = 1u << (shift - 1);
  if (dropped > halfway || (dropped == halfway && (result & 1u))) {
    ++result;
  }
  return static_cast<std::uint16_t>(result);
}

float Half::to_float_impl(std::uint16_t bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(bits & 0x8000u) << 16;
  const std::uint32_t exponent = (bits >> 10) & 0x1fu;
  std::uint32_t mantissa = bits & 0x3ffu;

  std::uint32_t f = 0;
  if (exponent == 0) {
    if (mantissa == 0) {
      f = sign;  // zero
    } else {
      // Subnormal: normalize by shifting the mantissa up.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      f = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 |
          ((m & 0x3ffu) << 13);
    }
  } else if (exponent == 0x1fu) {
    f = sign | 0x7f800000u | (mantissa << 13);  // inf / NaN
  } else {
    f = sign | ((exponent + 127 - 15) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(f);
}

#if defined(__x86_64__) && defined(__GNUC__)
namespace {

bool cpu_has_f16c() {
  static const bool ok = __builtin_cpu_supports("f16c");
  return ok;
}

// The F16C conversions round to nearest even and handle subnormals and
// infinities as Half does: the round trip equals Half's for every non-NaN
// float (all 2^32 bit patterns compared). A NaN's payload differs, so NaNs
// keep the software path.
__attribute__((target("f16c"))) float fp16_round_f16c(float value) {
  return _cvtsh_ss(_cvtss_sh(value, _MM_FROUND_TO_NEAREST_INT));
}

}  // namespace
#endif

float fp16_round(float value) {
#if defined(__x86_64__) && defined(__GNUC__)
  if (value == value && cpu_has_f16c()) return fp16_round_f16c(value);
#endif
  return Half(value).to_float();
}

}  // namespace hack
