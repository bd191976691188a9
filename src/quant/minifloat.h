// Software mini-float formats: FP8 (E4M3), FP6 (E3M2), FP4 (E2M1).
//
// §3 of the paper evaluates low-precision floating-point KV storage as an
// alternative to integer quantization. None of the evaluation GPUs execute
// FP8 natively, so the paper itself simulates: store in the mini format,
// convert to FP16 before attention, and halve matmul time to model FP8
// tensor-core throughput. We reproduce the storage formats bit-exactly (with
// saturation instead of infinities, like NVIDIA's E4M3) so compression rate
// and round-trip error are real.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/matrix.h"

namespace hack {

enum class MiniFloatFormat {
  kFp8E4M3,
  kFp6E3M2,
  kFp4E2M1,
};

// Bits per stored value (8, 6, 4).
int minifloat_bits(MiniFloatFormat format);

// Human-readable name ("FP8", ...).
std::string minifloat_name(MiniFloatFormat format);

// Encodes a float into the format's bit pattern (sign + exponent + mantissa),
// round-to-nearest-even, saturating at the format's max finite value.
std::uint8_t minifloat_encode(float value, MiniFloatFormat format);

// Rounds value through the format (encode + decode).
float minifloat_round(float value, MiniFloatFormat format);

// Rounds every entry of m through the format.
Matrix minifloat_round_matrix(const Matrix& m, MiniFloatFormat format);

// Compression rate versus FP16 storage: 1 - bits/16 (e.g. FP4 -> 0.75).
double minifloat_compression_vs_fp16(MiniFloatFormat format);

}  // namespace hack
