// Asymmetric b-bit quantization with per-partition (min, scale) metadata.
//
// Implements the quantizer of §5.2: within each partition of Π values the
// quantizer finds [min, max], sets scale = (max - min) / (2^b - 1), and maps
// x -> round((x - min) / scale) with stochastic rounding. Metadata (min and
// scale) is stored in FP16 exactly as the paper's implementation does, so
// dequantization error includes the FP16 metadata rounding.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "base/rng.h"
#include "quant/partition.h"
#include "tensor/matrix.h"

namespace hack {

enum class Rounding {
  kStochastic,  // the paper's default (unbiased)
  kNearest,     // deterministic round-to-nearest
};

// A quantized matrix: integer codes plus per-(outer, group) metadata.
//
// Codes are row-major and default to one byte per code (`storage_bits` = 8),
// which is what quantize() produces and what transient operands (Q, the
// softmax P tiles) use. Resident KV planes call pack_storage() to switch to
// bit-packed rows (`storage_bits` = bits of 2 or 4, little-endian within each
// byte, every row padded to a whole byte): the packed-aware int-GEMM kernels
// consume that layout directly, so a 2-bit cache really occupies ~1/4 of the
// unpacked bytes in memory — not just on the wire. `packed_code_bytes()`
// reports the packed footprint either way.
struct QuantizedMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  int bits = 0;
  QuantAxis axis = QuantAxis::kRow;
  std::size_t pi = 0;

  // Storage width of each code in `codes`: 8 = one byte per code; 2 or 4 =
  // rows bit-packed (only ever equal to `bits` in that case).
  int storage_bits = 8;

  // Codes, row-major, same shape as the source matrix (values < 2^bits).
  // When storage_bits != 8 each row occupies code_row_stride() bytes.
  std::vector<std::uint8_t> codes;

  // Metadata indexed by outer * group_count + group. FP16-rounded.
  std::vector<float> mins;
  std::vector<float> scales;

  // Cached partition count along the inner dimension. Maintained by
  // quantize() and every mutator; 0 (e.g. on a hand-assembled matrix) falls
  // back to deriving it from the metadata size, so group_count() stays a
  // cheap field read on the hot path instead of a division per call.
  std::size_t groups = 0;

  std::size_t outer() const { return axis == QuantAxis::kRow ? rows : cols; }
  std::size_t inner() const { return axis == QuantAxis::kRow ? cols : rows; }
  std::size_t group_count() const {
    return groups != 0 ? groups : mins.size() / (outer() == 0 ? 1 : outer());
  }

  // Bytes one code row occupies in `codes`.
  std::size_t code_row_stride() const {
    return storage_bits == 8
               ? cols
               : (cols * static_cast<std::size_t>(storage_bits) + 7) / 8;
  }
  bool packed_storage() const { return storage_bits != 8; }

  std::uint8_t code_at(std::size_t r, std::size_t c) const {
    if (storage_bits == 8) return codes[r * cols + c];
    const std::size_t bit = c * static_cast<std::size_t>(storage_bits);
    return static_cast<std::uint8_t>(
        (codes[r * code_row_stride() + (bit >> 3)] >> (bit & 7)) &
        ((1u << storage_bits) - 1u));
  }
  float min_of(std::size_t outer_idx, std::size_t group) const {
    return mins[outer_idx * group_count() + group];
  }
  float scale_of(std::size_t outer_idx, std::size_t group) const {
    return scales[outer_idx * group_count() + group];
  }

  // Packed size of the integer codes in bytes (bit-exact 2/4/8-bit packing,
  // padded per outer slice to a byte boundary).
  std::size_t packed_code_bytes() const;

  // Bytes of FP16 (min, scale) metadata.
  std::size_t metadata_bytes() const { return 2 * 2 * mins.size(); }

  // Total wire footprint: packed codes + metadata.
  std::size_t stored_bytes() const {
    return packed_code_bytes() + metadata_bytes();
  }
};

// Quantizes `m` along `axis` with partition size `pi` and `bits` precision.
// `allow_ragged_tail` allows the final partition to be shorter than Π (used
// by the growing V cache).
//
// Matrices of at least kParallelQuantizeMinValues values (and >= 2 outer
// slices) run the outer-slice loop on the shared ThreadPool: one sub-Rng is
// forked from `rng` per outer slice, in slice order, before any work is
// dispatched, so the codes depend only on the seed — never on the pool size
// or the `threads` request (0 = auto, 1 = serial, N = N chunks). Smaller
// matrices — decode-step appends — take the serial path on the caller's rng
// directly, byte-for-byte identical to the original implementation, and pay
// no pool overhead.
QuantizedMatrix quantize(const Matrix& m, int bits, std::size_t pi,
                         QuantAxis axis, Rounding rounding, Rng& rng,
                         bool allow_ragged_tail = false, int threads = 0);

// Quantizes one contiguous partition of values with exactly the full-matrix
// path's semantics: [min, max] over the span, FP16-rounded metadata, codes
// computed against the rounded (min, scale) with the requested rounding rule.
// `codes` must have values.size() entries; the FP16 metadata lands in
// (out_min, out_scale), and the return value is the sum of the codes. The
// streaming attention engine uses this to quantize softmax tiles segment by
// segment; quantize() calls it on every partition.
//
// Each value x = (v - min) / scale is computed in double; with lo = floor(x)
// and frac = x - lo, the code is clamp(lo + up, 0, 2^bits - 1). Nearest
// rounding takes up = (frac >= 0.5), which after the clamp gives llround's
// codes. Stochastic rounding draws u =
// rng.next_double() for each value with frac != 0, in index order, and takes
// up = (u < frac). A non-finite x (metadata beyond the FP16 range) gets code
// 0 and still draws.
std::int64_t quantize_span(std::span<const float> values,
                           std::span<std::uint8_t> codes, int bits,
                           Rounding rounding, Rng& rng, float& out_min,
                           float& out_scale);

// A batch of spans, each quantized from its own stream: e.g. one Π segment
// of several softmax rows. Span i reads values[i * value_stride, + len),
// writes codes[i * code_stride, + len), puts its FP16 metadata and code sum
// at index i * meta_stride of mins, scales and sums, and draws from
// rngs[i].
struct SpanBatch {
  const float* values = nullptr;
  std::size_t value_stride = 0;
  std::uint8_t* codes = nullptr;
  std::size_t code_stride = 0;
  float* mins = nullptr;
  float* scales = nullptr;
  std::int32_t* sums = nullptr;
  std::size_t meta_stride = 0;
  Rng* rngs = nullptr;
  std::size_t count = 0;  // spans
  std::size_t len = 0;    // values per span
};

// Quantizes every span of `batch` exactly as one quantize_span call per
// span would. The AVX-512 arm runs the stochastic draws of 8 spans' streams
// at once, one stream per vector lane.
void quantize_spans(const SpanBatch& batch, int bits, Rounding rounding);

// quantize_span and quantize_spans run a vectorized AVX-512 arm when the
// CPU has AVX-512 F, BW, VL and DQ plus BMI2 and POPCNT, and a portable
// scalar arm otherwise.
// Both give the same codes, metadata and stream states.
enum class QuantizeArm { kPortable, kAvx512 };

// Test hook: caps the arm quantize_span dispatches to (the default cap is
// kAvx512). Returns the arm it runs under the new cap on this CPU.
QuantizeArm quantize_cap_arm(QuantizeArm cap);

// Size threshold (in values) at which quantize()/dequantize() move their
// outer loops onto the shared ThreadPool.
inline constexpr std::size_t kParallelQuantizeMinValues = 64 * 1024;

// Converts `q` to bit-packed row storage in place (no-op at 8 bits or when
// already packed). The packed layout is what the resident KV planes hold and
// what the packed int-GEMM kernels consume.
void pack_storage(QuantizedMatrix& q);

// Converts `q` back to one-byte-per-code storage in place (no-op when
// already unpacked). Cold-path consumers that want raw byte codes (codecs,
// benches, tests) use this.
void unpack_storage(QuantizedMatrix& q);

// Reconstructs the real-valued matrix: x ≈ scale * code + min. Row-parallel
// on the shared ThreadPool above the same size threshold as quantize().
Matrix dequantize(const QuantizedMatrix& q, int threads = 0);

// Worst-case absolute reconstruction error for one partition of `q`:
// stochastic rounding perturbs by at most one code step (= scale).
float max_abs_error_bound(const QuantizedMatrix& q);

// Appends the rows of `extra` to `q`; both must be row-axis quantized with
// identical cols/pi/bits. This is the K-cache growth step: each new token's K
// vector is partitioned along the (fixed) head dimension, so existing
// partitions and their [min, max] never change (§5.3).
void append_rows(QuantizedMatrix& q, const QuantizedMatrix& extra);

// Appends `extra` (a col-axis quantized Π-row chunk) below `q` (col-axis,
// same cols/pi/bits, row count a multiple of Π). This is the V-cache growth
// step: once the FP16 tail block of V fills a whole partition it is quantized
// and appended as complete new groups, so earlier groups are never
// requantized (RQE, §5.3).
void append_inner_groups(QuantizedMatrix& q, const QuantizedMatrix& extra);

}  // namespace hack
