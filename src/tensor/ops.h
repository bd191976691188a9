// Dense float matrix operations used by the reference (un-quantized) paths.
#pragma once

#include <span>

#include "tensor/matrix.h"

namespace hack {

// C = A * B. A is MxZ, B is ZxN. Every output element is the sum over
// k = 0..Z-1, in that order, of the product a(i,k) * b(k,j) rounded to float
// and then added (never a fused multiply-add). The result therefore does not
// depend on M, on the instruction-set arm, or on how the work is split: a
// row computed in a stacked [M x Z] product equals the same row computed
// alone. That holds bitwise for finite inputs. The one exception is a zero
// a(i,k) against a non-finite b(k,j): the scalar arm skips zero a(i,k), the
// vector arms add 0 * b(k,j).
//
// The work splits over the shared ThreadPool by column panels, so each lane
// streams only its slice of B; a single-row GEMV splits the same way, except
// on the portable arm, where auto mode runs it on the caller.
// `threads` follows the library convention: 0 = auto (every lane, for
// products large enough to repay the dispatch), 1 = serial on the caller,
// N = N column panels.
Matrix matmul(const Matrix& a, const Matrix& b, int threads = 0);

// The instruction-set arms of matmul, narrowest first. kPortable is the
// scalar ikj loop and the reference the vector arms are tested against.
enum class MatmulArm { kPortable, kAvx2, kAvx512 };

// Test hook: caps the arm matmul dispatches to (the default cap is kAvx512).
// Returns the arm matmul runs under the new cap on this CPU, which is lower
// than `cap` when the CPU lacks it. Not thread-safe against in-flight
// matmuls; flip it only around single-threaded test sections.
MatmulArm matmul_cap_arm(MatmulArm cap);

// Multiplies x by `alpha` in place and returns the largest product (-inf
// for an empty span); a NaN product is skipped, as std::max(best, v) skips
// it. Every arm writes the same products; only the sign of a zero maximum
// can differ between arms. Dispatches under the matmul arm cap.
float scale_in_place_max(std::span<float> x, float alpha);

// C = A * B^T. A is MxZ, B is NxZ. Attention computes Q K^T in this form.
// Large products (>= ~2M MACs, M >= 2) split their output rows over the
// shared ThreadPool; each row runs the same serial loop, so the result is
// bit-identical for any pool size.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

Matrix transpose(const Matrix& a);

// Row-wise softmax, numerically stabilized by the row max (Eq. 3).
Matrix softmax_rows(const Matrix& scores);

// Row-wise softmax over the leading `valid` entries of each row only; the
// remainder of the row is zeroed. Used for causal masking where row i of the
// score matrix may attend to keys [0, offset + i].
Matrix softmax_rows_causal(const Matrix& scores, std::size_t key_offset);

// a + b, a - b, elementwise (shape-checked).
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);

// alpha * a.
Matrix scale(const Matrix& a, float alpha);

// Appends the rows of `extra` below `base` (column counts must match).
Matrix vstack(const Matrix& base, const Matrix& extra);

// Takes rows [begin, end) of a.
Matrix take_rows(const Matrix& a, std::size_t begin, std::size_t end);

// Takes columns [begin, end) of a.
Matrix take_cols(const Matrix& a, std::size_t begin, std::size_t end);

}  // namespace hack
