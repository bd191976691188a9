// Quickstart: homomorphic quantized matrix multiplication in five steps.
//
//   1. Quantize A (8-bit, row partitions) and B (2-bit, column partitions).
//   2. Build the Σb' sum cache once (summation elimination).
//   3. Multiply the *quantized* operands directly — no dequantization.
//   4. Compare against the exact FP32 product.
//   5. Inspect the wire footprint: ~6x smaller than FP16.
//
// Build & run:  ./build/quickstart
#include <cstdio>

#include "core/hq_matmul.h"
#include "metrics/tensor_metrics.h"
#include "quant/quantizer.h"
#include "tensor/ops.h"

using namespace hack;

int main() {
  Rng rng(7);
  const std::size_t m = 8, z = 256, n = 16;
  const Matrix a = Matrix::random_gaussian(m, z, rng);
  const Matrix b = Matrix::random_gaussian(z, n, rng);

  // 1. Asymmetric stochastic quantization with Π = 64 partitions (§5.2).
  Rng q1(1), q2(2);
  const QuantizedMatrix aq =
      quantize(a, /*bits=*/8, /*pi=*/64, QuantAxis::kRow,
               Rounding::kStochastic, q1);
  const QuantizedMatrix bq =
      quantize(b, /*bits=*/2, /*pi=*/64, QuantAxis::kCol,
               Rounding::kStochastic, q2);

  // 2. Summation elimination: cache Σ b' per (column, partition).
  const SumCache b_sums = SumCache::build(bq);

  // 3. Eq. (4): integer GEMM on the codes + affine correction.
  HqStats stats{};
  const Matrix c = hq_matmul(aq, bq, &b_sums, &stats);

  // 4. Fidelity versus the exact product.
  const Matrix exact = matmul(a, b);
  std::printf("relative L2 error vs FP32 matmul : %.4f\n",
              relative_l2(c, exact));
  std::printf("cosine similarity                : %.4f\n",
              cosine_similarity(c, exact));

  // The same multiply against the *dequantized* operands is numerically
  // identical — HACK just never materializes them.
  const Matrix via_dequant = matmul(dequantize(aq), dequantize(bq));
  std::printf("max |HQ - dequant-then-matmul|   : %.6f\n",
              max_abs_diff(c, via_dequant));

  // 5. Work and footprint accounting.
  std::printf("integer MACs                     : %lld\n",
              static_cast<long long>(stats.int_macs));
  std::printf("approximation flops (Eq. 4)      : %lld\n",
              static_cast<long long>(stats.approx_flops));
  std::printf("sum recompute flops (SE active)  : %lld\n",
              static_cast<long long>(stats.sum_flops));
  const double fp16_bytes = 2.0 * static_cast<double>(b.size());
  std::printf("B wire bytes: %zu (FP16 would be %.0f, %.1f%% compression)\n",
              bq.stored_bytes(), fp16_bytes,
              100.0 * (1.0 - bq.stored_bytes() / fp16_bytes));
  return 0;
}
