// Homomorphic quantized matrix multiplication — the paper's core contribution.
//
// For C = A·B with both operands quantized per-partition (§5.2, Eq. 4):
//
//   C[i,j] = Σ_g ( s_a[i,g]·s_b[j,g]·Σ_{z∈g} a'b'     <- integer GEMM
//                + m_b[j,g]·s_a[i,g]·Σ_{z∈g} a'       <- A code row-sums
//                + m_a[i,g]·s_b[j,g]·Σ_{z∈g} b'       <- B code col-sums (SE)
//                + |g|·m_a[i,g]·m_b[j,g] )
//
// The integer GEMM runs on the codes (INT8 path); the three affine terms
// "approximate the quantized output into the real output" without ever
// materializing dequantized operands. Passing a prebuilt SumCache for B
// enables summation elimination: the Σ b' term is read instead of recomputed,
// reducing the approximation cost from 9MN + MZ + NZ to 9MN + MZ flops.
//
// Engine: the hot path is a blocked, multithreaded kernel. Per partition g
// the integer part runs through the register-blocked CodeView kernels in
// core/int_gemm.h, and the Eq. (4) correction collapses to
//
//   C[i,j] += A1[i]·B1[j]·dot + A2[i]·B2[j] + A3[i]·B3[j]
//
// with the per-(i,g) factors A1 = s_a, A2 = s_a·Σa', A3 = m_a and the
// per-(j,g) factors B1 = s_b, B2 = m_b, B3 = s_b·Σb' + |g|·m_b hoisted out of
// the inner loop. The M dimension splits into row bands dispatched on the
// shared ThreadPool; a single-row A (the decode GEMV case) bypasses the pool
// entirely. `hq_matmul_reference` keeps the original scalar triple loop for
// equivalence tests and old-vs-new benchmarking.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/sum_cache.h"
#include "quant/quantizer.h"
#include "tensor/matrix.h"

namespace hack {

// One absolutely-aligned segment of a KV tile: contraction positions
// [begin, end) (absolute token indices), lying entirely inside B partition
// group `group`. `whole_group` marks segments that cover their group exactly,
// whose Σ b' can be read from a SumCache; partial segments (a tile boundary
// cut through the group) recompute the segment sum from the codes.
struct KvSegment {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t group = 0;
  bool whole_group = false;
};

// Splits the KV tile [k_begin, k_end) at the absolute partition boundaries of
// a col-axis quantized store with `rows` token rows and partition size `pi`
// (the final group may be ragged, as in the RQE-off spliced V store). The
// returned segments tile [k_begin, k_end) exactly, in order.
std::vector<KvSegment> kv_tile_segments(std::size_t k_begin, std::size_t k_end,
                                        std::size_t rows, std::size_t pi);

// Operation counters filled by the HQ kernels; tests pin these against the
// closed-form costs in core/cost_model.h.
struct HqStats {
  std::int64_t int_macs = 0;      // integer multiply-accumulates (code GEMM)
  std::int64_t approx_flops = 0;  // float ops spent on the Eq. (4) correction
  std::int64_t sum_flops = 0;     // adds spent computing Σ b' (0 when cached)
};

// `threads` for the calls below: 0 = auto (one row band per lane of the
// global ThreadPool, itself sized by HACK_NUM_THREADS / the hardware),
// 1 = serial, N = split into N row bands. The band decomposition — and hence
// the float result — depends only on the requested count, not on how many
// worker threads actually exist.

// C = A·B. A must be row-axis quantized (M x Z), B col-axis (Z x N), with
// identical partition size. `b_sums`, when provided, must match B.
Matrix hq_matmul(const QuantizedMatrix& a, const QuantizedMatrix& b,
                 const SumCache* b_sums = nullptr, HqStats* stats = nullptr,
                 int threads = 0);

// C = A·Bᵀ. A row-axis (M x Z), B row-axis (N x Z) — the Q·Kᵀ form where K
// stores one token per row. `b_sums`, when provided, must match B.
Matrix hq_matmul_nt(const QuantizedMatrix& a, const QuantizedMatrix& b,
                    const SumCache* b_sums = nullptr, HqStats* stats = nullptr,
                    int threads = 0);

// One C = A·B (or A·Bᵀ) problem of a batched launch. Shapes follow the
// single-call contracts above; `c` is resized and filled by the call, `stats`
// (optional) receives this task's counters. When several tasks share the same
// (b, b_sums) pair — GQA query heads attending one KV head — the hoisted
// Eq. (4) B factors are prepared once, and any Σ b' recompute cost is charged
// to the first task using that pair.
struct HqGemmTask {
  const QuantizedMatrix* a = nullptr;
  const QuantizedMatrix* b = nullptr;
  const SumCache* b_sums = nullptr;
  Matrix* c = nullptr;
  HqStats* stats = nullptr;
};

// Batched heads-in-one-launch variants: every task's M dimension splits into
// row bands and all (task × band) work items are dispatched through a single
// parallel_for on the shared ThreadPool, so many small matmuls (one per
// attention head of a layer) fill the pool instead of paying one dispatch
// each. Single-row tasks get exactly one work item — the batched decode GEMV
// path. Results are bit-identical to the equivalent single calls for any
// thread count.
void hq_matmul_batched(std::span<HqGemmTask> tasks, int threads = 0);
void hq_matmul_nt_batched(std::span<HqGemmTask> tasks, int threads = 0);

// ---- streaming-attention building blocks -----------------------------------
// The tiled softmax engine in attention/layer_attention.cpp walks KV tiles
// inside one pool work item, so it needs the Eq. (4) machinery exposed at a
// finer grain than a whole hq_matmul call: a reusable B-side prep, hoisted
// A row sums, and per-tile score / accumulate kernels.

// Opaque hoisted NT B-side prep (the Q·Kᵀ factors of one KV head): built once
// per (K, SumCache) pair and reused across GQA query heads and every KV tile.
// sum_flops() reports the Σ b' adds paid at build time when no SumCache was
// given (charge it once per prep, not per tile).
class HqNtPrep {
 public:
  HqNtPrep(const QuantizedMatrix& b, const SumCache* b_sums);
  ~HqNtPrep();
  HqNtPrep(HqNtPrep&&) noexcept;
  HqNtPrep& operator=(HqNtPrep&&) noexcept;

  std::size_t n() const;          // B token rows
  std::int64_t sum_flops() const;

  struct Impl;
  const Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

// Σ a' per (row, group) of a row-axis quantized A, contiguous
// [row * group_count + group] — hoisted out of the tile loop so the per-tile
// correction never re-reduces the Q codes.
std::vector<std::int32_t> hq_a_row_sums(const QuantizedMatrix& a);

// Score tile: overwrites out[(i - r0) * (k_end - k_begin) + (j - k_begin)]
// with Eq. (4)(A·Bᵀ)[i, j] for rows [r0, r1) and B token rows
// [k_begin, k_end). `a_sums` is hq_a_row_sums(a). Bit-identical to the
// corresponding columns of a full hq_matmul_nt call.
void hq_nt_score_tile(const QuantizedMatrix& a, const HqNtPrep& prep,
                      std::span<const std::int32_t> a_sums, std::size_t r0,
                      std::size_t r1, std::size_t k_begin, std::size_t k_end,
                      float* out);

// Precomputed Σ b' per (segment, column) of one KV tile — shared across row
// bands and across the GQA query heads reading one KV head. Whole-group
// segments read the SumCache when given; boundary-cut segments (and every
// segment when `b_sums` is null, the RQE-off spliced store) are reduced from
// the codes once, with the add count recorded in sum_flops for SE-off
// accounting.
struct KvTileBSums {
  std::vector<std::int32_t> sums;  // [seg * b.cols + j]
  std::int64_t sum_flops = 0;
};
KvTileBSums kv_tile_b_sums(const QuantizedMatrix& b, const SumCache* b_sums,
                           std::span<const KvSegment> segments);

// P·V tile: accumulates out[i * b.cols + j] += Eq. (4)(A_tile ·
// B[k_begin:k_end, :]) where A_tile is a [rows x (k_end - k_begin)] code
// block (tile-relative columns) quantized per `segments`
// (= kv_tile_segments(k_begin, k_end, b.rows, b.pi)); `a_mins` / `a_scales` /
// `a_code_sums` are indexed [row * segments.size() + seg] and `b_seg_sums`
// is kv_tile_b_sums(b, ..., segments).
void hq_nn_tile_accumulate(const std::uint8_t* a_codes, std::size_t a_rows,
                           std::span<const float> a_mins,
                           std::span<const float> a_scales,
                           std::span<const std::int32_t> a_code_sums,
                           const QuantizedMatrix& b,
                           std::span<const KvSegment> segments,
                           std::span<const std::int32_t> b_seg_sums,
                           std::size_t k_begin, std::size_t k_end, float* out);

// The original scalar Eq. (4) triple loop (seed implementation), kept as the
// ground truth for randomized equivalence tests and as the baseline leg of
// the kernel microbenchmarks. Same contracts and HqStats accounting as the
// blocked engine.
Matrix hq_matmul_reference(const QuantizedMatrix& a, const QuantizedMatrix& b,
                           const SumCache* b_sums = nullptr,
                           HqStats* stats = nullptr);
Matrix hq_matmul_nt_reference(const QuantizedMatrix& a,
                              const QuantizedMatrix& b,
                              const SumCache* b_sums = nullptr,
                              HqStats* stats = nullptr);

}  // namespace hack
