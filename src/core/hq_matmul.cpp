#include "core/hq_matmul.h"

#include <algorithm>
#include <memory>

#include "base/thread_pool.h"
#include "core/int_gemm.h"
#include "quant/packed.h"

namespace hack {
namespace {

// Byte-per-code view of row r, unpacking into `scratch` when the matrix
// stores packed rows. Only the cold Σ b' recompute paths use this; the hot
// kernels consume packed rows directly.
const std::uint8_t* row_codes(const QuantizedMatrix& q, std::size_t r,
                              std::vector<std::uint8_t>& scratch) {
  if (!q.packed_storage()) return q.codes.data() + r * q.cols;
  const std::size_t stride = q.code_row_stride();
  scratch.resize(q.cols);
  unpack_codes(
      std::span<const std::uint8_t>(q.codes).subspan(r * stride, stride),
      q.storage_bits, q.cols, scratch.data());
  return scratch.data();
}

// Shared Eq. (4) engine. Layout differences between NN (P·V) and NT (Q·Kᵀ)
// are confined to the banded integer kernel and the Σ b' recompute loop,
// selected at compile time. The engine is split into a B-side preparation —
// reusable across every task that multiplies against the same B, e.g. GQA
// query heads sharing one KV head, and across every KV tile of a streaming
// pass — and a band processor that the single, batched, and tiled entry
// points dispatch over.

template <bool kNT>
void validate_operands(const QuantizedMatrix& a, const QuantizedMatrix& b) {
  HACK_CHECK(a.axis == QuantAxis::kRow, "A must be row-axis quantized");
  HACK_CHECK(a.bits >= 1 && b.bits >= 1, "operands must be quantized");
  HACK_CHECK(a.storage_bits == 8,
             "A (the transient Q/P operand) must use byte code storage");
  HACK_CHECK(b.storage_bits == 8 || b.storage_bits == b.bits,
             "B storage width " << b.storage_bits << " inconsistent with "
                                << b.bits << "-bit codes");
  HACK_CHECK(a.pi == b.pi, "partition size mismatch: " << a.pi << " vs "
                            << b.pi);
  if constexpr (kNT) {
    HACK_CHECK(b.axis == QuantAxis::kRow,
               "B must be row-axis quantized (token-per-row K layout)");
    HACK_CHECK(a.cols == b.cols, "hq_matmul_nt inner dim mismatch: " << a.cols
                                 << " vs " << b.cols);
  } else {
    HACK_CHECK(b.axis == QuantAxis::kCol, "B must be col-axis quantized");
    HACK_CHECK(a.cols == b.rows, "hq_matmul shape mismatch: " << a.rows << "x"
                                 << a.cols << " * " << b.rows << "x"
                                 << b.cols);
  }
}

// Hoisted per-(j, g) Eq. (4) factors and Σ b' for one B operand:
//   B1 = s_b, B2 = m_b, B3 = s_b·Σb' + |g|·m_b,
// group-major so the inner j-loop of the correction reads them contiguously.
template <bool kNT>
struct PreparedB {
  const QuantizedMatrix* b;
  const SumCache* b_sums;  // identity of the prep, for sharing across tasks
  std::size_t n;
  std::size_t z;
  PartitionScheme scheme;
  std::vector<float> b1, b2, b3;
  std::int64_t sum_flops = 0;  // NZ adds paid here when no SumCache was given

  PreparedB(const QuantizedMatrix& bm, const SumCache* sums)
      : b(&bm),
        b_sums(sums),
        n(kNT ? bm.rows : bm.cols),
        z(kNT ? bm.cols : bm.rows),
        scheme(z, bm.pi, /*allow_ragged_tail=*/true) {
    const std::size_t groups = scheme.group_count();
    HACK_CHECK(bm.group_count() == groups,
               "B group count mismatch: " << bm.group_count() << " vs "
                                          << groups);
    if (sums != nullptr) {
      HACK_CHECK(sums->outer() == n && sums->groups() == groups,
                 "SumCache does not match B");
    }

    // Σ b' per (j, g): read straight out of the SumCache's contiguous storage
    // (it uses the same outer-major layout) or recompute from the codes.
    std::vector<std::int32_t> b_col_sums_storage;
    const std::int32_t* b_col_sums = nullptr;
    if (sums != nullptr) {
      b_col_sums = sums->data();
    } else {
      b_col_sums_storage.assign(n * groups, 0);
      std::vector<std::uint8_t> scratch;
      if constexpr (kNT) {
        // B is N x Z: each (j, g) sum is a contiguous run of row j.
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint8_t* row = row_codes(bm, j, scratch);
          for (std::size_t g = 0; g < groups; ++g) {
            std::int32_t acc = 0;
            for (std::size_t zz = scheme.group_begin(g);
                 zz < scheme.group_end(g); ++zz) {
              acc += row[zz];
            }
            b_col_sums_storage[j * groups + g] = acc;
          }
        }
      } else {
        // B is Z x N: stream the rows, scattering into per-column slots.
        for (std::size_t g = 0; g < groups; ++g) {
          for (std::size_t zz = scheme.group_begin(g);
               zz < scheme.group_end(g); ++zz) {
            const std::uint8_t* row = row_codes(bm, zz, scratch);
            for (std::size_t j = 0; j < n; ++j) {
              b_col_sums_storage[j * groups + g] += row[j];
            }
          }
        }
      }
      b_col_sums = b_col_sums_storage.data();
      sum_flops = static_cast<std::int64_t>(n) * z;  // NZ adds
    }

    b1.resize(groups * n);
    b2.resize(groups * n);
    b3.resize(groups * n);
    for (std::size_t g = 0; g < groups; ++g) {
      const auto group_len = static_cast<float>(scheme.group_size(g));
      float* f1 = b1.data() + g * n;
      float* f2 = b2.data() + g * n;
      float* f3 = b3.data() + g * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float sb = bm.scales[j * groups + g];
        const float mb = bm.mins[j * groups + g];
        f1[j] = sb;
        f2[j] = mb;
        f3[j] = sb * static_cast<float>(b_col_sums[j * groups + g]) +
                group_len * mb;
      }
    }
  }
};

// One row band of C restricted to output columns [j0, j1): integer GEMM per
// group into a band-local int32 tile, then the vectorizable three-term
// correction
//   C[i,j] += A1·B1[j]·dot + A2·B2[j] + A3·B3[j]
// with A1 = s_a, A2 = s_a·Σa', A3 = m_a. `out` points at the band's first
// output row with leading dimension `ldc`; `a_sums_full`, when given, is the
// whole-matrix hq_a_row_sums(a) hoisted by a streaming caller (null =
// compute the band's Σ a' here). Every C row is produced entirely inside one
// band — and each output column value is independent of [j0, j1) — so
// results depend neither on the band decomposition nor on the tiling.
template <bool kNT>
void process_band(const QuantizedMatrix& a, const PreparedB<kNT>& pb,
                  const std::int32_t* a_sums_full, std::size_t r0,
                  std::size_t r1, std::size_t j0, std::size_t j1, float* out,
                  std::size_t ldc) {
  const std::size_t n_tile = j1 - j0;
  const std::size_t groups = pb.scheme.group_count();
  const CodeView a_codes{a.codes.data(), a.rows, a.cols, a.storage_bits};
  const CodeView b_codes{pb.b->codes.data(), pb.b->rows, pb.b->cols,
                         pb.b->storage_bits};
  if constexpr (!kNT) {
    HACK_CHECK(j0 == 0 && j1 == pb.n, "NN bands cover all output columns");
  }

  const std::size_t band = r1 - r0;
  // Σ a' per (band row, g): hoisted by the caller or computed from the
  // contiguous runs of each A row.
  std::vector<std::int32_t> a_sums_local;
  const std::int32_t* asum = a_sums_full;
  std::size_t asum_r0 = 0;
  if (asum == nullptr) {
    a_sums_local.assign(band * groups, 0);
    for (std::size_t i = r0; i < r1; ++i) {
      const std::uint8_t* row = a.codes.data() + i * a.cols;
      for (std::size_t g = 0; g < groups; ++g) {
        std::int32_t acc = 0;
        for (std::size_t zz = pb.scheme.group_begin(g);
             zz < pb.scheme.group_end(g); ++zz) {
          acc += row[zz];
        }
        a_sums_local[(i - r0) * groups + g] = acc;
      }
    }
    asum = a_sums_local.data();
    asum_r0 = r0;
  }

  std::vector<std::int32_t> dot(band * n_tile);
  for (std::size_t g = 0; g < groups; ++g) {
    std::fill(dot.begin(), dot.end(), 0);
    if constexpr (kNT) {
      int_gemm_nt_rows(a_codes, b_codes, r0, r1, pb.scheme.group_begin(g),
                       pb.scheme.group_end(g), dot.data(), pb.b->bits, j0, j1);
    } else {
      int_gemm_nn_rows(a_codes, b_codes, r0, r1, pb.scheme.group_begin(g),
                       pb.scheme.group_end(g), dot.data(), pb.b->bits);
    }
    const float* f1 = pb.b1.data() + g * pb.n + j0;
    const float* f2 = pb.b2.data() + g * pb.n + j0;
    const float* f3 = pb.b3.data() + g * pb.n + j0;
    for (std::size_t i = r0; i < r1; ++i) {
      const float sa = a.scales[i * groups + g];
      const float a2 =
          sa * static_cast<float>(asum[(i - asum_r0) * groups + g]);
      const float a3 = a.mins[i * groups + g];
      float* crow = out + (i - r0) * ldc;
      const std::int32_t* drow = dot.data() + (i - r0) * n_tile;
      for (std::size_t j = 0; j < n_tile; ++j) {
        crow[j] += sa * f1[j] * static_cast<float>(drow[j]) + a2 * f2[j] +
                   a3 * f3[j];
      }
    }
  }
}

// Cost accounting for one task (pinned by test_cost_model / test_hq_matmul):
//   MZ adds for Σ a', and 9MN for Eq. (4) — 2 for sa·sb·dot, 2+2 for the
//   two affine terms, 2 for Z·ma·mb, 3 adds folding the terms together.
void fill_stats(HqStats* stats, std::size_t m, std::size_t n, std::size_t z,
                std::int64_t sum_flops) {
  if (stats == nullptr) return;
  HqStats local{};
  local.sum_flops = sum_flops;
  local.approx_flops = static_cast<std::int64_t>(m) * z +
                       9 * static_cast<std::int64_t>(m) * n;
  local.int_macs = static_cast<std::int64_t>(m) * n * z;
  *stats = local;
}

template <bool kNT>
Matrix hq_matmul_single(const QuantizedMatrix& a, const QuantizedMatrix& b,
                        const SumCache* b_sums, HqStats* stats, int threads) {
  validate_operands<kNT>(a, b);
  const PreparedB<kNT> pb(b, b_sums);
  const std::size_t m = a.rows;
  HACK_CHECK(a.group_count() == pb.scheme.group_count(),
             "A group count mismatch");

  Matrix c(m, pb.n, 0.0f);
  float* c0 = c.flat().data();
  if (m == 1 || threads == 1) {
    // Decode GEMV fast path / explicit serial: no pool dispatch, the banded
    // kernels degrade to j-tiled dot loops over the single row.
    process_band<kNT>(a, pb, nullptr, 0, m, 0, pb.n, c0, pb.n);
  } else {
    ThreadPool& pool = ThreadPool::global();
    pool.parallel_for(m, chunks_for_request(threads, m, pool.lanes()),
                      [&](std::size_t r0, std::size_t r1) {
                        process_band<kNT>(a, pb, nullptr, r0, r1, 0, pb.n,
                                          c0 + r0 * pb.n, pb.n);
                      });
  }
  fill_stats(stats, m, pb.n, pb.z, pb.sum_flops);
  return c;
}

template <bool kNT>
void hq_matmul_batch(std::span<HqGemmTask> tasks, int threads) {
  if (tasks.empty()) return;

  // B-side preparation, shared across tasks with the same (b, b_sums) pair.
  std::vector<std::unique_ptr<PreparedB<kNT>>> preps;
  std::vector<std::size_t> prep_of(tasks.size());
  std::vector<bool> charges_sum_flops(tasks.size(), false);
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const HqGemmTask& task = tasks[t];
    HACK_CHECK(task.a != nullptr && task.b != nullptr && task.c != nullptr,
               "batched HQ-GEMM task missing an operand");
    validate_operands<kNT>(*task.a, *task.b);
    std::size_t found = preps.size();
    for (std::size_t p = 0; p < preps.size(); ++p) {
      if (preps[p]->b == task.b && preps[p]->b_sums == task.b_sums) {
        found = p;
        break;
      }
    }
    if (found == preps.size()) {
      preps.push_back(std::make_unique<PreparedB<kNT>>(*task.b, task.b_sums));
      charges_sum_flops[t] = true;  // first user pays the Σ b' recompute
    }
    prep_of[t] = found;
    HACK_CHECK(task.a->group_count() == preps[found]->scheme.group_count(),
               "A group count mismatch");
    *task.c = Matrix(task.a->rows, preps[found]->n, 0.0f);
  }

  // Work items: each task's M splits into row bands; single-row tasks (the
  // batched decode GEMV case) contribute exactly one item. The split depends
  // only on the requested thread count — and every C row lives entirely
  // inside one item — so results are independent of the actual pool size.
  ThreadPool& pool = ThreadPool::global();
  const std::size_t lanes =
      threads <= 0 ? pool.lanes() : static_cast<std::size_t>(threads);
  const std::size_t bands_per_task = std::max<std::size_t>(
      1, (2 * lanes + tasks.size() - 1) / tasks.size());

  struct Item {
    std::size_t task, r0, r1;
  };
  std::vector<Item> items;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const std::size_t m = tasks[t].a->rows;
    const std::size_t bands = std::min(m, bands_per_task);
    for (std::size_t band = 0; band < bands; ++band) {
      items.push_back({t, band * m / bands, (band + 1) * m / bands});
    }
  }

  const auto run_item = [&](std::size_t idx) {
    const Item& it = items[idx];
    const HqGemmTask& task = tasks[it.task];
    const PreparedB<kNT>& pb = *preps[prep_of[it.task]];
    process_band<kNT>(*task.a, pb, nullptr, it.r0, it.r1, 0, pb.n,
                      task.c->flat().data() + it.r0 * pb.n, pb.n);
  };
  if (threads == 1 || items.size() == 1) {
    for (std::size_t i = 0; i < items.size(); ++i) run_item(i);
  } else {
    // threads <= 0: one chunk per item, claimed dynamically, so a slow head
    // does not serialize the rest of the layer. threads = N: N contiguous
    // chunks, capping concurrency at the requested width.
    pool.parallel_for(items.size(),
                      chunks_for_request(threads, items.size(),
                                         /*auto_chunks=*/items.size()),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          run_item(i);
                        }
                      });
  }

  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const PreparedB<kNT>& pb = *preps[prep_of[t]];
    fill_stats(tasks[t].stats, tasks[t].a->rows, pb.n, pb.z,
               charges_sum_flops[t] ? pb.sum_flops : 0);
  }
}

}  // namespace

std::vector<KvSegment> kv_tile_segments(std::size_t k_begin, std::size_t k_end,
                                        std::size_t rows, std::size_t pi) {
  HACK_CHECK(pi > 0, "partition size must be positive");
  HACK_CHECK(k_begin <= k_end && k_end <= rows,
             "KV tile [" << k_begin << ", " << k_end << ") out of " << rows);
  std::vector<KvSegment> segs;
  std::size_t pos = k_begin;
  while (pos < k_end) {
    const std::size_t g = pos / pi;
    const std::size_t g_begin = g * pi;
    const std::size_t g_end = std::min(g_begin + pi, rows);
    const std::size_t end = std::min(g_end, k_end);
    segs.push_back({pos, end, g, pos == g_begin && end == g_end});
    pos = end;
  }
  return segs;
}

struct HqNtPrep::Impl {
  PreparedB<true> pb;
  Impl(const QuantizedMatrix& b, const SumCache* sums) : pb(b, sums) {}
};

HqNtPrep::HqNtPrep(const QuantizedMatrix& b, const SumCache* b_sums)
    : impl_(std::make_unique<Impl>(b, b_sums)) {}
HqNtPrep::~HqNtPrep() = default;
HqNtPrep::HqNtPrep(HqNtPrep&&) noexcept = default;
HqNtPrep& HqNtPrep::operator=(HqNtPrep&&) noexcept = default;
std::size_t HqNtPrep::n() const { return impl_->pb.n; }
std::int64_t HqNtPrep::sum_flops() const { return impl_->pb.sum_flops; }

std::vector<std::int32_t> hq_a_row_sums(const QuantizedMatrix& a) {
  HACK_CHECK(a.axis == QuantAxis::kRow, "A must be row-axis quantized");
  HACK_CHECK(a.storage_bits == 8, "A must use byte code storage");
  const PartitionScheme scheme(a.cols, a.pi, /*allow_ragged_tail=*/true);
  const std::size_t groups = scheme.group_count();
  HACK_CHECK(a.group_count() == groups, "A group count mismatch");
  std::vector<std::int32_t> sums(a.rows * groups, 0);
  for (std::size_t i = 0; i < a.rows; ++i) {
    const std::uint8_t* row = a.codes.data() + i * a.cols;
    for (std::size_t g = 0; g < groups; ++g) {
      std::int32_t acc = 0;
      for (std::size_t z = scheme.group_begin(g); z < scheme.group_end(g);
           ++z) {
        acc += row[z];
      }
      sums[i * groups + g] = acc;
    }
  }
  return sums;
}

void hq_nt_score_tile(const QuantizedMatrix& a, const HqNtPrep& prep,
                      std::span<const std::int32_t> a_sums, std::size_t r0,
                      std::size_t r1, std::size_t k_begin, std::size_t k_end,
                      float* out) {
  const PreparedB<true>& pb = prep.impl().pb;
  HACK_CHECK(k_begin <= k_end && k_end <= pb.n, "bad KV tile");
  HACK_CHECK(r0 <= r1 && r1 <= a.rows, "bad row band");
  HACK_CHECK(a_sums.size() == a.rows * pb.scheme.group_count(),
             "a_sums must be hq_a_row_sums(a)");
  const std::size_t tile = k_end - k_begin;
  std::fill(out, out + (r1 - r0) * tile, 0.0f);
  process_band<true>(a, pb, a_sums.data(), r0, r1, k_begin, k_end, out, tile);
}

KvTileBSums kv_tile_b_sums(const QuantizedMatrix& b, const SumCache* b_sums,
                           std::span<const KvSegment> segments) {
  HACK_CHECK(b.axis == QuantAxis::kCol, "B must be col-axis quantized");
  const std::size_t n = b.cols;
  KvTileBSums out;
  out.sums.assign(segments.size() * n, 0);
  for (std::size_t s = 0; s < segments.size(); ++s) {
    const KvSegment& seg = segments[s];
    HACK_CHECK(seg.end <= b.rows && seg.begin < seg.end, "bad segment");
    std::int32_t* dst = out.sums.data() + s * n;
    if (seg.whole_group && b_sums != nullptr) {
      HACK_CHECK(b_sums->outer() == n && seg.group < b_sums->groups(),
                 "SumCache does not match B");
      for (std::size_t j = 0; j < n; ++j) dst[j] = b_sums->sum(j, seg.group);
    } else {
      std::vector<std::uint8_t> scratch;
      for (std::size_t z = seg.begin; z < seg.end; ++z) {
        const std::uint8_t* row = row_codes(b, z, scratch);
        for (std::size_t j = 0; j < n; ++j) dst[j] += row[j];
      }
      out.sum_flops += static_cast<std::int64_t>(seg.end - seg.begin) * n;
    }
  }
  return out;
}

void hq_nn_tile_accumulate(const std::uint8_t* a_codes, std::size_t a_rows,
                           std::span<const float> a_mins,
                           std::span<const float> a_scales,
                           std::span<const std::int32_t> a_code_sums,
                           const QuantizedMatrix& b,
                           std::span<const KvSegment> segments,
                           std::span<const std::int32_t> b_seg_sums,
                           std::size_t k_begin, std::size_t k_end,
                           float* out) {
  HACK_CHECK(b.axis == QuantAxis::kCol, "B must be col-axis quantized");
  HACK_CHECK(k_begin <= k_end && k_end <= b.rows, "bad KV tile");
  const std::size_t n = b.cols;
  const std::size_t tile = k_end - k_begin;
  const std::size_t seg_count = segments.size();
  HACK_CHECK(a_mins.size() == a_rows * seg_count &&
                 a_scales.size() == a_rows * seg_count &&
                 a_code_sums.size() == a_rows * seg_count,
             "A metadata must be laid out per segment");
  HACK_CHECK(b_seg_sums.size() == seg_count * n,
             "b_seg_sums must be kv_tile_b_sums of the segments");
  const std::size_t b_groups = b.group_count();
  const CodeView av{a_codes, a_rows, tile};
  const CodeView bv{b.codes.data(), b.rows, b.cols, b.storage_bits};

  std::vector<std::int32_t> dot(a_rows * n);
  std::vector<float> f1(n), f2(n), f3(n);
  for (std::size_t s = 0; s < seg_count; ++s) {
    const KvSegment& seg = segments[s];
    HACK_CHECK(seg.begin >= k_begin && seg.end <= k_end && seg.begin < seg.end,
               "segment outside the tile");
    HACK_CHECK(seg.group < b_groups, "segment group out of range");
    const std::size_t len = seg.end - seg.begin;

    const std::int32_t* bsum = b_seg_sums.data() + s * n;
    const auto flen = static_cast<float>(len);
    for (std::size_t j = 0; j < n; ++j) {
      const float sb = b.scales[j * b_groups + seg.group];
      const float mb = b.mins[j * b_groups + seg.group];
      f1[j] = sb;
      f2[j] = mb;
      f3[j] = sb * static_cast<float>(bsum[j]) + flen * mb;
    }

    std::fill(dot.begin(), dot.end(), 0);
    int_gemm_nn_rows(av, bv, 0, a_rows, seg.begin - k_begin,
                     seg.end - k_begin, dot.data(), b.bits,
                     /*b_row_offset=*/k_begin);
    for (std::size_t i = 0; i < a_rows; ++i) {
      const float sa = a_scales[i * seg_count + s];
      const float ma = a_mins[i * seg_count + s];
      // Fully masked rows quantize to (0, 0, codes 0): their Eq. (4)
      // contribution is exactly zero, skip the axpy.
      if (sa == 0.0f && ma == 0.0f) continue;
      const float a2 = sa * static_cast<float>(a_code_sums[i * seg_count + s]);
      float* crow = out + i * n;
      const std::int32_t* drow = dot.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] += sa * f1[j] * static_cast<float>(drow[j]) + a2 * f2[j] +
                   ma * f3[j];
      }
    }
  }
}

Matrix hq_matmul(const QuantizedMatrix& a, const QuantizedMatrix& b,
                 const SumCache* b_sums, HqStats* stats, int threads) {
  return hq_matmul_single<false>(a, b, b_sums, stats, threads);
}

Matrix hq_matmul_nt(const QuantizedMatrix& a, const QuantizedMatrix& b,
                    const SumCache* b_sums, HqStats* stats, int threads) {
  return hq_matmul_single<true>(a, b, b_sums, stats, threads);
}

void hq_matmul_batched(std::span<HqGemmTask> tasks, int threads) {
  hq_matmul_batch<false>(tasks, threads);
}

void hq_matmul_nt_batched(std::span<HqGemmTask> tasks, int threads) {
  hq_matmul_batch<true>(tasks, threads);
}

}  // namespace hack
