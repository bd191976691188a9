// Dense FP32 kernels. This file is built with -ffp-contract=off (see
// CMakeLists.txt): matmul's contract is a multiply rounded to float, then an
// add, for every term, and a contracted multiply-add would round once.
#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <utility>

#include "base/thread_pool.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define HACK_X86_SIMD 1
#include <immintrin.h>
#endif

namespace hack {
namespace {

// In auto mode a product splits over the pool only while each lane gets at
// least this many MACs (~10-30 us of work), so small products stay on the
// caller.
inline constexpr std::size_t kMinMacsPerLane = std::size_t{1} << 17;

// Column panels are whole multiples of one AVX-512 vector, so only the
// last panel has a masked tail.
inline constexpr std::size_t kColumnUnit = 16;

// MAC count above which matmul_nt splits its output rows over the pool.
inline constexpr std::size_t kParallelNtMinMacs = std::size_t{1} << 21;

std::atomic<MatmulArm> g_arm_cap{MatmulArm::kAvx512};

// The scalar ikj loop over output columns [j0, j1): the portable arm, and
// every arm's unsplit single-row GEMV. Each element sums k = 0..z-1 in
// order; zero a(i,k) are skipped.
[[gnu::always_inline]] inline void ikj_panel(const Matrix& a, const Matrix& b,
                                             Matrix& c, std::size_t j0,
                                             std::size_t j1) {
  const std::size_t z = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    float* __restrict crow = c.row(i).data();
    for (std::size_t k = 0; k < z; ++k) {
      const float aik = a(i, k);
      if (aik == 0.0f) continue;
      const float* __restrict brow = b.row(k).data();
      for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
    }
  }
}

#ifdef HACK_X86_SIMD

MatmulArm cpu_arm() {
  static const MatmulArm arm = __builtin_cpu_supports("avx512f")
                                   ? MatmulArm::kAvx512
                               : __builtin_cpu_supports("avx2")
                                   ? MatmulArm::kAvx2
                                   : MatmulArm::kPortable;
  return arm;
}

__attribute__((target("avx2"))) void ikj_panel_avx2(
    const Matrix& a, const Matrix& b, Matrix& c, std::size_t j0,
    std::size_t j1) {
  ikj_panel(a, b, c, j0, j1);
}

__attribute__((target("avx512f"))) void ikj_panel_avx512(
    const Matrix& a, const Matrix& b, Matrix& c, std::size_t j0,
    std::size_t j1) {
  ikj_panel(a, b, c, j0, j1);
}

// Register-tiled arms for M >= 2. A tile is up to kTileRows rows of C by
// NV vectors of columns, held in registers across one k block of B rows;
// C keeps the partial sums between k blocks, so each element still adds
// its products in k order.
inline constexpr std::size_t kTileRows = 6;
inline constexpr std::size_t kKBlock = 256;

struct Tile {
  const float* a;  // A at (tile's first row, block's first k)
  std::size_t lda;
  const float* b;  // B at (block's first k, tile's first column)
  std::size_t ldb;
  float* c;  // C at (tile's first row, tile's first column)
  std::size_t ldc;
  std::size_t kc;    // k steps in the block
  std::size_t tail;  // live columns in the tile's last vector (1..width)
};

using TileFn = void (*)(const Tile&);

// The unroll pragmas make GCC unroll the r/v loops before it assigns
// registers; without them it keeps the accumulators in registers but also
// stores every one to the stack on each k step.
template <int R, int NV>
__attribute__((target("avx512f"))) void tile_avx512(const Tile& t) {
  const auto last = static_cast<__mmask16>((1u << t.tail) - 1);
  const float* const a = t.a;
  const float* const b = t.b;
  float* const c = t.c;
  const std::size_t lda = t.lda, ldb = t.ldb, ldc = t.ldc, kc = t.kc;
  __m512 acc[R][NV];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v + 1 < NV; ++v) {
      acc[r][v] = _mm512_loadu_ps(c + r * ldc + 16 * v);
    }
    acc[r][NV - 1] = _mm512_maskz_loadu_ps(last, c + r * ldc + 16 * (NV - 1));
  }
  for (std::size_t k = 0; k < kc; ++k) {
    __m512 bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v + 1 < NV; ++v) bv[v] = _mm512_loadu_ps(b + k * ldb + 16 * v);
    bv[NV - 1] = _mm512_maskz_loadu_ps(last, b + k * ldb + 16 * (NV - 1));
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * lda + k]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v + 1 < NV; ++v) {
      _mm512_storeu_ps(c + r * ldc + 16 * v, acc[r][v]);
    }
    _mm512_mask_storeu_ps(c + r * ldc + 16 * (NV - 1), last, acc[r][NV - 1]);
  }
}

template <int R, int NV>
__attribute__((target("avx2"))) void tile_avx2(const Tile& t) {
  const __m256i last =
      _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(t.tail)),
                         _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  const float* const a = t.a;
  const float* const b = t.b;
  float* const c = t.c;
  const std::size_t lda = t.lda, ldb = t.ldb, ldc = t.ldc, kc = t.kc;
  __m256 acc[R][NV];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v + 1 < NV; ++v) {
      acc[r][v] = _mm256_loadu_ps(c + r * ldc + 8 * v);
    }
    acc[r][NV - 1] = _mm256_maskload_ps(c + r * ldc + 8 * (NV - 1), last);
  }
  for (std::size_t k = 0; k < kc; ++k) {
    __m256 bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v + 1 < NV; ++v) bv[v] = _mm256_loadu_ps(b + k * ldb + 8 * v);
    bv[NV - 1] = _mm256_maskload_ps(b + k * ldb + 8 * (NV - 1), last);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * lda + k]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int v = 0; v + 1 < NV; ++v) {
      _mm256_storeu_ps(c + r * ldc + 8 * v, acc[r][v]);
    }
    _mm256_maskstore_ps(c + r * ldc + 8 * (NV - 1), last, acc[r][NV - 1]);
  }
}

// One arm's tile kernels, indexed [rows - 1][vectors - 1].
struct TileArm {
  std::size_t width;    // floats per vector
  std::size_t vectors;  // vectors per tile row
  const TileFn* tiles;
};

template <std::size_t... I>
constexpr std::array<TileFn, sizeof...(I)> avx512_tiles(
    std::index_sequence<I...>) {
  return {&tile_avx512<static_cast<int>(I / 4) + 1,
                       static_cast<int>(I % 4) + 1>...};
}

template <std::size_t... I>
constexpr std::array<TileFn, sizeof...(I)> avx2_tiles(
    std::index_sequence<I...>) {
  return {&tile_avx2<static_cast<int>(I / 2) + 1,
                     static_cast<int>(I % 2) + 1>...};
}

constexpr auto kAvx512Tiles =
    avx512_tiles(std::make_index_sequence<kTileRows * 4>());
constexpr auto kAvx2Tiles = avx2_tiles(std::make_index_sequence<kTileRows * 2>());
constexpr TileArm kAvx512Arm{16, 4, kAvx512Tiles.data()};
constexpr TileArm kAvx2Arm{8, 2, kAvx2Tiles.data()};

// Output columns [j0, j1) of C = A * B through one arm's register tiles:
// k blocks outermost, then column tiles, then row strips, so a tile's k
// block of B stays in cache across every row strip.
void tile_panel(const TileArm& arm, const Matrix& a, const Matrix& b,
                Matrix& c, std::size_t j0, std::size_t j1) {
  const std::size_t m = a.rows(), z = a.cols(), n = b.cols();
  const std::size_t tile_cols = arm.width * arm.vectors;
  for (std::size_t k0 = 0; k0 < z; k0 += kKBlock) {
    const std::size_t kc = std::min(kKBlock, z - k0);
    for (std::size_t j = j0; j < j1; j += tile_cols) {
      const std::size_t cols = std::min(tile_cols, j1 - j);
      const std::size_t nv = (cols + arm.width - 1) / arm.width;
      for (std::size_t i = 0; i < m; i += kTileRows) {
        const std::size_t rows = std::min(kTileRows, m - i);
        arm.tiles[(rows - 1) * arm.vectors + nv - 1](
            {a.flat().data() + i * z + k0, z, b.flat().data() + k0 * n + j, n,
             c.flat().data() + i * n + j, n, kc, cols - (nv - 1) * arm.width});
      }
    }
  }
}

#else  // !HACK_X86_SIMD

MatmulArm cpu_arm() { return MatmulArm::kPortable; }

#endif  // HACK_X86_SIMD

MatmulArm active_arm() {
  return std::min(cpu_arm(), g_arm_cap.load(std::memory_order_relaxed));
}

// Output columns [j0, j1) of C = A * B on `arm`. A single-row product
// that one lane runs whole streams B row by row (ikj); split into column
// panels, each lane runs the register tile, which on a 4-lane AVX-512 host
// was 2-3x faster than the ikj loop over the same panel.
void matmul_panel(MatmulArm arm, const Matrix& a, const Matrix& b, Matrix& c,
                  std::size_t j0, std::size_t j1) {
#ifdef HACK_X86_SIMD
  const bool gemv = a.rows() == 1 && j1 - j0 == b.cols();
  switch (arm) {
    case MatmulArm::kAvx512:
      if (gemv) return ikj_panel_avx512(a, b, c, j0, j1);
      return tile_panel(kAvx512Arm, a, b, c, j0, j1);
    case MatmulArm::kAvx2:
      if (gemv) return ikj_panel_avx2(a, b, c, j0, j1);
      return tile_panel(kAvx2Arm, a, b, c, j0, j1);
    case MatmulArm::kPortable:
      break;
  }
#endif
  ikj_panel(a, b, c, j0, j1);
}

}  // namespace

MatmulArm matmul_cap_arm(MatmulArm cap) {
  g_arm_cap.store(cap, std::memory_order_relaxed);
  return active_arm();
}

Matrix matmul(const Matrix& a, const Matrix& b, int threads) {
  HACK_CHECK(a.cols() == b.rows(), "matmul shape mismatch: " << a.rows() << "x"
                                   << a.cols() << " * " << b.rows() << "x"
                                   << b.cols());
  const std::size_t m = a.rows(), z = a.cols(), n = b.cols();
  Matrix c(m, n);
  const MatmulArm arm = active_arm();
  const std::size_t units = (n + kColumnUnit - 1) / kColumnUnit;
  ThreadPool& pool = ThreadPool::global();
  const std::size_t panels =
      threads <= 0 ? std::min({pool.lanes(), units, m * z * n / kMinMacsPerLane})
                   : chunks_for_request(threads, units, pool.lanes());
  if (panels <= 1) {
    matmul_panel(arm, a, b, c, 0, n);
  } else {
    pool.parallel_for(units, panels, [&](std::size_t u0, std::size_t u1) {
      matmul_panel(arm, a, b, c, u0 * kColumnUnit,
                   std::min(n, u1 * kColumnUnit));
    });
  }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  HACK_CHECK(a.cols() == b.cols(), "matmul_nt inner dim mismatch: "
                                   << a.cols() << " vs " << b.cols());
  const std::size_t m = a.rows(), z = a.cols(), n = b.rows();
  Matrix c(m, n);
  const auto rows = [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < z; ++k) {
          acc += a(i, k) * b(j, k);
        }
        c(i, j) = acc;
      }
    }
  };
  if (m <= 1 || m * z * n < kParallelNtMinMacs) {
    rows(0, m);
  } else {
    ThreadPool::global().parallel_for(m, rows);
  }
  return c;
}

Matrix transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      t(j, i) = a(i, j);
    }
  }
  return t;
}

Matrix softmax_rows(const Matrix& scores) {
  Matrix p(scores.rows(), scores.cols());
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const auto row = scores.row(i);
    const float row_max = *std::max_element(row.begin(), row.end());
    float denom = 0.0f;
    for (std::size_t j = 0; j < scores.cols(); ++j) {
      const float e = std::exp(scores(i, j) - row_max);
      p(i, j) = e;
      denom += e;
    }
    for (std::size_t j = 0; j < scores.cols(); ++j) {
      p(i, j) /= denom;
    }
  }
  return p;
}

Matrix softmax_rows_causal(const Matrix& scores, std::size_t key_offset) {
  Matrix p(scores.rows(), scores.cols(), 0.0f);
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const std::size_t valid = std::min(scores.cols(), key_offset + i + 1);
    HACK_CHECK(valid > 0, "causal row with no visible keys");
    float row_max = scores(i, 0);
    for (std::size_t j = 1; j < valid; ++j) {
      row_max = std::max(row_max, scores(i, j));
    }
    float denom = 0.0f;
    for (std::size_t j = 0; j < valid; ++j) {
      const float e = std::exp(scores(i, j) - row_max);
      p(i, j) = e;
      denom += e;
    }
    for (std::size_t j = 0; j < valid; ++j) {
      p(i, j) /= denom;
    }
  }
  return p;
}

Matrix add(const Matrix& a, const Matrix& b) {
  HACK_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "add shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.flat()[i] = a.flat()[i] + b.flat()[i];
  }
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  HACK_CHECK(a.rows() == b.rows() && a.cols() == b.cols(), "sub shape mismatch");
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.flat()[i] = a.flat()[i] - b.flat()[i];
  }
  return c;
}

Matrix scale(const Matrix& a, float alpha) {
  Matrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    c.flat()[i] = alpha * a.flat()[i];
  }
  return c;
}

Matrix vstack(const Matrix& base, const Matrix& extra) {
  if (base.empty()) return extra;
  HACK_CHECK(base.cols() == extra.cols(), "vstack column mismatch");
  Matrix c(base.rows() + extra.rows(), base.cols());
  std::copy(base.flat().begin(), base.flat().end(), c.flat().begin());
  std::copy(extra.flat().begin(), extra.flat().end(),
            c.flat().begin() + static_cast<std::ptrdiff_t>(base.size()));
  return c;
}

Matrix take_rows(const Matrix& a, std::size_t begin, std::size_t end) {
  HACK_CHECK(begin <= end && end <= a.rows(), "take_rows range invalid");
  Matrix c(end - begin, a.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const auto src = a.row(i);
    std::copy(src.begin(), src.end(), c.row(i - begin).begin());
  }
  return c;
}

Matrix take_cols(const Matrix& a, std::size_t begin, std::size_t end) {
  HACK_CHECK(begin <= end && end <= a.cols(), "take_cols range invalid");
  Matrix c(a.rows(), end - begin);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = begin; j < end; ++j) {
      c(i, j - begin) = a(i, j);
    }
  }
  return c;
}

}  // namespace hack
