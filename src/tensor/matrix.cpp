#include "tensor/matrix.h"

#include <algorithm>
#include <array>

#include "base/thread_pool.h"
#include "tensor/half.h"

namespace hack {

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols, Rng& rng,
                              float lo, float hi) {
  HACK_CHECK(lo <= hi, "invalid uniform range");
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = lo + (hi - lo) * rng.next_float();
  }
  return m;
}

Matrix Matrix::random_gaussian(std::size_t rows, std::size_t cols, Rng& rng,
                               float stddev) {
  // Two passes give the serial loop's bits in parallel. Pass 1 walks the
  // stream serially with skip_gaussian() (cheap: no transcendentals) and
  // records the generator state at each chunk start; pass 2 fills the
  // chunks on the pool, each from its recorded state. The caller's rng ends
  // where the serial loop would leave it.
  constexpr std::size_t kChunk = std::size_t{1} << 14;
  Matrix m(rows, cols);
  const std::size_t n = m.data_.size();
  std::vector<std::array<std::uint64_t, 4>> starts;
  starts.reserve((n + kChunk - 1) / kChunk);
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    starts.push_back(rng.state());
    const std::size_t end = std::min(n, begin + kChunk);
    for (std::size_t i = begin; i < end; ++i) rng.skip_gaussian();
  }
  ThreadPool::global().parallel_for(
      starts.size(), [&](std::size_t c0, std::size_t c1) {
        Rng chunk_rng;
        for (std::size_t c = c0; c < c1; ++c) {
          chunk_rng.set_state(starts[c]);
          const std::size_t end = std::min(n, (c + 1) * kChunk);
          for (std::size_t i = c * kChunk; i < end; ++i) {
            m.data_[i] = stddev * static_cast<float>(chunk_rng.next_gaussian());
          }
        }
      });
  return m;
}

void Matrix::round_to_fp16() {
  for (float& v : data_) {
    v = fp16_round(v);
  }
}

Matrix Tensor3::slice(std::size_t i) const {
  HACK_CHECK(i < d0_, "slice " << i << " out of " << d0_);
  Matrix m(d1_, d2_);
  for (std::size_t j = 0; j < d1_; ++j) {
    for (std::size_t k = 0; k < d2_; ++k) {
      m(j, k) = (*this)(i, j, k);
    }
  }
  return m;
}

void Tensor3::set_slice(std::size_t i, const Matrix& m) {
  HACK_CHECK(i < d0_, "slice " << i << " out of " << d0_);
  HACK_CHECK(m.rows() == d1_ && m.cols() == d2_, "slice shape mismatch");
  for (std::size_t j = 0; j < d1_; ++j) {
    for (std::size_t k = 0; k < d2_; ++k) {
      (*this)(i, j, k) = m(j, k);
    }
  }
}

}  // namespace hack
