// Kernel microbenchmarks (google-benchmark): the primitive costs behind the
// paper's argument. The headline comparison is HQ_MatmulDecode vs
// DequantThenMatmulDecode — computing on quantized KV versus the baselines'
// dequantize-first path, at decode shapes (single query row, long KV).
//
// Before the google-benchmark suite runs, main() emits a JSON line per
// layout and integer-GEMM arm this CPU runs, comparing the seed scalar
// HQ-GEMM (hq_matmul_reference) against the blocked engine at 1 thread and
// at full parallelism, at prefill shapes — the old-vs-new speedup lands in
// the bench trajectory as {"bench":"hq_gemm_prefill","layout":...,
// "isa":...,"lanes":...,"speedup_blocked_1t":...,...} — then the packed
// decode GEMV legs, again once per arm.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>

#include "attention/flash.h"
#include "attention/hack_attention.h"
#include "attention/reference.h"
#include "base/thread_pool.h"
#include "codec/cachegen.h"
#include "codec/kvquant.h"
#include "core/hq_matmul.h"
#include "core/int_gemm.h"
#include "quant/packed.h"
#include "quant/quantizer.h"
#include "tensor/ops.h"

namespace {

using namespace hack;

void BM_Quantize2Bit(benchmark::State& state) {
  const auto tokens = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix m = Matrix::random_gaussian(tokens, 128, rng);
  Rng qrng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        quantize(m, 2, 64, QuantAxis::kRow, Rounding::kStochastic, qrng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.size()));
}
BENCHMARK(BM_Quantize2Bit)->Arg(256)->Arg(1024);

void BM_Dequantize(benchmark::State& state) {
  const auto tokens = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Matrix m = Matrix::random_gaussian(tokens, 128, rng);
  Rng qrng(4);
  const QuantizedMatrix q =
      quantize(m, 2, 64, QuantAxis::kRow, Rounding::kStochastic, qrng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dequantize(q));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(m.size()));
}
BENCHMARK(BM_Dequantize)->Arg(256)->Arg(1024);

void BM_PackUnpack2Bit(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::uint8_t> codes(1 << 16);
  for (auto& c : codes) c = static_cast<std::uint8_t>(rng.next_below(4));
  for (auto _ : state) {
    const PackedBits packed = PackedBits::pack(codes, 2);
    benchmark::DoNotOptimize(packed.unpack());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(codes.size()));
}
BENCHMARK(BM_PackUnpack2Bit);

// Decode-shape comparison: S = q · Kᵀ with L cached keys.
void BM_HqMatmulDecode(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Matrix q = Matrix::random_gaussian(1, 128, rng);
  const Matrix k = Matrix::random_gaussian(l, 128, rng);
  Rng q1(7), q2(8);
  const QuantizedMatrix qq =
      quantize(q, 8, 64, QuantAxis::kRow, Rounding::kStochastic, q1);
  const QuantizedMatrix qk =
      quantize(k, 2, 64, QuantAxis::kRow, Rounding::kStochastic, q2);
  const SumCache sums = SumCache::build(qk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hq_matmul_nt(qq, qk, &sums));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(l));
}
BENCHMARK(BM_HqMatmulDecode)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_DequantThenMatmulDecode(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  const Matrix q = Matrix::random_gaussian(1, 128, rng);
  const Matrix k = Matrix::random_gaussian(l, 128, rng);
  Rng q2(10);
  const QuantizedMatrix qk =
      quantize(k, 2, 64, QuantAxis::kRow, Rounding::kStochastic, q2);
  for (auto _ : state) {
    const Matrix k_restored = dequantize(qk);  // the per-iteration dequant
    benchmark::DoNotOptimize(matmul_nt(q, k_restored));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(l));
}
BENCHMARK(BM_DequantThenMatmulDecode)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FlashAttention(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  Rng rng(11);
  const Matrix q = Matrix::random_gaussian(1, 128, rng);
  const Matrix k = Matrix::random_gaussian(l, 128, rng);
  const Matrix v = Matrix::random_gaussian(l, 128, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attention_flash(
        q, k, v, {.causal = true, .key_offset = l - 1, .tile_tokens = 64}));
  }
}
BENCHMARK(BM_FlashAttention)->Arg(1024)->Arg(4096);

void BM_HackAttentionDecodeStep(benchmark::State& state) {
  const auto l = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  HackAttentionConfig config;
  config.pi = 64;
  HackKvState kv(128, config);
  kv.append_tokens(Matrix::random_gaussian(l, 128, rng),
                   Matrix::random_gaussian(l, 128, rng), rng);
  const Matrix q = Matrix::random_gaussian(1, 128, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hack_attention(
        q, kv, {.causal = true, .key_offset = kv.tokens() - 1}, rng));
  }
}
BENCHMARK(BM_HackAttentionDecodeStep)->Arg(1024)->Arg(4096);

void BM_CacheGenEncode(benchmark::State& state) {
  Rng rng(13);
  const Matrix chunk = Matrix::random_gaussian(256, 128, rng);
  const CacheGenCodec codec;
  Rng qrng(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(chunk, KvKind::kKey, qrng));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_CacheGenEncode);

void BM_CacheGenDecode(benchmark::State& state) {
  Rng rng(15);
  const Matrix chunk = Matrix::random_gaussian(256, 128, rng);
  const CacheGenCodec codec;
  Rng qrng(16);
  const auto blob = codec.encode(chunk, KvKind::kKey, qrng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(blob));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_CacheGenDecode);

void BM_KvQuantRoundTrip(benchmark::State& state) {
  Rng rng(17);
  const Matrix chunk = Matrix::random_gaussian(256, 128, rng);
  const KvQuantCodec codec;
  Rng qrng(18);
  for (auto _ : state) {
    const auto blob = codec.encode(chunk, KvKind::kKey, qrng);
    benchmark::DoNotOptimize(codec.decode(blob));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chunk.size()));
}
BENCHMARK(BM_KvQuantRoundTrip);

// --- Prefill-shape HQ-GEMM: seed scalar path vs the blocked engine. --------

struct PrefillOperands {
  QuantizedMatrix a;      // 8-bit row-axis P/Q operand, M x Z
  QuantizedMatrix b_col;  // 2-bit col-axis V operand, Z x N
  QuantizedMatrix b_row;  // 2-bit row-axis K operand, N x Z
};

PrefillOperands make_prefill_operands(std::size_t m, std::size_t z,
                                      std::size_t n, std::size_t pi) {
  Rng rng(42);
  const Matrix a = Matrix::random_gaussian(m, z, rng);
  const Matrix b = Matrix::random_gaussian(z, n, rng);
  const Matrix bt = transpose(b);
  Rng q1(43), q2(44), q3(45);
  PrefillOperands ops;
  ops.a = quantize(a, 8, pi, QuantAxis::kRow, Rounding::kStochastic, q1);
  ops.b_col = quantize(b, 2, pi, QuantAxis::kCol, Rounding::kStochastic, q2);
  ops.b_row = quantize(bt, 2, pi, QuantAxis::kRow, Rounding::kStochastic, q3);
  return ops;
}

void BM_HqGemmPrefillScalarNn(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const PrefillOperands ops = make_prefill_operands(dim, 128, dim, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hq_matmul_reference(ops.a, ops.b_col));
  }
}
BENCHMARK(BM_HqGemmPrefillScalarNn)->Arg(256)->Arg(512);

void BM_HqGemmPrefillBlockedNn(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  const PrefillOperands ops = make_prefill_operands(dim, 128, dim, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hq_matmul(ops.a, ops.b_col, nullptr, nullptr, threads));
  }
}
BENCHMARK(BM_HqGemmPrefillBlockedNn)
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({512, 0});  // 0 = all lanes of the global pool

void BM_HqGemmPrefillScalarNt(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const PrefillOperands ops = make_prefill_operands(dim, 128, dim, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hq_matmul_nt_reference(ops.a, ops.b_row));
  }
}
BENCHMARK(BM_HqGemmPrefillScalarNt)->Arg(256)->Arg(512);

void BM_HqGemmPrefillBlockedNt(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  const PrefillOperands ops = make_prefill_operands(dim, 128, dim, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hq_matmul_nt(ops.a, ops.b_row, nullptr, nullptr, threads));
  }
}
BENCHMARK(BM_HqGemmPrefillBlockedNt)
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({512, 0});

// Best-of-reps wall time of `fn`, in milliseconds.
double time_best_ms(const std::function<void()>& fn, int reps) {
  fn();  // warm up caches and the thread pool
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (ms < best) best = ms;
  }
  return best;
}

// The integer-GEMM arms this CPU runs, narrowest first, with the ISA name
// each JSON line carries (`"isa"`).
struct IsaArm {
  IntGemmArm arm;
  const char* isa;
};

std::vector<IsaArm> supported_int_gemm_arms() {
  std::vector<IsaArm> arms;
  for (const IsaArm a : {IsaArm{IntGemmArm::kPortable, "portable"},
                         IsaArm{IntGemmArm::kAvx2, "avx2"},
                         IsaArm{IntGemmArm::kVnni, "avx512_vnni"}}) {
    if (int_gemm_cap_arm(a.arm) == a.arm) arms.push_back(a);
  }
  int_gemm_cap_arm(IntGemmArm::kVnni);
  return arms;
}

// The headline old-vs-new numbers, one JSON object per layout and arm.
void print_hq_gemm_comparison_json(const IsaArm& arm) {
  const std::size_t m = 512, z = 128, n = 512, pi = 64;
  const PrefillOperands ops = make_prefill_operands(m, z, n, pi);
  const std::size_t lanes = ThreadPool::global().lanes();
  const int reps = 3;
  int_gemm_cap_arm(arm.arm);

  const struct {
    const char* layout;
    std::function<Matrix()> scalar, blocked_1t, blocked_mt;
  } legs[] = {
      {"nn",
       [&] { return hq_matmul_reference(ops.a, ops.b_col); },
       [&] { return hq_matmul(ops.a, ops.b_col, nullptr, nullptr, 1); },
       [&] { return hq_matmul(ops.a, ops.b_col, nullptr, nullptr, 0); }},
      {"nt",
       [&] { return hq_matmul_nt_reference(ops.a, ops.b_row); },
       [&] { return hq_matmul_nt(ops.a, ops.b_row, nullptr, nullptr, 1); },
       [&] { return hq_matmul_nt(ops.a, ops.b_row, nullptr, nullptr, 0); }},
  };
  for (const auto& leg : legs) {
    Matrix sink;
    const double scalar_ms =
        time_best_ms([&] { sink = leg.scalar(); }, reps);
    const double blocked_1t_ms =
        time_best_ms([&] { sink = leg.blocked_1t(); }, reps);
    const double blocked_mt_ms =
        time_best_ms([&] { sink = leg.blocked_mt(); }, reps);
    benchmark::DoNotOptimize(sink);
    std::printf(
        "{\"bench\":\"hq_gemm_prefill\",\"layout\":\"%s\",\"isa\":\"%s\","
        "\"lanes\":%zu,\"m\":%zu,\"n\":%zu,\"z\":%zu,\"pi\":%zu,"
        "\"a_bits\":8,\"b_bits\":2,\"threads\":%zu,\"scalar_ms\":%.3f,"
        "\"blocked_1t_ms\":%.3f,\"blocked_mt_ms\":%.3f,"
        "\"speedup_blocked_1t\":%.2f,\"speedup_blocked_mt\":%.2f}\n",
        leg.layout, arm.isa, lanes, m, n, z, pi, lanes, scalar_ms,
        blocked_1t_ms, blocked_mt_ms, scalar_ms / blocked_1t_ms,
        scalar_ms / blocked_mt_ms);
  }
  int_gemm_cap_arm(IntGemmArm::kVnni);
  std::fflush(stdout);
}

// --- Packed-resident decode GEMV vs unpack-first. ---------------------------

// One decode step's score GEMV (q · Kᵀ, NT) and value GEMV (p · V, NN) over a
// packed-resident cache, against the unpack-first alternative: expand the
// packed plane to bytes, then run the same byte-storage kernel. The packed
// kernels expand codes in-register, so the gap is the memory traffic of the
// materialized byte plane — the tentpole claim.
void BM_PackedGemvDecodeNt(benchmark::State& state) {
  const auto bits = static_cast<int>(state.range(0));
  const auto l = static_cast<std::size_t>(state.range(1));
  Rng rng(19);
  const Matrix q = Matrix::random_gaussian(1, 128, rng);
  const Matrix k = Matrix::random_gaussian(l, 128, rng);
  Rng q1(20), q2(21);
  const QuantizedMatrix qq =
      quantize(q, 8, 64, QuantAxis::kRow, Rounding::kStochastic, q1);
  QuantizedMatrix qk =
      quantize(k, bits, 64, QuantAxis::kRow, Rounding::kStochastic, q2);
  pack_storage(qk);
  const SumCache sums = SumCache::build(qk);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hq_matmul_nt(qq, qk, &sums, nullptr, 1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(l));
}
BENCHMARK(BM_PackedGemvDecodeNt)
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Args({8, 4096});

void BM_UnpackFirstGemvDecodeNt(benchmark::State& state) {
  const auto bits = static_cast<int>(state.range(0));
  const auto l = static_cast<std::size_t>(state.range(1));
  Rng rng(22);
  const Matrix q = Matrix::random_gaussian(1, 128, rng);
  const Matrix k = Matrix::random_gaussian(l, 128, rng);
  Rng q1(23), q2(24);
  const QuantizedMatrix qq =
      quantize(q, 8, 64, QuantAxis::kRow, Rounding::kStochastic, q1);
  QuantizedMatrix qk =
      quantize(k, bits, 64, QuantAxis::kRow, Rounding::kStochastic, q2);
  pack_storage(qk);
  const SumCache sums = SumCache::build(qk);
  for (auto _ : state) {
    QuantizedMatrix expanded = qk;  // the per-step unpack the kernels avoid
    unpack_storage(expanded);
    benchmark::DoNotOptimize(hq_matmul_nt(qq, expanded, &sums, nullptr, 1));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(l));
}
BENCHMARK(BM_UnpackFirstGemvDecodeNt)
    ->Args({2, 4096})
    ->Args({4, 4096})
    ->Args({8, 4096});

// The headline packed-vs-unpack-first numbers: one JSON line per
// (mode, kv_bits, arm) at a long decode context, single thread.
void print_packed_gemm_comparison_json(const IsaArm& arm) {
  const std::size_t l = 8192, d = 128, pi = 64;
  const std::size_t lanes = ThreadPool::global().lanes();
  int_gemm_cap_arm(arm.arm);
  Rng rng(60);
  const Matrix qrow = Matrix::random_gaussian(1, d, rng);
  const Matrix k = Matrix::random_gaussian(l, d, rng);
  const Matrix v = Matrix::random_gaussian(l, d, rng);
  const Matrix prow = Matrix::random_gaussian(1, l, rng);
  // Best-of-9 per leg: the gated metric is a ratio of two timings, so each
  // side needs a stable floor or the trend step sees noise as regression.
  const int reps = 9;

  for (const int bits : {2, 4, 8}) {
    Rng q1(61), q2(62), q3(63), q4(64);
    const QuantizedMatrix qq =
        quantize(qrow, 8, pi, QuantAxis::kRow, Rounding::kStochastic, q1);
    QuantizedMatrix qk =
        quantize(k, bits, pi, QuantAxis::kRow, Rounding::kStochastic, q2);
    pack_storage(qk);
    const SumCache k_sums = SumCache::build(qk);
    const QuantizedMatrix pq =
        quantize(prow, 8, pi, QuantAxis::kRow, Rounding::kStochastic, q3);
    QuantizedMatrix qv =
        quantize(v, bits, pi, QuantAxis::kCol, Rounding::kStochastic, q4);
    pack_storage(qv);
    const SumCache v_sums = SumCache::build(qv);

    const struct {
      const char* mode;
      std::function<Matrix()> packed, unpack_first;
    } legs[] = {
        {"nt", [&] { return hq_matmul_nt(qq, qk, &k_sums, nullptr, 1); },
         [&] {
           QuantizedMatrix e = qk;
           unpack_storage(e);
           return hq_matmul_nt(qq, e, &k_sums, nullptr, 1);
         }},
        {"nn", [&] { return hq_matmul(pq, qv, &v_sums, nullptr, 1); },
         [&] {
           QuantizedMatrix e = qv;
           unpack_storage(e);
           return hq_matmul(pq, e, &v_sums, nullptr, 1);
         }},
    };
    for (const auto& leg : legs) {
      Matrix sink;
      const double packed_ms =
          time_best_ms([&] { sink = leg.packed(); }, reps);
      const double unpack_ms =
          time_best_ms([&] { sink = leg.unpack_first(); }, reps);
      benchmark::DoNotOptimize(sink);
      std::printf(
          "{\"bench\":\"packed_gemm_decode\",\"mode\":\"%s\",\"kv_bits\":%d,"
          "\"isa\":\"%s\",\"lanes\":%zu,\"context\":%zu,\"d_head\":%zu,"
          "\"pi\":%zu,\"threads\":1,\"packed_ms\":%.3f,"
          "\"unpack_first_ms\":%.3f,\"speedup\":%.2f,"
          "\"tokens_per_s\":%.0f}\n",
          leg.mode, bits, arm.isa, lanes, l, d, pi, packed_ms, unpack_ms,
          unpack_ms / packed_ms, static_cast<double>(l) / (packed_ms * 1e-3));
    }
  }
  int_gemm_cap_arm(IntGemmArm::kVnni);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<IsaArm> arms = supported_int_gemm_arms();
  for (const IsaArm& arm : arms) print_hq_gemm_comparison_json(arm);
  for (const IsaArm& arm : arms) print_packed_gemm_comparison_json(arm);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
