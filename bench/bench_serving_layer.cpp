// Serving-shape throughput of one batched multi-head HQ-attention layer at
// realistic GQA shapes (default 32 query heads over 8 KV heads, d_head 128):
// one HackLayerKvState batched launch against the pre-batching per-head loop
// (append per KV head, then one hack_attention per query head). One
// "serving_layer_prefill" and one "serving_layer_decode" line per (context,
// threads) leg, with batched_ms, batched_tokens_per_s, per_head_1t_ms — the
// serial per-head loop at threads=1, what one layer cost before batching —
// and speedup_vs_per_head_1t, which folds in both the head-level
// parallelism (bounded by `lanes`, the pool's size) and the fused launch.
//
// `--long` runs the streaming-softmax long-context sweep instead (default
// ctx 4096/16384, auto threads): one "serving_longctx_prefill" line per
// context with the best of 5 tiled prefills' tokens/s, its KV tile width,
// the layer's int_macs and quantized_values, and the process's peak RSS.
//
// Usage: bench_serving_layer [--quick] [--long] [--context=1024,4096]
//          [--threads=1,2,4] [--heads=32] [--kv-heads=8]
//   --quick shrinks to context 512 / threads {1,2} for CI smoke runs.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include <sys/resource.h>

#include "attention/hack_attention.h"
#include "attention/layer_attention.h"
#include "base/thread_pool.h"
#include "serving_bench.h"
#include "tensor/ops.h"

namespace {

using namespace hack;
using namespace hack::bench;

struct Inputs {
  Matrix q_all, k_all, v_all;
};

Inputs make_inputs(const Shape& s, std::size_t tokens, std::uint64_t seed) {
  Rng rng(seed);
  return {Matrix::random_gaussian(tokens, s.heads * s.d_head, rng),
          Matrix::random_gaussian(tokens, s.kv_heads * s.d_head, rng),
          Matrix::random_gaussian(tokens, s.kv_heads * s.d_head, rng)};
}

HackAttentionConfig make_config(const Shape& s, std::size_t threads) {
  return {.pi = s.pi, .threads = static_cast<int>(threads)};
}

double time_best_ms(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, 1e3 * time_s(fn));
  return best;
}

// The pre-batching model path for one layer: per-KV-head states appended and
// attended in a serial query-head loop.
struct PerHeadLayer {
  Shape shape;
  std::vector<HackKvState> states;
  std::vector<Rng> rngs;

  PerHeadLayer(const Shape& s, const HackAttentionConfig& cfg,
               std::uint64_t seed)
      : shape(s) {
    for (std::size_t h = 0; h < s.kv_heads; ++h) {
      states.emplace_back(s.d_head, cfg);
      rngs.emplace_back(seed + h);
    }
  }

  void append(const Inputs& in) {
    const std::size_t d = shape.d_head;
    for (std::size_t h = 0; h < shape.kv_heads; ++h) {
      states[h].append_tokens(take_cols(in.k_all, h * d, (h + 1) * d),
                              take_cols(in.v_all, h * d, (h + 1) * d),
                              rngs[h]);
    }
  }

  void attend(const Inputs& in, std::size_t key_offset) {
    const std::size_t d = shape.d_head;
    const std::size_t group = shape.heads / shape.kv_heads;
    for (std::size_t g = 0; g < shape.kv_heads; ++g) {
      for (std::size_t sub = 0; sub < group; ++sub) {
        const std::size_t head = g * group + sub;
        (void)hack_attention(take_cols(in.q_all, head * d, (head + 1) * d),
                             states[g],
                             {.causal = true, .key_offset = key_offset},
                             rngs[g]);
      }
    }
  }
};

void run_prefill_legs(const Shape& shape, std::size_t context,
                      const std::vector<std::size_t>& thread_legs) {
  const Inputs in = make_inputs(shape, context, 1234);
  const int reps = context >= 2048 ? 1 : 2;
  const std::size_t lanes = ThreadPool::global().lanes();

  // Serial per-head baseline, measured once per context.
  const HackAttentionConfig cfg_1t = make_config(shape, 1);
  const double per_head_1t_ms = time_best_ms(
      [&] {
        PerHeadLayer layer(shape, cfg_1t, 7);
        layer.append(in);
        layer.attend(in, 0);
      },
      reps);

  std::size_t wire_bytes = 0;
  std::size_t resident_code_bytes = 0;
  for (const std::size_t threads : thread_legs) {
    const HackAttentionConfig cfg = make_config(shape, threads);
    const double batched_ms = time_best_ms(
        [&] {
          HackLayerKvState layer(shape.d_head, shape.kv_heads, shape.heads,
                                 cfg, 7);
          (void)layer.prefill(in.q_all, in.k_all, in.v_all);
          wire_bytes = layer.wire_bytes();
          resident_code_bytes = layer.resident_code_bytes();
        },
        reps);
    // The code planes are bit-packed in memory; the unpacked figure is what
    // the same planes held when resident storage was one byte per code.
    const std::size_t unpacked_code_bytes =
        resident_code_bytes * 8 / static_cast<std::size_t>(cfg.kv_bits);
    std::printf(
        "{\"bench\":\"serving_layer_prefill\",\"heads\":%zu,\"kv_heads\":%zu,"
        "\"d_head\":%zu,\"pi\":%zu,\"context\":%zu,\"threads\":%zu,"
        "\"lanes\":%zu,\"batched_ms\":%.2f,\"per_head_1t_ms\":%.2f,"
        "\"batched_tokens_per_s\":%.1f,\"speedup_vs_per_head_1t\":%.2f,"
        "\"wire_bytes\":%zu,\"resident_code_bytes\":%zu,"
        "\"unpacked_code_bytes\":%zu}\n",
        shape.heads, shape.kv_heads, shape.d_head, shape.pi, context, threads,
        lanes, batched_ms, per_head_1t_ms,
        1000.0 * static_cast<double>(context) / batched_ms,
        per_head_1t_ms / batched_ms, wire_bytes, resident_code_bytes,
        unpacked_code_bytes);
    std::fflush(stdout);
  }
}

void run_decode_legs(const Shape& shape, std::size_t context,
                     const std::vector<std::size_t>& thread_legs) {
  const std::size_t steps = 16;
  const std::size_t lanes = ThreadPool::global().lanes();

  // Per-head baseline: prefill untimed, then `steps` single-token decodes.
  const Inputs prompt = make_inputs(shape, context, 1234);
  const HackAttentionConfig cfg_1t = make_config(shape, 1);
  PerHeadLayer per_head(shape, cfg_1t, 7);
  per_head.append(prompt);
  std::vector<Inputs> tokens;
  for (std::size_t t = 0; t < steps; ++t) {
    tokens.push_back(make_inputs(shape, 1, 9000 + t));
  }
  const double per_head_1t_ms = 1e3 * time_s([&] {
    for (std::size_t t = 0; t < steps; ++t) {
      per_head.append(tokens[t]);
      per_head.attend(tokens[t], per_head.states[0].tokens() - 1);
    }
  }) / static_cast<double>(steps);

  for (const std::size_t threads : thread_legs) {
    const HackAttentionConfig cfg = make_config(shape, threads);
    HackLayerKvState layer(shape.d_head, shape.kv_heads, shape.heads, cfg, 7);
    (void)layer.prefill(prompt.q_all, prompt.k_all, prompt.v_all);
    const double batched_ms = 1e3 * time_s([&] {
      for (const Inputs& token : tokens) {
        (void)layer.decode_step(token.q_all, token.k_all, token.v_all);
      }
    }) / static_cast<double>(steps);
    std::printf(
        "{\"bench\":\"serving_layer_decode\",\"heads\":%zu,\"kv_heads\":%zu,"
        "\"d_head\":%zu,\"pi\":%zu,\"context\":%zu,\"threads\":%zu,"
        "\"lanes\":%zu,\"batched_ms\":%.3f,\"per_head_1t_ms\":%.3f,"
        "\"batched_tokens_per_s\":%.1f,\"speedup_vs_per_head_1t\":%.2f}\n",
        shape.heads, shape.kv_heads, shape.d_head, shape.pi, context, threads,
        lanes, batched_ms, per_head_1t_ms, 1000.0 / batched_ms,
        per_head_1t_ms / batched_ms);
    std::fflush(stdout);
  }
}

double peak_rss_mib() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Long-context streaming prefill: the best of kLongReps tiled prefills, the
// layer's work counters (the same every rep) and the process's peak RSS.
void run_longctx_legs(const Shape& shape,
                      const std::vector<std::size_t>& contexts) {
  constexpr int kLongReps = 5;
  const std::size_t lanes = ThreadPool::global().lanes();
  for (const std::size_t context : contexts) {
    const Inputs in = make_inputs(shape, context, 1234);
    const HackAttentionConfig cfg = make_config(shape, /*threads=*/0);
    HackAttnStats stats{};
    const double batched_ms = time_best_ms(
        [&] {
          HackLayerKvState layer(shape.d_head, shape.kv_heads, shape.heads,
                                 cfg, 7);
          stats = HackAttnStats{};
          (void)layer.prefill(in.q_all, in.k_all, in.v_all, &stats);
        },
        kLongReps);
    std::printf(
        "{\"bench\":\"serving_longctx_prefill\",\"heads\":%zu,"
        "\"kv_heads\":%zu,\"d_head\":%zu,\"pi\":%zu,\"context\":%zu,"
        "\"lanes\":%zu,\"tile\":%zu,\"reps\":%d,\"batched_ms\":%.2f,"
        "\"batched_tokens_per_s\":%.1f,\"int_macs\":%lld,"
        "\"quantized_values\":%lld,\"peak_rss_mib\":%.1f}\n",
        shape.heads, shape.kv_heads, shape.d_head, shape.pi, context, lanes,
        attention_tile_tokens(cfg, context), kLongReps, batched_ms,
        1000.0 * static_cast<double>(context) / batched_ms,
        static_cast<long long>(stats.int_macs),
        static_cast<long long>(stats.quantized_values), peak_rss_mib());
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Shape shape;
  std::vector<std::size_t> contexts;  // empty: the mode's default sweep
  std::vector<std::size_t> threads = {1, 2, 4};
  bool long_sweep = false;
  Flags flags;
  flags.toggle("--long", [&long_sweep] { long_sweep = true; });
  flags.toggle("--quick", [&] {
    contexts = {512};
    threads = {1, 2};
  });
  flags.sizes("--context", &contexts);
  flags.sizes("--threads", &threads);
  flags.size("--heads", &shape.heads);
  flags.size("--kv-heads", &shape.kv_heads);
  flags.parse(argc, argv);
  check_shape(shape);

  if (long_sweep) {
    if (contexts.empty()) contexts = {4096, 16384};
    run_longctx_legs(shape, contexts);
    return 0;
  }
  if (contexts.empty()) contexts = {1024, 4096};
  for (const std::size_t context : contexts) {
    run_prefill_legs(shape, context, threads);
    run_decode_legs(shape, context, threads);
  }
  return 0;
}
