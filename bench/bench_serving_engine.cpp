// End-to-end serving through the continuous-batching ServingEngine
// (serving/engine.h): requests from an open-loop arrival process (Poisson or
// trace replay) through the full tiny-transformer model with HACK batched
// layer backends. Pick one mode:
//
// `--continuous` serves the requests once as a serial per-request loop (FCFS,
// one TinyTransformer at a time) and once through the engine: one
// "serving_continuous" line per leg (tokens/s, decode tokens/s, TTFT / TBT /
// JCT percentiles, goodput) and a "serving_continuous_speedup" ratio line.
//
// `--tiered` serves them against a deliberately small KV block pool, once
// with the worst-case FCFS reservation ("fcfs") and once with the tiered KV
// memory manager ("tiered", kvcache/tier_manager.h: reserve-on-append
// admission, preemption to a compressed kv_wire far tier, speculative
// prefetch). Arrival stamps are zeroed so the swap schedule is
// deterministic. One "serving_tiered" line per leg (concurrency, evictions,
// prefetch hits, swap bytes and times) and a "serving_tiered_compare" line;
// both legs must reproduce an unconstrained reference run's tokens
// (bit_identical), or the binary exits 1. docs/serving.md and docs/perf.md
// describe the fields.
//
// Usage: bench_serving_engine --continuous|--tiered [--quick] ...; an
// unknown flag prints them all. --quick sets input 48 / output 12.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "base/thread_pool.h"
#include "metrics/stats.h"
#include "serving_bench.h"

namespace {

using namespace hack;
using namespace hack::bench;

// The engine's scheduler knobs, plus the KV pool size: 0 runs --continuous
// without admission control and sizes --tiered's pool from the workload.
struct EngineOptions {
  ServingEngineConfig ec;
  std::size_t kv_blocks = 0;
};

LayerBackendFactory make_backend(const Shape& shape) {
  return make_hack_layer_backend({.pi = shape.pi}, 7);
}

// Serves the requests on a fresh engine over a KV pool of `pool_blocks`
// accounting blocks (0: no admission control), each the FP16 K+V bytes of
// block_tokens tokens across all layers and KV heads.
ServingReport serve(const std::shared_ptr<const TinyModelWeights>& weights,
                    const Shape& shape, const ServingEngineConfig& ec,
                    std::size_t pool_blocks,
                    const std::vector<ServingRequest>& requests) {
  std::optional<BlockAllocator> pool;
  if (pool_blocks > 0) {
    pool.emplace(pool_blocks, ec.scheduler.block_tokens * shape.kv_heads *
                                  shape.d_head * 2 * 2 *
                                  weights->config().layers);
  }
  ServingEngine engine(weights, [&shape] { return make_backend(shape); }, ec,
                       pool ? &*pool : nullptr);
  for (const ServingRequest& req : requests) engine.submit(req);
  return engine.run();
}

// ------------------------------------------------- continuous serving mode

// The pre-engine serving loop: one request at a time, FCFS. Service times
// are measured wall-clock; queueing is accounted on a virtual timeline from
// the arrival stamps, exactly like a single-worker queue. Reported in the
// engine's report shape (one request running at a time, no mixed steps).
ServingReport run_serial_leg(const std::shared_ptr<const TinyModelWeights>& w,
                             const Shape& shape,
                             std::vector<ServingRequest> requests) {
  std::sort(requests.begin(), requests.end(),
            [](const ServingRequest& a, const ServingRequest& b) {
              return a.arrival_time_s < b.arrival_time_s;
            });
  ServingReport leg;
  leg.engine.peak_running = 1;
  std::vector<double> ttft, tbt, jct;
  double cursor = 0.0;
  for (const ServingRequest& req : requests) {
    TinyTransformer model(w, make_backend(shape));
    int token = 0;
    const double prefill_s = time_s([&] {  // includes the first token
      token = argmax_logits(model.prefill(req.prompt));
    });
    std::size_t generated = 1;
    double decode_s = 0.0;
    while (generated < req.max_new_tokens) {
      const double step =
          time_s([&] { token = argmax_logits(model.decode_step(token)); });
      decode_s += step;
      tbt.push_back(step);
      ++generated;
    }
    const double start = std::max(req.arrival_time_s, cursor);
    ttft.push_back(start + prefill_s - req.arrival_time_s);
    jct.push_back(start + prefill_s + decode_s - req.arrival_time_s);
    cursor = start + prefill_s + decode_s;
    leg.decode_time_s += decode_s;
    leg.total_generated += generated;
  }
  // Every request's first token comes from its prefill.
  const double decode_tokens =
      static_cast<double>(leg.total_generated - requests.size());
  leg.makespan_s = cursor;
  leg.decode_tokens_per_s = ratio(decode_tokens, leg.decode_time_s);
  leg.pure_decode_tokens_per_s = leg.decode_tokens_per_s;
  leg.tokens_per_s = ratio(static_cast<double>(leg.total_generated), cursor);
  leg.goodput_rps = ratio(static_cast<double>(requests.size()), cursor);
  leg.ttft_s = compute_stats(std::move(ttft));
  if (!tbt.empty()) leg.tbt_s = compute_stats(std::move(tbt));
  leg.jct_s = compute_stats(std::move(jct));
  return leg;
}

void print_continuous_leg(const char* mode, const Shape& shape,
                          const Workload& w, const EngineOptions& o,
                          const ServingReport& leg, double weights_mib) {
  std::printf(
      "{\"bench\":\"serving_continuous\",\"mode\":\"%s\",\"requests\":%zu,"
      "\"heads\":%zu,\"kv_heads\":%zu,\"d_head\":%zu,\"layers\":%zu,"
      "\"input_mean\":%zu,\"output_mean\":%zu,\"arrival\":\"%s\","
      "\"max_active\":%zu,\"chunk\":%zu,\"lanes\":%zu,"
      "\"decode_tokens_per_s\":%.1f,\"pure_decode_tokens_per_s\":%.1f,"
      "\"tokens_per_s\":%.1f,"
      "\"goodput_rps\":%.2f,\"makespan_s\":%.3f,\"total_tokens\":%zu,"
      "\"ttft_p50_s\":%.4f,\"ttft_p90_s\":%.4f,\"ttft_p99_s\":%.4f,"
      "\"tbt_p50_s\":%.4f,\"tbt_p99_s\":%.4f,"
      "\"jct_p50_s\":%.4f,\"jct_p99_s\":%.4f,"
      "\"peak_running\":%zu,\"kv_bytes_admitted\":%zu,"
      "\"weights_mib\":%.1f}\n",
      mode, w.requests, shape.heads, shape.kv_heads, shape.d_head, w.layers,
      w.input, w.output, w.arrival.c_str(), o.ec.scheduler.max_active,
      o.ec.scheduler.prefill_chunk_tokens,
      ThreadPool::global().lanes(), leg.decode_tokens_per_s,
      leg.pure_decode_tokens_per_s, leg.tokens_per_s, leg.goodput_rps,
      leg.makespan_s, leg.total_generated, leg.ttft_s.p50, leg.ttft_s.p90,
      leg.ttft_s.p99, leg.tbt_s.p50, leg.tbt_s.p99, leg.jct_s.p50,
      leg.jct_s.p99, leg.engine.peak_running, leg.engine.kv_bytes_admitted,
      weights_mib);
  std::fflush(stdout);
}

void run_continuous_mode(const Shape& shape, const Workload& w,
                         const EngineOptions& o) {
  const auto weights = make_weights(shape, w.layers);
  const double weights_mib =
      static_cast<double>(weights->weight_bytes()) / (1024.0 * 1024.0);
  const auto requests = make_requests(w);

  const ServingReport serial = run_serial_leg(weights, shape, requests);
  print_continuous_leg("serial", shape, w, o, serial, weights_mib);

  const ServingReport cont =
      serve(weights, shape, o.ec, o.kv_blocks, requests);
  print_continuous_leg("continuous", shape, w, o, cont, weights_mib);

  std::printf(
      "{\"bench\":\"serving_continuous_speedup\",\"lanes\":%zu,"
      "\"decode_speedup\":%.2f,\"pure_decode_speedup\":%.2f,"
      "\"tokens_speedup\":%.2f,"
      "\"jct_p50_speedup\":%.2f,\"ttft_p50_ratio\":%.2f}\n",
      ThreadPool::global().lanes(),
      ratio(cont.decode_tokens_per_s, serial.decode_tokens_per_s),
      ratio(cont.pure_decode_tokens_per_s, serial.pure_decode_tokens_per_s),
      ratio(cont.tokens_per_s, serial.tokens_per_s),
      ratio(serial.jct_s.p50, cont.jct_s.p50),
      ratio(cont.ttft_s.p50, serial.ttft_s.p50));
  std::fflush(stdout);
}

// ---------------------------------------------------- tiered KV memory mode

std::size_t count_finished(const ServingReport& report) {
  return std::count_if(report.requests.begin(), report.requests.end(),
                       [](const ServingRecord& rec) {
                         return rec.state == RequestState::kFinished;
                       });
}

bool tokens_match(const ServingReport& a, const ServingReport& b) {
  return std::equal(
      a.requests.begin(), a.requests.end(), b.requests.begin(),
      b.requests.end(), [](const ServingRecord& x, const ServingRecord& y) {
        return x.generated == y.generated;
      });
}

void print_tiered_leg(const char* mode, const Shape& shape, const Workload& w,
                      const EngineOptions& o, const ServingReport& report,
                      std::size_t pool_blocks) {
  const KvTierStats& t = report.engine.tier;
  std::printf(
      "{\"bench\":\"serving_tiered\",\"mode\":\"%s\",\"requests\":%zu,"
      "\"heads\":%zu,\"kv_heads\":%zu,\"d_head\":%zu,\"layers\":%zu,"
      "\"input_mean\":%zu,\"output_mean\":%zu,\"chunk\":%zu,"
      "\"pool_blocks\":%zu,\"max_active\":%zu,"
      "\"completed\":%zu,\"rejected\":%zu,\"peak_running\":%zu,"
      "\"total_tokens\":%zu,\"makespan_s\":%.3f,"
      "\"tokens_per_s\":%.1f,\"decode_tokens_per_s\":%.1f,"
      "\"goodput_rps\":%.2f,\"ttft_p50_s\":%.4f,\"jct_p50_s\":%.4f,"
      "\"evictions\":%zu,\"rehydrations\":%zu,"
      "\"prefetch_hits\":%zu,\"prefetch_misses\":%zu,"
      "\"swap_out_bytes\":%zu,\"swap_in_bytes\":%zu,\"far_bytes_peak\":%zu,"
      "\"swap_in_work_ms\":%.2f,\"swap_in_stall_ms\":%.2f,"
      "\"swap_events\":%zu}\n",
      mode, w.requests, shape.heads, shape.kv_heads, shape.d_head, w.layers,
      w.input, w.output, o.ec.scheduler.prefill_chunk_tokens, pool_blocks,
      o.ec.scheduler.max_active,
      count_finished(report), report.engine.rejected,
      report.engine.peak_running, report.total_generated, report.makespan_s,
      report.tokens_per_s, report.decode_tokens_per_s, report.goodput_rps,
      report.ttft_s.p50, report.jct_s.p50, t.evictions, t.rehydrations,
      t.prefetch_hits, t.prefetch_misses, t.bytes_swapped_out,
      t.bytes_swapped_in, t.far_bytes_peak, t.swap_in_work_s * 1e3,
      t.swap_in_stall_s * 1e3, report.engine.swap_events.size());
  std::fflush(stdout);
}

// Returns whether both constrained legs reproduced the reference tokens.
bool run_tiered_mode(const Shape& shape, const Workload& w,
                     const EngineOptions& o) {
  const auto weights = make_weights(shape, w.layers);
  std::vector<ServingRequest> requests = make_requests(w);
  // The arrival process only shapes the workload here; stamps are zeroed so
  // every request is visible at t=0. That makes admission order — and with
  // it the whole evict/resume/prefetch schedule — a pure function of the
  // submissions (docs/serving.md "Tiered KV memory"), so the leg is
  // bitwise-replayable and the prefetcher's projection is exact.
  for (ServingRequest& req : requests) req.arrival_time_s = 0.0;

  const std::size_t block_tokens = o.ec.scheduler.block_tokens;
  std::size_t max_worst = 0, sum_worst = 0;
  for (const ServingRequest& req : requests) {
    const std::size_t tokens = req.prompt.size() + req.max_new_tokens;
    const std::size_t blocks = (tokens + block_tokens - 1) / block_tokens;
    max_worst = std::max(max_worst, blocks);
    sum_worst += blocks;
  }
  // Default pool: barely above the largest single request's worst case, so
  // every request is admissible alone (no rejections) but the worst-case
  // FCFS reservation can only co-resident a strict subset — the regime the
  // tiered manager exists for. --kv-blocks overrides.
  const std::size_t pool_blocks =
      o.kv_blocks > 0 ? o.kv_blocks : max_worst + 2;

  std::printf("tiered KV serving: %zu requests (%s shapes, arrivals zeroed),"
              " pool %zu blocks (worst-case demand %zu, largest request %zu),"
              " chunk %zu, pool lanes %zu\n",
              w.requests, w.arrival.c_str(), pool_blocks, sum_worst,
              max_worst, o.ec.scheduler.prefill_chunk_tokens,
              ThreadPool::global().lanes());

  // Reference: unconstrained untiered run. Engine tokens are batch- and
  // schedule-invariant for a fixed chunk config, so both constrained legs
  // below must reproduce these tokens bit-for-bit.
  const ServingReport ref = serve(weights, shape, o.ec, 0, requests);
  const ServingReport fcfs = serve(weights, shape, o.ec, pool_blocks, requests);
  print_tiered_leg("fcfs", shape, w, o, fcfs, pool_blocks);

  ServingEngineConfig tc = o.ec;
  tc.scheduler.tiered = true;
  const ServingReport tiered = serve(weights, shape, tc, pool_blocks, requests);
  print_tiered_leg("tiered", shape, w, o, tiered, pool_blocks);

  const bool bit_identical =
      tokens_match(fcfs, ref) && tokens_match(tiered, ref);
  const KvTierStats& t = tiered.engine.tier;
  // Overlap: of the swap-in deserialize work, the fraction hidden behind
  // step compute by the prefetcher (stall is what the engine actually
  // waited). No swap-ins at all means nothing to hide.
  const double overlap_ratio =
      t.swap_in_work_s > 0.0
          ? std::max(0.0, (t.swap_in_work_s - t.swap_in_stall_s) /
                              t.swap_in_work_s)
          : 1.0;
  std::printf(
      "{\"bench\":\"serving_tiered_compare\",\"requests\":%zu,"
      "\"pool_blocks\":%zu,\"fcfs_peak_running\":%zu,"
      "\"tiered_peak_running\":%zu,\"concurrency_gain\":%.2f,"
      "\"fcfs_completed\":%zu,\"tiered_completed\":%zu,"
      "\"jct_p50_ratio\":%.2f,\"evictions\":%zu,\"prefetch_hits\":%zu,"
      "\"prefetch_overlap_ratio\":%.3f,\"prefetch_overlap_ge_half\":%s,"
      "\"bit_identical\":%s}\n",
      w.requests, pool_blocks, fcfs.engine.peak_running,
      tiered.engine.peak_running,
      ratio(static_cast<double>(tiered.engine.peak_running),
            static_cast<double>(fcfs.engine.peak_running)),
      count_finished(fcfs), count_finished(tiered),
      ratio(fcfs.jct_s.p50, tiered.jct_s.p50),
      t.evictions, t.prefetch_hits, overlap_ratio,
      overlap_ratio >= 0.5 ? "true" : "false",
      bit_identical ? "true" : "false");
  std::fflush(stdout);
  return bit_identical;
}

enum Mode { kNone, kContinuous, kTiered };

}  // namespace

int main(int argc, char** argv) {
  Shape shape;
  Workload w;
  EngineOptions o;
  int mode = kNone;
  const auto pick = [&mode](int picked) {
    return [&mode, picked] {
      if (mode != kNone) fail("pick one mode: --continuous or --tiered");
      mode = picked;
    };
  };
  Flags flags;
  flags.toggle("--continuous", pick(kContinuous));
  flags.toggle("--tiered", pick(kTiered));
  flags.toggle("--quick", [&w] {
    w.input = 48;  // requests stay as given: concurrency is the point
    w.output = 12;
  });
  add_workload_flags(flags, shape, w);
  flags.size("--max-active", &o.ec.scheduler.max_active);
  flags.size("--chunk", &o.ec.scheduler.prefill_chunk_tokens);
  flags.size("--kv-blocks", &o.kv_blocks);
  flags.parse(argc, argv);
  check_workload(shape, w);
  if (mode == kNone) fail("pick a mode: --continuous or --tiered");

  if (mode == kContinuous) run_continuous_mode(shape, w, o);
  if (mode == kTiered && !run_tiered_mode(shape, w, o)) {
    fail("tiered swapping changed tokens");
  }
  return 0;
}
