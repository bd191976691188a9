// Disaggregated serving scenario: Llama-3.1 70B serving a long-context
// information-retrieval workload (Cocktail), prefill on an A10G fleet and
// decode on A100s — the paper's default testbed (§7.1).
//
// Part 1 runs the discrete-event cluster simulator once per method and prints
// the JCT decomposition, showing where HACK's wins come from: compressed KV
// transfers, INT8 prefill, and the eliminated per-iteration dequantization.
//
// Part 2 exercises the per-layer path a real deployment runs: one batched
// HackLayerKvState per transformer layer (Llama-3.1 70B GQA geometry, 64
// query heads over 8 KV heads, d_head 128). The wire bytes it reports are
// *serialized*, not modeled: the layer's KV state — packed 2-bit codes, FP16
// (m, s) metadata, SE sums, the RQE FP16 tail, and the RNG stream positions
// — goes through the versioned KV wire format (kvcache/kv_wire.h) and the
// blob's actual size rides the netsim NCCL-style pipelined transfer for the
// printed duration. The latencies are the measured cost of one batched
// prefill and decode step on this machine.
//
// Part 3 runs the continuous-batching serving engine end to end: one shared
// TinyModelWeights instance, a handful of requests arriving staggered on an
// open-loop timeline, iteration-level scheduling (all decode rows + one
// bounded prefill chunk per step), KV-block admission control, and fused
// cross-sequence HACK attention. Per-request TTFT/JCT are measured, not
// modeled. (A reduced GQA geometry keeps the example's weight generation
// quick; the bench sweeps the full 32Q/8KV d_head-128 serving shape.)
//
// Part 4 splits that engine across the worker boundary: a 1×1 FleetEngine
// (serving/fleet.h) prefills each request on one worker, ships the
// serialized KV blob over the netsim link, rehydrates it on the decode
// worker, and finishes decoding bit-identically to the single-node run —
// the check is printed per request, and the example exits non-zero if any
// stream differs.
//
// Build & run:  ./build/disaggregated_serving
#include <chrono>
#include <cstdio>

#include "attention/layer_attention.h"
#include "base/thread_pool.h"
#include "cluster/simulator.h"
#include "kvcache/kv_wire.h"
#include "metrics/report.h"
#include "model/tiny_transformer.h"
#include "netsim/transfer.h"
#include "serving/engine.h"
#include "serving/fleet.h"
#include "tensor/matrix.h"
#include "workload/corpus.h"

using namespace hack;

namespace {

double elapsed_ms(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void per_layer_batched_path() {
  const std::size_t heads = 64, kv_heads = 8, d_head = 128;  // Llama-3.1 70B
  const std::size_t context = 1024;
  HackAttentionConfig cfg;  // paper defaults: Π=64, 8-bit Q/P, 2-bit KV

  Rng rng(2025);
  const Matrix q = Matrix::random_gaussian(context, heads * d_head, rng);
  const Matrix k = Matrix::random_gaussian(context, kv_heads * d_head, rng);
  const Matrix v = Matrix::random_gaussian(context, kv_heads * d_head, rng);

  HackLayerKvState layer(d_head, kv_heads, heads, cfg, 7);
  auto start = std::chrono::steady_clock::now();
  (void)layer.prefill(q, k, v);
  const double prefill_ms = elapsed_ms(start);

  const Matrix q1 = Matrix::random_gaussian(1, heads * d_head, rng);
  const Matrix k1 = Matrix::random_gaussian(1, kv_heads * d_head, rng);
  const Matrix v1 = Matrix::random_gaussian(1, kv_heads * d_head, rng);
  start = std::chrono::steady_clock::now();
  (void)layer.decode_step(q1, k1, v1);
  const double decode_ms = elapsed_ms(start);

  const double fp16_bytes =
      2.0 * 2.0 * static_cast<double>(context) * kv_heads * d_head;

  // Serialize the layer through the real wire format: the byte count below
  // is the blob a prefill worker ships, not the analytical model.
  HackLayerKvState* layers[] = {&layer};
  KvWireSections sections;
  start = std::chrono::steady_clock::now();
  const auto blob = serialize_kv_wire(layers, &sections);
  const double serialize_ms = elapsed_ms(start);

  // ...and ride it over the paper's testbed link (A10G prefill → A100
  // decode, 100 Gbps NICs) with the NCCL-style pipelined transfer.
  Nic prefill_nic(100.0), decode_nic(100.0);
  const TransferResult transfer = nccl_transfer(
      prefill_nic, decode_nic, /*ready_time=*/0.0,
      static_cast<double>(blob.size()),
      kv_wire_transfer_chunks(blob.size(), /*chunk_bytes=*/1 << 20));

  Table t("Per-layer batched path (64 Q heads / 8 KV heads, d_head 128, "
          "1024-token context)");
  t.header({"metric", "value"});
  t.row({"prefill latency (all heads, one launch)", fmt(prefill_ms, 1) + " ms"});
  t.row({"prefill throughput",
         fmt(1000.0 * static_cast<double>(context) / prefill_ms, 0) +
             " tok/s/layer"});
  t.row({"decode step latency (batched GEMV)", fmt(decode_ms, 2) + " ms"});
  t.row({"serialized wire bytes per layer (measured blob)",
         fmt(static_cast<double>(blob.size()) / 1024.0, 0) + " KiB"});
  t.row({"  codes / metadata / sums / tail KiB",
         fmt(static_cast<double>(sections.packed_codes) / 1024.0, 0) + " / " +
             fmt(static_cast<double>(sections.metadata) / 1024.0, 0) + " / " +
             fmt(static_cast<double>(sections.sums) / 1024.0, 0) + " / " +
             fmt(static_cast<double>(sections.fp16_tail) / 1024.0, 0)});
  t.row({"vs FP16 KV per layer",
         pct(static_cast<double>(blob.size()) / fp16_bytes)});
  t.row({"serialize latency", fmt(serialize_ms, 2) + " ms"});
  t.row({"netsim transfer (100 Gbps NICs, pipelined)",
         fmt(transfer.duration() * 1000.0, 3) + " ms"});
  t.row({"pool lanes", std::to_string(ThreadPool::global().lanes())});
  t.print();
}

void continuous_batching_engine() {
  TinyConfig cfg;
  cfg.vocab = 256;
  cfg.layers = 2;
  cfg.heads = 16;
  cfg.kv_heads = 4;
  cfg.d_head = 64;
  cfg.d_ff = 512;
  const auto weights = make_tiny_weights(cfg);

  ServingEngineConfig ec;
  ec.scheduler.max_active = 4;
  ec.scheduler.prefill_chunk_tokens = 32;
  ec.scheduler.block_tokens = 16;
  // 8 blocks per request (96 prompt + 24 output = 120 tokens): a 24-block
  // pool holds three concurrent sequences; later arrivals queue for blocks.
  BlockAllocator allocator(
      24, ec.scheduler.block_tokens * cfg.kv_heads * cfg.d_head * 2 * 2 *
              cfg.layers);

  HackAttentionConfig attn;  // paper defaults: Π=64, 8-bit Q/P, 2-bit KV
  ServingEngine engine(
      weights, [attn] { return make_hack_layer_backend(attn, 7); }, ec,
      &allocator);

  SyntheticCorpus corpus({.vocab = cfg.vocab}, 2025);
  for (std::size_t i = 0; i < 6; ++i) {
    ServingRequest req;
    req.id = i;
    req.prompt = corpus.prompt(i, 96);
    req.max_new_tokens = 24;
    req.arrival_time_s = 0.08 * static_cast<double>(i);  // staggered
    engine.submit(std::move(req));
  }
  const ServingReport report = engine.run();

  Table t("Continuous-batching engine (16Q/4KV d_head 64, shared weights, "
          "staggered arrivals)");
  t.header({"request", "arrival_s", "ttft_s", "jct_s", "tokens", "state"});
  for (const ServingRecord& rec : report.requests) {
    t.row({std::to_string(rec.request.id),
           fmt(rec.request.arrival_time_s, 2), fmt(rec.ttft_s(), 3),
           fmt(rec.jct_s(), 3), std::to_string(rec.generated.size()),
           request_state_name(rec.state)});
  }
  t.print();

  Table a("Engine aggregate");
  a.header({"metric", "value"});
  a.row({"decode tokens/s", fmt(report.decode_tokens_per_s, 1)});
  a.row({"goodput", fmt(report.goodput_rps, 2) + " req/s"});
  a.row({"TTFT p50 / p99", fmt(report.ttft_s.p50, 3) + " / " +
                               fmt(report.ttft_s.p99, 3) + " s"});
  a.row({"TBT p50 / p99", fmt(report.tbt_s.p50, 4) + " / " +
                              fmt(report.tbt_s.p99, 4) + " s"});
  a.row({"peak concurrent sequences",
         std::to_string(report.engine.peak_running)});
  a.row({"fused attend launches",
         std::to_string(report.engine.fused_attend_launches)});
  a.row({"KV bytes admitted",
         fmt(static_cast<double>(report.engine.kv_bytes_admitted) / 1024.0,
             0) + " KiB"});
  a.row({"free-block watermark",
         std::to_string(allocator.min_free_watermark()) + " of " +
             std::to_string(allocator.num_blocks())});
  a.row({"pool lanes", std::to_string(ThreadPool::global().lanes())});
  a.print();
}

// Returns false when any decode stream differs from the solo run.
bool disaggregated_engine() {
  TinyConfig cfg;
  cfg.vocab = 256;
  cfg.layers = 2;
  cfg.heads = 16;
  cfg.kv_heads = 4;
  cfg.d_head = 64;
  cfg.d_ff = 512;
  const auto weights = make_tiny_weights(cfg);

  FleetConfig fc;  // one prefill + one decode worker
  DisaggConfig& dc = fc.worker;  // paper defaults: Π=64, 8-bit Q/P, 2-bit KV,
                                 // 100 Gbps
  dc.decode_kv_blocks = 64;

  SyntheticCorpus corpus({.vocab = cfg.vocab}, 2025);
  std::vector<ServingRequest> requests;
  for (std::size_t i = 0; i < 3; ++i) {
    ServingRequest req;
    req.id = i;
    req.prompt = corpus.prompt(i, 96);
    req.max_new_tokens = 16;
    req.arrival_time_s = 0.05 * static_cast<double>(i);
    requests.push_back(std::move(req));
  }

  FleetEngine engine(weights, fc);
  const FleetReport report = engine.run(requests);

  Table t("Disaggregated prefill→decode (16Q/4KV d_head 64, KV wire + netsim "
          "transfer)");
  t.header({"request", "wire_KiB", "vs_fp16", "prefill_ms", "transfer_ms",
            "decode_ms", "ttft_s", "tokens", "bit-identical"});
  bool all_identical = true;
  for (const FleetRecord& route : report.requests) {
    const DisaggRecord& rec = route.d;
    // The check the whole module exists for: the decode worker's token
    // stream equals the single-node run's.
    TinyTransformer solo(weights,
                         make_hack_layer_backend(dc.attn, dc.backend_seed));
    const bool identical =
        solo.generate(rec.request.prompt, rec.request.max_new_tokens,
                      rec.request.eos) == rec.generated;
    all_identical = all_identical && identical;
    t.row({std::to_string(rec.request.id),
           fmt(static_cast<double>(rec.wire_bytes) / 1024.0, 0),
           pct(rec.wire_vs_fp16()), fmt(rec.prefill_s * 1000.0, 0),
           fmt(rec.transfer_s * 1000.0, 3), fmt(rec.decode_s * 1000.0, 0),
           fmt(rec.ttft_s, 3), std::to_string(rec.generated.size()),
           identical ? "yes" : "NO"});
  }
  t.print();
  return all_identical;
}

}  // namespace

int main() {
  std::printf("Disaggregated serving: Llama-3.1 70B + Cocktail\n");
  std::printf("prefill: 5 A10G replicas (TP4/PP2), decode: 4 A100 replicas "
              "(TP4)\n");

  Table t("JCT decomposition by method");
  t.header({"method", "jct_s", "prefill_s", "comm_s", "dequant/approx_s",
            "decode_s", "peak_mem", "swapped"});
  for (const Method method :
       {Method::kBaseline, Method::kCacheGen, Method::kKvQuant,
        Method::kHack}) {
    ClusterConfig config =
        standard_cluster("A10G", "L", "Cocktail", method);
    config.num_requests = 40;
    config.seed = 11;
    const SimSummary s = run_cluster_sim(config);
    t.row({method_name(method), fmt(s.avg_jct_s, 1), fmt(s.mean_prefill_s, 1),
           fmt(s.mean_comm_s, 2), fmt(s.mean_dequant_or_approx_s, 2),
           fmt(s.mean_decode_s, 1), pct(s.peak_decode_mem_fraction),
           std::to_string(s.swapped_requests)});
  }
  t.print();

  // The pipelining counterpoint (§2.1): overlap helps until decode memory
  // runs out, at which point KV must park in prefill CPU memory.
  Table p("Pipelining at increasing load (baseline)");
  p.header({"rps", "comm_ratio", "swapped"});
  for (const double rps : {0.06, 0.12, 0.18, 0.24}) {
    ClusterConfig config =
        standard_cluster("A10G", "L", "Cocktail", Method::kBaseline, rps);
    config.pipelining = true;
    config.num_requests = 40;
    config.seed = 11;
    config.activation_reserve_gb = 120.0;
    const SimSummary s = run_cluster_sim(config);
    p.row({fmt(rps, 2), pct(s.comm_ratio), std::to_string(s.swapped_requests)});
  }
  p.print();

  per_layer_batched_path();
  continuous_batching_engine();
  if (!disaggregated_engine()) {
    std::fprintf(stderr,
                 "disaggregated decode diverged from solo generate()\n");
    return 1;
  }
  return 0;
}
