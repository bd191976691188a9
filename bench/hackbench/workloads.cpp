#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "base/check.h"
#include "base/rng.h"
#include "kvcache/block_allocator.h"
#include "serving/engine.h"
#include "serving/fleet.h"
#include "workload/corpus.h"
#include "workload/dataset.h"

namespace hackbench {
namespace {

using hack::ServingRequest;

std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Empirical quantile table of one Table-4 length model. Drawn from a fixed
// stream: it describes the dataset, not a run, so it never depends on the
// run's seed.
std::vector<double> quantile_table(const hack::LengthStats& stats,
                                   std::uint64_t salt) {
  constexpr std::size_t kDraws = 4096;
  hack::Rng rng(mix(0x7ab1e4ULL ^ salt));
  std::vector<double> table(kDraws);
  for (double& x : table) x = hack::sample_length(stats, rng);
  std::sort(table.begin(), table.end());
  return table;
}

std::size_t length_at(const std::vector<double>& table, double u,
                      std::size_t cap) {
  const std::size_t i = std::min(
      table.size() - 1, static_cast<std::size_t>(u * double(table.size())));
  std::size_t n = std::max<std::size_t>(1, std::size_t(table[i]));
  if (cap > 0) n = std::min(n, cap);
  return n;
}

template <typename T>
void shuffle(T* first, std::size_t n, hack::Rng& rng) {
  for (std::size_t i = n; i > 1; --i) {
    std::swap(first[i - 1], first[rng.next_below(i)]);
  }
}

// The midpoints of k equal-probability strata, in a balanced random order:
// the round splits into `blocks` equal runs of positions, and each run is
// itself a stratified sample — it gets one stratum out of every band of
// `blocks` neighbouring strata, so the first quarter of a round never holds
// all the long prompts.
std::vector<double> stratum_midpoints(std::size_t k, hack::Rng& rng) {
  const std::size_t blocks = k % 4 == 0 ? 4 : k % 2 == 0 ? 2 : 1;
  const std::size_t per_block = k / blocks;
  std::vector<std::size_t> strata(k);
  for (std::size_t g = 0; g < per_block; ++g) {
    // Strata g*blocks .. g*blocks+blocks-1 go one to each position block.
    std::vector<std::size_t> target(blocks);
    std::iota(target.begin(), target.end(), std::size_t{0});
    shuffle(target.data(), blocks, rng);
    for (std::size_t b = 0; b < blocks; ++b) {
      strata[target[b] * per_block + g] = g * blocks + b;
    }
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    shuffle(strata.data() + b * per_block, per_block, rng);
  }
  std::vector<double> u(k);
  for (std::size_t i = 0; i < k; ++i) {
    u[i] = (double(strata[i]) + 0.5) / double(k);
  }
  return u;
}

ServingRequest warmup_request() {
  const hack::SyntheticCorpus corpus({.vocab = model_config().vocab}, 1);
  ServingRequest req;
  req.prompt = corpus.prompt(0, 64);
  req.max_new_tokens = 4;
  return req;
}

hack::ServingEngineConfig engine_config(const Workload& w) {
  hack::ServingEngineConfig ec;
  ec.scheduler.max_active = w.max_active;
  ec.scheduler.prefill_chunk_tokens = w.prefill_chunk;
  ec.scheduler.tiered = w.tiered_pool_share > 0.0;
  return ec;
}

hack::FleetConfig fleet_config(const Workload& w) {
  hack::FleetConfig fc;
  fc.worker.attn = attention_config();
  fc.worker.backend_seed = kBackendSeed;
  fc.worker.prefill_chunk_tokens = w.prefill_chunk;
  fc.prefill_workers = w.prefill_workers;
  fc.decode_workers = w.decode_workers;
  return fc;
}

// FP16 K+V bytes of one block across all layers and KV heads — the
// accounting unit the engine's allocator charges.
std::size_t block_bytes(std::size_t block_tokens) {
  const hack::TinyConfig c = model_config();
  return block_tokens * c.kv_heads * c.d_head * 2 * 2 * c.layers;
}

// Pool for a tiered round: the configured share of the round's worst-case
// working set, but never below the largest single request (which must fit
// alone to be admissible).
std::size_t tiered_pool_blocks(const Workload& w,
                               const std::vector<ServingRequest>& round,
                               std::size_t block_tokens) {
  std::size_t sum = 0, largest = 0;
  for (const ServingRequest& r : round) {
    const std::size_t blocks =
        (r.prompt.size() + r.max_new_tokens + block_tokens - 1) /
        block_tokens;
    sum += blocks;
    largest = std::max(largest, blocks);
  }
  const auto share = static_cast<std::size_t>(
      std::ceil(w.tiered_pool_share * double(sum)));
  return std::max(largest, share);
}

std::function<hack::LayerBackendFactory()> factory_maker() {
  return [] { return backend_factory(); };
}

struct ContinuousTotals {
  double steps = 0, prefill_chunks = 0, fused = 0, peak_running = 0;
  double rows = 0, decode_tokens = 0, decode_time_s = 0;
  double evictions = 0, rehydrations = 0, prefetch_hits = 0;
  double swap_bytes = 0, far_peak = 0, swap_work_s = 0, swap_stall_s = 0;
};

// One continuous-engine episode over `requests` on a fresh engine (and, in
// tiered mode, a fresh pool sized for them).
hack::ServingReport serve_continuous(
    const Workload& w,
    const std::shared_ptr<const hack::TinyModelWeights>& weights,
    const std::vector<ServingRequest>& requests) {
  const hack::ServingEngineConfig ec = engine_config(w);
  std::unique_ptr<hack::BlockAllocator> pool;
  if (ec.scheduler.tiered) {
    pool = std::make_unique<hack::BlockAllocator>(
        tiered_pool_blocks(w, requests, ec.scheduler.block_tokens),
        block_bytes(ec.scheduler.block_tokens));
  }
  hack::ServingEngine engine(weights, factory_maker(), ec, pool.get());
  for (const ServingRequest& r : requests) engine.submit(r);
  return engine.run();
}

void serve_continuous_round(const Workload& w,
                            const std::shared_ptr<const hack::TinyModelWeights>&
                                weights,
                            const std::vector<ServingRequest>& round,
                            RunResult& out, ContinuousTotals& t) {
  const hack::ServingReport report = serve_continuous(w, weights, round);

  for (const hack::ServingRecord& rec : report.requests) {
    Served s;
    s.request = rec.request;
    s.tokens = rec.generated;
    s.ok = rec.state == hack::RequestState::kFinished &&
           rec.first_token_time_s >= 0.0;
    if (s.ok) {
      s.ttft_s = rec.ttft_s();
      s.jct_s = rec.jct_s();
      s.queue_s = rec.admit_time_s - rec.request.arrival_time_s;
      t.rows += double(rec.request.prompt.size() + rec.generated.size() - 1);
    }
    out.served.push_back(std::move(s));
  }
  out.busiest_s += report.makespan_s;  // one engine, busy all round

  const hack::ServingEngineStats& e = report.engine;
  t.steps += double(e.steps);
  t.prefill_chunks += double(e.prefill_chunks);
  t.fused += double(e.fused_attend_launches);
  t.peak_running = std::max(t.peak_running, double(e.peak_running));
  t.decode_tokens += report.decode_tokens_per_s * report.decode_time_s;
  t.decode_time_s += report.decode_time_s;
  t.evictions += double(e.tier.evictions);
  t.rehydrations += double(e.tier.rehydrations);
  t.prefetch_hits += double(e.tier.prefetch_hits);
  t.swap_bytes += double(e.tier.bytes_swapped_out + e.tier.bytes_swapped_in);
  t.far_peak = std::max(t.far_peak, double(e.tier.far_bytes_peak));
  t.swap_work_s += e.tier.swap_in_work_s;
  t.swap_stall_s += e.tier.swap_in_stall_s;
}

void finish_continuous(const Workload& w, const ContinuousTotals& t,
                       RunResult& out) {
  auto& c = out.counters;
  c["serving.steps"] = t.steps;
  c["serving.rows_per_step"] = t.steps > 0 ? t.rows / t.steps : 0.0;
  c["serving.prefill_chunks"] = t.prefill_chunks;
  c["serving.fused_attend_launches"] = t.fused;
  c["serving.peak_running"] = t.peak_running;
  c["serving.decode_tokens_per_s"] =
      t.decode_time_s > 0 ? t.decode_tokens / t.decode_time_s : 0.0;
  c["kvcache.tier.evictions"] = t.evictions;
  c["kvcache.tier.rehydrations"] = t.rehydrations;
  c["kvcache.tier.prefetch_hit_ratio"] =
      t.rehydrations > 0 ? t.prefetch_hits / t.rehydrations : 0.0;
  c["kvcache.tier.swap_bytes"] = t.swap_bytes;
  c["kvcache.tier.far_bytes_peak"] = t.far_peak;
  c["kvcache.tier.swap_in_work_share"] =
      out.busiest_s > 0 ? t.swap_work_s / out.busiest_s : 0.0;
  c["kvcache.tier.swap_in_stall_share"] =
      out.busiest_s > 0 ? t.swap_stall_s / out.busiest_s : 0.0;
  if (w.tiered_pool_share > 0.0 && t.evictions == 0) {
    out.gate_failures.push_back("tiered run never evicted a sequence");
  }
}

void serve_fleet_round(hack::FleetEngine& fleet,
                       const std::vector<ServingRequest>& round,
                       RunResult& out, double& retries,
                       double& prefill_chunks,
                       hack::FleetReport& last_report) {
  hack::FleetReport report = fleet.run(round);
  for (hack::FleetRecord& rec : report.requests) {
    const hack::DisaggRecord& d = rec.d;
    Served s;
    s.request = d.request;
    s.tokens = d.generated;
    s.ok = !d.rejected && !rec.shed && !d.fallback_local &&
           rec.decode_worker != hack::kNoWorker;
    if (s.ok) {
      s.ttft_s = d.ttft_s;
      s.jct_s = d.jct_s;
      s.queue_s = std::max(0.0, d.ttft_s - (d.prefill_s + d.serialize_s +
                                            d.transfer_s + d.deserialize_s));
      s.prefill_s = d.prefill_s;
      s.decode_s = d.decode_s;
      s.transfer_s = d.transfer_s;
    }
    prefill_chunks += double(d.prefill_chunks);
    out.served.push_back(std::move(s));
  }
  retries += double(report.retries_total);
  last_report = std::move(report);
}

void finish_fleet(const Workload& w, const hack::FleetReport& last,
                  double retries, double prefill_chunks, RunResult& out) {
  // Worker books persist across run() calls, so the last report carries
  // every worker's busy time over the whole continuous timeline.
  const double makespan = last.makespan_s;
  double prefill_util = 0, decode_util = 0, served_max = 0, served_sum = 0;
  for (const hack::FleetWorkerStats& s : last.prefill_workers) {
    out.busiest_s = std::max(out.busiest_s, s.busy_s);
    prefill_util = std::max(prefill_util, s.busy_s / makespan);
  }
  for (const hack::FleetWorkerStats& s : last.decode_workers) {
    out.busiest_s = std::max(out.busiest_s, s.busy_s);
    decode_util = std::max(decode_util, s.busy_s / makespan);
    served_max = std::max(served_max, double(s.served));
    served_sum += double(s.served);
    if (s.served == 0 && w.decode_workers > 1) {
      out.gate_failures.push_back(s.name + " served no requests");
    }
  }
  double transfer = 0, ttft = 0;
  for (const Served& s : out.served) {
    transfer += s.transfer_s;
    ttft += s.ttft_s;
  }
  auto& c = out.counters;
  c["serving.prefill_chunks"] = prefill_chunks;
  c["fleet.prefill_util_max"] = prefill_util;
  c["fleet.decode_util_max"] = decode_util;
  c["fleet.decode_imbalance"] =
      served_sum > 0
          ? served_max / (served_sum / double(last.decode_workers.size()))
          : 0.0;
  c["netsim.transfer_share"] = ttft > 0 ? transfer / ttft : 0.0;
  c["netsim.retries"] = retries;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<Workload>& workloads() {
  // Rationale for each mix is in README.md ("Workloads").
  static const std::vector<Workload> table = {
      {.name = "imdb_disagg",
       .dataset = "IMDb",
       .engine = EngineKind::kFleet,
       .round_requests = 8,
       .max_input = 0,
       .max_output = 0,
       .rps = 3.0,
       .prefill_workers = 2,
       .decode_workers = 2,
       .max_active = 0,
       .prefill_chunk = 0,
       .tiered_pool_share = 0.0},
      {.name = "humaneval_batch",
       .dataset = "HumanEval",
       .engine = EngineKind::kContinuous,
       .round_requests = 16,
       .max_input = 0,
       .max_output = 0,
       .rps = 0.0,
       .prefill_workers = 0,
       .decode_workers = 0,
       .max_active = 16,
       .prefill_chunk = 128,
       .tiered_pool_share = 0.0},
      {.name = "arxiv_disagg",
       .dataset = "arXiv",
       .engine = EngineKind::kFleet,
       .round_requests = 2,
       .max_input = 2048,
       .max_output = 128,
       .rps = 0.01,
       .prefill_workers = 1,
       .decode_workers = 1,
       .max_active = 0,
       .prefill_chunk = 0,
       .tiered_pool_share = 0.0},
      {.name = "humaneval_tiered",
       .dataset = "HumanEval",
       .engine = EngineKind::kContinuous,
       .round_requests = 16,
       .max_input = 0,
       .max_output = 0,
       .rps = 0.0,
       .prefill_workers = 0,
       .decode_workers = 0,
       .max_active = 16,
       .prefill_chunk = 128,
       .tiered_pool_share = 0.45},
  };
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

hack::TinyConfig model_config() {
  hack::TinyConfig c;
  c.vocab = 256;
  c.layers = 2;
  c.heads = 8;
  c.kv_heads = 2;
  c.d_head = 128;
  c.d_ff = 512;
  return c;
}

hack::HackAttentionConfig attention_config() {
  hack::HackAttentionConfig a;
  a.pi = 64;
  a.kv_bits = 2;
  a.rounding = hack::Rounding::kStochastic;
  return a;
}

hack::LayerBackendFactory backend_factory() {
  return hack::make_hack_layer_backend(attention_config(), kBackendSeed);
}

RequestStream::RequestStream(const Workload& workload, std::uint64_t seed,
                             std::size_t round_requests)
    : corpus_({.vocab = model_config().vocab}, mix(seed ^ 0xc0de)) {
  // Drawn from a fixed stream, like the quantile tables: the layout is part
  // of the workload, not of the run.
  const hack::DatasetSpec& spec = hack::dataset_by_name(workload.dataset);
  const std::vector<double> inputs = quantile_table(spec.input, 1);
  const std::vector<double> outputs = quantile_table(spec.output, 2);
  hack::Rng rng(mix(0x1a7007ULL));
  const std::size_t k = round_requests;
  const std::vector<double> u_in = stratum_midpoints(k, rng);
  const std::vector<double> u_out = stratum_midpoints(k, rng);
  const std::vector<double> u_gap = stratum_midpoints(k, rng);
  for (std::size_t i = 0; i < k; ++i) {
    prompt_lengths_.push_back(length_at(inputs, u_in[i], workload.max_input));
    output_lengths_.push_back(
        length_at(outputs, u_out[i], workload.max_output));
    if (workload.rps > 0.0) {
      gaps_s_.push_back(-std::log(1.0 - u_gap[i]) / workload.rps);
    }
  }
}

std::vector<ServingRequest> RequestStream::next_round() {
  std::vector<ServingRequest> round(prompt_lengths_.size());
  for (std::size_t i = 0; i < round.size(); ++i) {
    ServingRequest& r = round[i];
    r.id = next_id_++;
    r.prompt = corpus_.prompt(r.id, prompt_lengths_[i]);
    r.max_new_tokens = output_lengths_[i];
    if (!gaps_s_.empty()) {
      clock_s_ += gaps_s_[i];
      r.arrival_time_s = clock_s_;
    }
  }
  return round;
}

RunResult run_workload(const Workload& w,
                       std::shared_ptr<const hack::TinyModelWeights> weights,
                       RequestStream& stream, double budget_s,
                       const RoundHook& after_round) {
  RunResult out;
  const double start = now_s();
  const auto keep_going = [&] {
    if (out.rounds == 0) return true;
    const double spent = now_s() - start;
    return spent + spent / double(out.rounds) <= budget_s;
  };
  const auto finish_round = [&](std::size_t first) {
    after_round(out.served, first);
    ++out.rounds;
  };

  if (w.engine == EngineKind::kContinuous) {
    ContinuousTotals totals;
    while (keep_going()) {
      const std::size_t first = out.served.size();
      serve_continuous_round(w, weights, stream.next_round(), out, totals);
      finish_round(first);
    }
    finish_continuous(w, totals, out);
    return out;
  }

  hack::FleetEngine fleet(weights, fleet_config(w));
  hack::FleetReport last;
  double retries = 0, prefill_chunks = 0;
  while (keep_going()) {
    const std::size_t first = out.served.size();
    serve_fleet_round(fleet, stream.next_round(), out, retries,
                      prefill_chunks, last);
    finish_round(first);
  }
  finish_fleet(w, last, retries, prefill_chunks, out);
  return out;
}

double setup_once(const Workload& w,
                  std::shared_ptr<const hack::TinyModelWeights>* weights) {
  const double start = now_s();
  *weights = hack::make_tiny_weights(model_config());
  const ServingRequest warmup = warmup_request();
  if (w.engine == EngineKind::kContinuous) {
    HACK_CHECK(!serve_continuous(w, *weights, {warmup})
                    .requests.front()
                    .generated.empty(),
               "warm-up request produced no tokens");
  } else {
    hack::FleetEngine fleet(*weights, fleet_config(w));
    HACK_CHECK(!fleet.run({warmup}).requests.front().d.generated.empty(),
               "warm-up request produced no tokens");
  }
  return now_s() - start;
}

}  // namespace hackbench
