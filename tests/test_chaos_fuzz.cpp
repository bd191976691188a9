// Seeded randomized chaos fuzz over the fleet engine and the tiered
// serving engine.
//
// Fleet corpus: fifty derived (fault config × kill schedule × fleet shape)
// combinations, each run twice, pinning the robustness contract corpus-wide
// instead of on hand-picked schedules:
//
//   Replay       same seed + same kill schedule ⇒ bitwise-identical token
//                streams, routes, retry counts, backoff draws, and
//                checkpoint/resume/migration counters across the two runs.
//   Bit-identity every request that completes (wire path or local fallback)
//                produces the token stream of the fault-free single-pair
//                engine, regardless of which replicas it bounced across.
//   Ledger       the report's drop/corruption counters equal the summed
//                per-link FaultModel injection ledgers exactly — no fault is
//                double-counted or silently absorbed, checkpoint traffic
//                included.
//
// Determinism scaffolding: the fate streams are ordinal-keyed (a chunk's
// fate depends on how many chunks the link has seen, not on wall-clock
// timing), so probabilistic drops and corruption replay exactly. Link-down
// windows are time-keyed — measured compute shifts whether a transfer lands
// inside one — so the fuzzer leaves them off; the scheduled-window chaos leg
// lives in tests/test_fleet.cpp where the schedule is pinned. Down cooldowns
// are infinite for the same reason (recovery time would depend on measured
// compute).
//
// Tiered corpus: derived (pool size × preemption on/off × prefetch on/off ×
// quantization format × workload shape) combinations over the tiered
// serving engine (docs/serving.md, "Tiered KV memory"), each run twice,
// extending the same three properties to eviction under memory pressure:
// bitwise replay of tokens and the evict/resume/prefetch event log, ledger
// exactness (every eviction rehydrated, bytes out == bytes in, hit + miss
// == rehydrations, the pool fully drained), and bit-identity against the
// never-evicted engine.
#include <gtest/gtest.h>

#include <limits>

#include "base/rng.h"
#include "kvcache/block_allocator.h"
#include "model/tiny_transformer.h"
#include "serving/disagg.h"
#include "serving/engine.h"
#include "serving/fleet.h"
#include "workload/corpus.h"

namespace hack {
namespace {

std::shared_ptr<const TinyModelWeights> small_weights() {
  TinyConfig tc;
  tc.vocab = 64;
  tc.layers = 2;
  tc.heads = 4;
  tc.kv_heads = 2;
  tc.d_head = 32;
  tc.d_ff = 128;
  return make_tiny_weights(tc);
}

struct FuzzCase {
  FleetConfig fc;
  std::vector<ServingRequest> requests;
  // Kill schedule: start-of-decode crashes, a mid-decode crash (armed on
  // every decode replica so it fires wherever the request lands), and
  // prefill crashes.
  std::size_t decode_kill_request = SIZE_MAX;
  std::size_t decode_kill_worker = 0;
  std::size_t mid_kill_request = SIZE_MAX;
  std::size_t mid_kill_token = 0;
  std::size_t prefill_kill_request = SIZE_MAX;
  std::size_t prefill_kill_worker = 0;
};

FuzzCase derive_case(std::uint64_t case_id) {
  Rng rng(0xF0220000u + case_id * 0x9E3779B97F4A7C15ULL);
  FuzzCase c;

  DisaggConfig dc;
  dc.attn.pi = 32;
  const int kv_bits_options[] = {2, 4, 8};
  dc.attn.kv_bits = kv_bits_options[rng.next_below(3)];
  dc.attn.summation_elimination = rng.next_below(2) == 0;
  dc.attn.requant_elimination = rng.next_below(2) == 0;
  const std::size_t chunk_options[] = {2048, 4096, 16384};
  dc.transfer_chunk_bytes = chunk_options[rng.next_below(3)];
  dc.checkpoint_every_tokens = 2 + rng.next_below(3);  // 2..4
  const double drop_options[] = {0.0, 0.05, 0.15};
  const double corrupt_options[] = {0.0, 0.01, 0.05};
  dc.transfer_faults.chunk_drop_prob = drop_options[rng.next_below(3)];
  dc.transfer_faults.chunk_corrupt_prob = corrupt_options[rng.next_below(3)];
  dc.transfer_faults.seed = 0xC0DE + case_id;
  dc.retry.max_retries = 16;

  c.fc.worker = dc;
  c.fc.prefill_workers = 1 + rng.next_below(2);  // 1..2
  c.fc.decode_workers = 1 + rng.next_below(3);   // 1..3
  c.fc.prefill_policy = &dispatch_round_robin;
  c.fc.decode_policy = &dispatch_round_robin;
  // Time-free routing: down stays down. A finite cooldown, however long,
  // lets the every-replica-down wait recover a worker at an instant set by
  // measured compute, so replays could route differently.
  c.fc.health.down_cooldown_s = std::numeric_limits<double>::infinity();

  const std::size_t n_requests = 3 + rng.next_below(2);  // 3..4
  SyntheticCorpus corpus({.vocab = 64}, 0x5EED + case_id);
  for (std::size_t i = 0; i < n_requests; ++i) {
    ServingRequest r;
    r.prompt = corpus.prompt(i, 30 + rng.next_below(21));  // 30..50 tokens
    r.max_new_tokens = 5 + rng.next_below(4);              // 5..8
    r.arrival_time_s = 0.01 * static_cast<double>(i);
    c.requests.push_back(std::move(r));
  }

  if (rng.next_below(2) == 0) {
    c.decode_kill_request = rng.next_below(n_requests);
    c.decode_kill_worker = rng.next_below(c.fc.decode_workers);
  }
  if (rng.next_below(2) == 0) {
    c.mid_kill_request = rng.next_below(n_requests);
    c.mid_kill_token = 2 + rng.next_below(4);  // 2..5
  }
  if (rng.next_below(3) == 0) {
    c.prefill_kill_request = rng.next_below(n_requests);
    c.prefill_kill_worker = rng.next_below(c.fc.prefill_workers);
  }
  return c;
}

struct Episode {
  FleetReport report;
  FaultStats ledger;
};

Episode run_case(const std::shared_ptr<const TinyModelWeights>& weights,
                 const FuzzCase& c) {
  FleetEngine engine(weights, c.fc);
  if (c.decode_kill_request != SIZE_MAX) {
    engine.decode_worker(c.decode_kill_worker)
        .inject_crash(c.decode_kill_request);
  }
  if (c.mid_kill_request != SIZE_MAX) {
    for (std::size_t j = 0; j < c.fc.decode_workers; ++j) {
      engine.decode_worker(j).inject_crash_at_token(c.mid_kill_request,
                                                    c.mid_kill_token);
    }
  }
  if (c.prefill_kill_request != SIZE_MAX) {
    engine.prefill_worker(c.prefill_kill_worker)
        .inject_crash(c.prefill_kill_request);
  }
  Episode e;
  e.report = engine.run(c.requests);
  e.ledger = engine.fault_ledger();
  return e;
}

TEST(ChaosFuzz, FiftySeededEpisodesReplayExactlyAndStayBitIdentical) {
  const auto weights = small_weights();
  // Corpus-wide non-vacuousness: the derived schedules must actually
  // exercise every fault class and the checkpoint/resume machinery.
  std::size_t total_drops = 0;
  std::size_t total_corruptions = 0;
  std::size_t total_crashes = 0;
  std::size_t total_resumes = 0;
  std::size_t total_checkpoints = 0;
  std::size_t total_completed = 0;

  for (std::uint64_t case_id = 0; case_id < 50; ++case_id) {
    SCOPED_TRACE(testing::Message() << "fuzz case " << case_id);
    const FuzzCase c = derive_case(case_id);

    // The contract's reference: the fault-free single pair (a 1×1 fleet)
    // with the same worker config (checkpoint cadence off — cadence must not
    // change tokens either).
    FleetConfig clean;
    clean.worker = c.fc.worker;
    clean.worker.transfer_faults = {};
    clean.worker.checkpoint_every_tokens = 0;
    FleetEngine reference(weights, clean);
    const FleetReport ref = reference.run(c.requests);

    const Episode a = run_case(weights, c);
    const Episode b = run_case(weights, c);

    // ---- Replay: the two runs are bitwise-identical. ----
    ASSERT_EQ(a.report.requests.size(), b.report.requests.size());
    for (std::size_t i = 0; i < a.report.requests.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "request " << i);
      const FleetRecord& ra = a.report.requests[i];
      const FleetRecord& rb = b.report.requests[i];
      EXPECT_EQ(ra.prefill_route, rb.prefill_route);
      EXPECT_EQ(ra.decode_route, rb.decode_route);
      EXPECT_EQ(ra.d.generated, rb.d.generated);
      EXPECT_EQ(ra.d.retries, rb.d.retries);
      EXPECT_EQ(ra.d.backoff_s, rb.d.backoff_s);  // bitwise jitter replay
      EXPECT_EQ(ra.d.checkpoints, rb.d.checkpoints);
      EXPECT_EQ(ra.d.checkpoint_bytes, rb.d.checkpoint_bytes);
      EXPECT_EQ(ra.d.resumes, rb.d.resumes);
      EXPECT_EQ(ra.d.tokens_replayed, rb.d.tokens_replayed);
      EXPECT_EQ(ra.d.tokens_recomputed, rb.d.tokens_recomputed);
      EXPECT_EQ(ra.migrations, rb.migrations);
      EXPECT_EQ(ra.drains, rb.drains);
      EXPECT_EQ(ra.shed, rb.shed);
      EXPECT_EQ(ra.d.rejected, rb.d.rejected);
      EXPECT_EQ(ra.d.fallback_local, rb.d.fallback_local);
    }
    EXPECT_EQ(a.report.reroutes_total, b.report.reroutes_total);
    EXPECT_EQ(a.report.re_prefills_total, b.report.re_prefills_total);
    EXPECT_EQ(a.report.chunks_dropped_total, b.report.chunks_dropped_total);
    EXPECT_EQ(a.report.chunks_corrupted_total,
              b.report.chunks_corrupted_total);
    EXPECT_EQ(a.report.crc_failures_total, b.report.crc_failures_total);
    EXPECT_EQ(a.report.checkpoints_total, b.report.checkpoints_total);
    EXPECT_EQ(a.report.checkpoint_failures_total,
              b.report.checkpoint_failures_total);
    EXPECT_EQ(a.report.resumes_total, b.report.resumes_total);
    EXPECT_EQ(a.report.migrations_total, b.report.migrations_total);
    EXPECT_EQ(a.report.drain_events_total, b.report.drain_events_total);
    EXPECT_EQ(a.report.health_transitions_total,
              b.report.health_transitions_total);

    // ---- Ledger: report counters equal the injected ground truth. ----
    EXPECT_EQ(a.report.chunks_dropped_total, a.ledger.drops);
    EXPECT_EQ(a.report.chunks_corrupted_total, a.ledger.corruptions);
    EXPECT_EQ(a.ledger.down_delays, 0u);  // no windows in the fuzz corpus

    // ---- Bit-identity: every completed request matches the reference. ----
    for (std::size_t i = 0; i < a.report.requests.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "request " << i);
      const FleetRecord& rec = a.report.requests[i];
      if (rec.d.rejected) continue;  // budget genuinely exhausted
      EXPECT_EQ(rec.d.generated, ref.requests[i].d.generated);
      ++total_completed;
    }
    // The decode-crash headline holds corpus-wide.
    EXPECT_EQ(a.report.re_prefills_from_decode_crashes, 0u);

    total_drops += a.ledger.drops;
    total_corruptions += a.ledger.corruptions;
    total_crashes +=
        a.report.decode_crashes_total + a.report.prefill_crashes_total;
    total_resumes += a.report.resumes_total;
    total_checkpoints += a.report.checkpoints_total;
  }

  EXPECT_GT(total_drops, 0u);
  EXPECT_GT(total_corruptions, 0u);
  EXPECT_GT(total_crashes, 0u);
  EXPECT_GT(total_resumes, 0u);
  EXPECT_GT(total_checkpoints, 0u);
  EXPECT_GT(total_completed, 0u);
}

// ------------------------------------------------- tiered-memory corpus

struct TieredFuzzCase {
  ServingEngineConfig ec;
  std::size_t pool_blocks = 0;
  std::vector<ServingRequest> requests;
};

TieredFuzzCase derive_tiered_case(std::uint64_t case_id) {
  Rng rng(0x71E2D000u + case_id * 0x9E3779B97F4A7C15ULL);
  TieredFuzzCase c;

  c.ec.scheduler.tiered = true;
  c.ec.scheduler.block_tokens = 8;
  c.ec.scheduler.max_active = 8;
  const std::size_t chunk_options[] = {8, 16, 256};
  c.ec.scheduler.prefill_chunk_tokens = chunk_options[rng.next_below(3)];
  c.ec.scheduler.preemption = rng.next_below(4) != 0;  // mostly on
  c.ec.scheduler.prefetch = rng.next_below(2) == 0;
  c.ec.scheduler.preempt_stall_limit = 1 + rng.next_below(6);  // 1..6

  // All requests arrive at t=0: admission order — and therefore the whole
  // evict/resume schedule — is then step-deterministic, never wall-clock.
  const std::size_t n_requests = 4 + rng.next_below(3);  // 4..6
  SyntheticCorpus corpus({.vocab = 64}, 0xF00D + case_id);
  std::size_t max_worst_blocks = 0;
  for (std::size_t i = 0; i < n_requests; ++i) {
    ServingRequest r;
    r.id = i;
    r.prompt = corpus.prompt(i, 12 + rng.next_below(21));  // 12..32 tokens
    r.max_new_tokens = 4 + rng.next_below(5);              // 4..8
    const std::size_t worst =
        (r.prompt.size() + r.max_new_tokens + 7) / 8;
    max_worst_blocks = std::max(max_worst_blocks, worst);
    c.requests.push_back(std::move(r));
  }
  // Pool dimension: from "one sequence's worst case" (maximum thrash) to
  // roomy (occasional eviction). Every request fits alone, so none reject.
  c.pool_blocks = max_worst_blocks + rng.next_below(6);  // worst .. worst+5
  return c;
}

TEST(ChaosFuzz, TieredEpisodesReplayExactlyAndDrainTheLedger) {
  const auto weights = small_weights();
  std::size_t total_evictions = 0;
  std::size_t total_hits = 0;
  std::size_t total_misses = 0;
  std::size_t preemption_off_cases = 0;

  for (std::uint64_t case_id = 0; case_id < 16; ++case_id) {
    SCOPED_TRACE(testing::Message() << "tiered fuzz case " << case_id);
    const TieredFuzzCase c = derive_tiered_case(case_id);
    Rng format_rng(0xBEEF + case_id);
    HackAttentionConfig attn;
    attn.pi = 32;
    const int kv_bits_options[] = {2, 4, 8};
    attn.kv_bits = kv_bits_options[format_rng.next_below(3)];
    attn.summation_elimination = format_rng.next_below(2) == 0;
    attn.requant_elimination = format_rng.next_below(2) == 0;
    const auto maker = [&] {
      return make_hack_layer_backend(attn, 7);
    };

    const auto run_tiered = [&](ServingReport* report) {
      BlockAllocator pool(c.pool_blocks, 256);
      ServingEngine engine(weights, maker, c.ec, &pool);
      for (const ServingRequest& r : c.requests) engine.submit(r);
      *report = engine.run();
      EXPECT_EQ(pool.blocks_free(), c.pool_blocks);  // fully drained
    };
    ServingReport a, b;
    run_tiered(&a);
    run_tiered(&b);

    // Never-evicted reference: same chunk schedule, no pool constraint.
    ServingEngineConfig ref_cfg = c.ec;
    ref_cfg.scheduler.tiered = false;
    ServingEngine reference(weights, maker, ref_cfg, nullptr);
    for (const ServingRequest& r : c.requests) reference.submit(r);
    const ServingReport ref = reference.run();

    // ---- Replay: bitwise-identical tokens, schedule, and counters. ----
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "request " << i);
      EXPECT_EQ(a.requests[i].generated, b.requests[i].generated);
      EXPECT_EQ(a.requests[i].evictions, b.requests[i].evictions);
      EXPECT_EQ(a.requests[i].rehydrations, b.requests[i].rehydrations);
      EXPECT_EQ(a.requests[i].prefetch_hits, b.requests[i].prefetch_hits);
    }
    EXPECT_EQ(a.engine.swap_events, b.engine.swap_events);
    EXPECT_EQ(a.engine.tier.evictions, b.engine.tier.evictions);
    EXPECT_EQ(a.engine.tier.bytes_swapped_out,
              b.engine.tier.bytes_swapped_out);
    EXPECT_EQ(a.engine.tier.far_bytes_peak, b.engine.tier.far_bytes_peak);

    // ---- Ledger exactness: the tier drains with nothing left over. ----
    EXPECT_EQ(a.engine.tier.evictions, a.engine.tier.rehydrations);
    EXPECT_EQ(a.engine.tier.bytes_swapped_out,
              a.engine.tier.bytes_swapped_in);
    EXPECT_EQ(a.engine.tier.prefetch_hits + a.engine.tier.prefetch_misses,
              a.engine.tier.rehydrations);
    EXPECT_EQ(a.engine.kv_bytes_admitted, a.engine.kv_bytes_released);
    std::size_t per_request_evictions = 0;
    for (const ServingRecord& rec : a.requests) {
      per_request_evictions += rec.evictions;
    }
    EXPECT_EQ(per_request_evictions, a.engine.tier.evictions);
    if (!c.ec.scheduler.prefetch) {
      EXPECT_EQ(a.engine.tier.prefetch_hits, 0u);
    }

    // ---- Bit-identity: eviction under pressure changed no tokens. ----
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "request " << i);
      EXPECT_EQ(a.requests[i].state, RequestState::kFinished);
      EXPECT_EQ(a.requests[i].generated, ref.requests[i].generated);
    }

    total_evictions += a.engine.tier.evictions;
    total_hits += a.engine.tier.prefetch_hits;
    total_misses += a.engine.tier.prefetch_misses;
    if (!c.ec.scheduler.preemption) ++preemption_off_cases;
  }

  // Corpus-wide non-vacuousness: pressure actually evicted, prefetch both
  // hit and missed, and the preemption-off dimension was drawn.
  EXPECT_GT(total_evictions, 0u);
  EXPECT_GT(total_hits, 0u);
  EXPECT_GT(total_misses, 0u);
  EXPECT_GT(preemption_off_cases, 0u);
}

}  // namespace
}  // namespace hack
