// Fault-tolerant disaggregated serving: the recovery contract.
//
// The contract (docs/robustness.md): under any injected fault schedule that
// does not exhaust the retry budget, every request completes with a token
// stream bit-identical to the fault-free run, and the report's fault counters
// equal the FaultModel's injection ledger exactly. When the budget does
// exhaust (or the deadline passes, or the decode pool rejects), the request
// degrades to a local decode on the prefill worker — still bit-identical,
// because the fallback rehydrates the same blob the wire would have carried.
//
// The pair is the default 1×1 FleetEngine: one prefill worker, one decode
// worker, and the single link (0, 0) whose FaultModel carries the configured
// seed. A pool's sole worker restarts on re-dispatch instead of waiting out
// a health cooldown, so every crash below costs exactly one retry round.
#include <gtest/gtest.h>

#include "model/tiny_transformer.h"
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

DisaggConfig base_config() {
  DisaggConfig dc;
  dc.attn.pi = 32;
  dc.attn.kv_bits = 4;
  dc.attn.summation_elimination = true;
  dc.attn.requant_elimination = true;
  // Small chunks so every blob rides the wire in several pieces and a
  // scripted chunk fate is a *partial* loss.
  dc.transfer_chunk_bytes = 2048;
  return dc;
}

std::vector<ServingRequest> make_requests(std::size_t n, std::size_t vocab) {
  SyntheticCorpus corpus({.vocab = vocab}, 42);
  std::vector<ServingRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    ServingRequest r;
    r.prompt = corpus.prompt(i, 40 + 7 * (i % 3));
    r.max_new_tokens = 6 + (i % 4);
    r.arrival_time_s = 0.01 * static_cast<double>(i);
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// The single prefill→decode pair over `dc`.
FleetEngine single_pair(const std::shared_ptr<const TinyModelWeights>& weights,
                      const DisaggConfig& dc) {
  FleetConfig fc;
  fc.worker = dc;
  return FleetEngine(weights, fc);
}

// One request through the pair; worker timelines persist across calls.
DisaggRecord serve(FleetEngine& engine, const ServingRequest& request) {
  FleetReport report = engine.run({request});
  EXPECT_EQ(report.requests.size(), 1u);
  return std::move(report.requests[0].d);
}

// The fault-free reference: same engine, perfect wire.
std::vector<std::vector<int>> reference_tokens(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const DisaggConfig& dc, const std::vector<ServingRequest>& reqs) {
  DisaggConfig clean = dc;
  clean.transfer_faults = {};
  FleetEngine engine = single_pair(weights, clean);
  const FleetReport report = engine.run(reqs);
  std::vector<std::vector<int>> out;
  for (const FleetRecord& rec : report.requests) {
    EXPECT_FALSE(rec.d.rejected);
    out.push_back(rec.d.generated);
  }
  return out;
}

// ------------------------------------------------------------- chaos contract

TEST(DisaggFaults, ChaosScheduleIsBitIdenticalAndLedgerExact) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  const auto reqs = make_requests(6, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  dc.transfer_faults.chunk_drop_prob = 0.25;
  dc.transfer_faults.chunk_corrupt_prob = 0.10;
  dc.transfer_faults.latency_spike_prob = 0.20;
  dc.transfer_faults.latency_spike_s = 0.005;
  dc.transfer_faults.seed = 0xC4A05;
  dc.retry.max_retries = 16;  // roomy: the schedule must not exhaust it
  FleetEngine engine = single_pair(weights, dc);
  const FleetReport report = engine.run(reqs);
  const FaultStats ledger = engine.fault_ledger();

  // The schedule actually injected faults (otherwise this test is vacuous).
  ASSERT_GT(ledger.drops, 0u);
  ASSERT_GT(ledger.corruptions, 0u);

  // Every request completed over the wire path, bit-identical to the
  // fault-free run.
  ASSERT_EQ(report.requests.size(), reqs.size());
  std::size_t drops = 0, corruptions = 0, retries = 0;
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    const DisaggRecord& rec = report.requests[i].d;
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_FALSE(rec.rejected);
    EXPECT_FALSE(rec.fallback_local);
    EXPECT_EQ(rec.generated, expected[i]);
    drops += rec.chunks_dropped;
    corruptions += rec.chunks_corrupted;
    retries += rec.retries;
  }

  // Report counters match the injection ledger exactly — nothing lost,
  // nothing double-counted.
  EXPECT_EQ(report.chunks_dropped_total, ledger.drops);
  EXPECT_EQ(report.chunks_corrupted_total, ledger.corruptions);
  EXPECT_EQ(report.chunks_dropped_total, drops);
  EXPECT_EQ(report.chunks_corrupted_total, corruptions);
  EXPECT_EQ(report.retries_total, retries);
  EXPECT_GT(report.retries_total, 0u);
  EXPECT_GT(report.retransmitted_bytes_total, 0u);
  // Corruption detection is the receiver CRC: at least one delivered-corrupt
  // blob was rejected, and never more rejections than injected corruptions.
  EXPECT_GT(report.crc_failures_total, 0u);
  EXPECT_LE(report.crc_failures_total, ledger.corruptions);
  EXPECT_EQ(report.fallbacks, 0u);
  EXPECT_EQ(report.deadline_misses, 0u);
}

TEST(DisaggFaults, SameSeedReplaysIdenticalEpisode) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.transfer_faults.chunk_drop_prob = 0.2;
  dc.transfer_faults.chunk_corrupt_prob = 0.1;
  dc.transfer_faults.seed = 99;
  dc.retry.max_retries = 16;
  const auto reqs = make_requests(4, 64);

  FleetEngine a = single_pair(weights, dc);
  FleetEngine b = single_pair(weights, dc);
  const FleetReport ra = a.run(reqs), rb = b.run(reqs);
  EXPECT_EQ(ra.retries_total, rb.retries_total);
  EXPECT_EQ(ra.chunks_dropped_total, rb.chunks_dropped_total);
  EXPECT_EQ(ra.chunks_corrupted_total, rb.chunks_corrupted_total);
  EXPECT_EQ(ra.crc_failures_total, rb.crc_failures_total);
  EXPECT_EQ(ra.retransmitted_bytes_total, rb.retransmitted_bytes_total);
  for (std::size_t i = 0; i < ra.requests.size(); ++i) {
    EXPECT_EQ(ra.requests[i].d.generated, rb.requests[i].d.generated);
    EXPECT_DOUBLE_EQ(ra.requests[i].d.backoff_s, rb.requests[i].d.backoff_s);
  }
}

// ------------------------------------------------------- scripted single faults

TEST(DisaggFaults, DroppedChunkRetransmitsOnlyTheMissingRange) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine = single_pair(weights, dc);
  engine.link_faults(0, 0).script_fate(1, ChunkFate::kDropped);
  const DisaggRecord rec = serve(engine, reqs[0]);

  EXPECT_FALSE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.chunks_dropped, 1u);
  EXPECT_EQ(rec.chunks_corrupted, 0u);
  EXPECT_EQ(rec.crc_failures, 0u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_GT(rec.backoff_s, 0.0);
  // Chunk-level recovery: only the lost range went out again.
  EXPECT_GT(rec.retransmitted_bytes, 0u);
  EXPECT_LT(rec.retransmitted_bytes, rec.wire_bytes / 2);
}

TEST(DisaggFaults, CorruptedChunkFailsCrcAndRetransmitsTheBlob) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine = single_pair(weights, dc);
  engine.link_faults(0, 0).script_fate(0, ChunkFate::kCorrupted);
  const DisaggRecord rec = serve(engine, reqs[0]);

  EXPECT_FALSE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.chunks_corrupted, 1u);
  // The transport delivered every chunk; the receiver's CRC caught the flip
  // and the whole blob was re-sent from the pristine source.
  EXPECT_EQ(rec.chunks_dropped, 0u);
  EXPECT_EQ(rec.crc_failures, 1u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_EQ(rec.retransmitted_bytes, rec.wire_bytes);
}

TEST(DisaggFaults, PrefillCrashReprefillsBitIdentically) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine = single_pair(weights, dc);
  engine.prefill_worker(0).inject_crash(0);
  const DisaggRecord rec = serve(engine, reqs[0]);

  EXPECT_FALSE(rec.rejected);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.prefill_crashes, 1u);
  EXPECT_EQ(rec.decode_crashes, 0u);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_EQ(rec.retransmitted_bytes, 0u);  // the crash was before the wire
}

TEST(DisaggFaults, DecodeCrashLosesTheBufferAndRetransmits) {
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine = single_pair(weights, dc);
  engine.decode_worker(0).inject_crash(0);
  const DisaggRecord rec = serve(engine, reqs[0]);

  EXPECT_FALSE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.decode_crashes, 1u);
  EXPECT_EQ(rec.retries, 1u);
  // The restarted worker's buffer is gone: full blob again.
  EXPECT_EQ(rec.retransmitted_bytes, rec.wire_bytes);
}

// --------------------------------------------------------- graceful degradation

TEST(DisaggFaults, RetryExhaustionFallsBackToLocalDecode) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.max_retries = 2;
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine = single_pair(weights, dc);
  engine.decode_worker(0).inject_crash(0, /*times=*/10);
  const DisaggRecord rec = serve(engine, reqs[0]);

  EXPECT_FALSE(rec.rejected);
  EXPECT_TRUE(rec.fallback_local);
  // Still the exact same tokens: the fallback decodes the same blob with the
  // same backend seed the decode worker would have used.
  EXPECT_EQ(rec.generated, expected[0]);
  EXPECT_EQ(rec.retries, 2u);           // the whole budget went to recovery
  EXPECT_EQ(rec.decode_crashes, 3u);    // initial try + 2 retries, all crashed
  EXPECT_GT(rec.jct_s, 0.0);
}

TEST(DisaggFaults, ExhaustionWithFallbackDisabledDropsTheRequest) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.max_retries = 1;
  dc.retry.fallback_local = false;

  FleetEngine engine = single_pair(weights, dc);
  engine.decode_worker(0).inject_crash(0, /*times=*/10);
  const DisaggRecord rec = serve(engine, make_requests(1, 64)[0]);
  EXPECT_TRUE(rec.rejected);
  EXPECT_FALSE(rec.fallback_local);
  EXPECT_TRUE(rec.generated.empty());
}

TEST(DisaggFaults, TransferDeadlineMissDegradesGracefully) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  // A deadline no wire can meet: even the clean transfer overruns it.
  dc.retry.transfer_deadline_s = 1e-12;
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, dc, reqs);

  FleetEngine engine = single_pair(weights, dc);
  const DisaggRecord rec = serve(engine, reqs[0]);
  EXPECT_FALSE(rec.rejected);
  EXPECT_TRUE(rec.deadline_missed);
  EXPECT_TRUE(rec.fallback_local);
  EXPECT_EQ(rec.generated, expected[0]);

  const FleetReport report = engine.run(reqs);
  EXPECT_EQ(report.deadline_misses, 1u);
  EXPECT_EQ(report.fallbacks, 1u);
}

TEST(DisaggFaults, PrefillCrashExhaustionRejectsOutright) {
  // With no prefill there is no blob, so there is nothing to degrade to.
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.max_retries = 1;
  FleetEngine engine = single_pair(weights, dc);
  engine.prefill_worker(0).inject_crash(0, /*times=*/10);
  const DisaggRecord rec = serve(engine, make_requests(1, 64)[0]);
  EXPECT_TRUE(rec.rejected);
  EXPECT_EQ(rec.prefill_crashes, 2u);  // initial try + 1 retry
  EXPECT_TRUE(rec.generated.empty());
}

// ------------------------------------------------------------------ accounting

TEST(DisaggFaults, ReportSurfacesDecodePoolPressure) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.block_tokens = 16;
  dc.decode_kv_blocks = 8;
  const auto reqs = make_requests(3, 64);

  FleetEngine engine = single_pair(weights, dc);
  const FleetReport report = engine.run(reqs);
  const BlockAllocator* pool = engine.decode_worker(0).allocator();
  ASSERT_NE(pool, nullptr);
  ASSERT_EQ(report.decode_workers.size(), 1u);
  const FleetWorkerStats& stats = report.decode_workers[0];
  EXPECT_EQ(stats.failed_allocations, pool->failed_allocations());
  EXPECT_EQ(stats.min_free_watermark, pool->min_free_watermark());
  // Requests decoded one at a time: the watermark shows the deepest single
  // reservation, and everything was released afterwards.
  EXPECT_LT(stats.min_free_watermark, 8u);
  EXPECT_EQ(pool->blocks_in_use(), 0u);
}

TEST(DisaggFaults, BackoffIsDeterministicPerSeed) {
  const auto weights = small_weights();
  DisaggConfig dc = base_config();
  dc.retry.jitter_seed = 5;
  const auto reqs = make_requests(1, 64);

  FleetEngine a = single_pair(weights, dc);
  a.link_faults(0, 0).script_fate(0, ChunkFate::kDropped);
  FleetEngine b = single_pair(weights, dc);
  b.link_faults(0, 0).script_fate(0, ChunkFate::kDropped);
  const double backoff_a = serve(a, reqs[0]).backoff_s;
  const double backoff_b = serve(b, reqs[0]).backoff_s;
  EXPECT_GT(backoff_a, 0.0);
  EXPECT_DOUBLE_EQ(backoff_a, backoff_b);

  DisaggConfig other = dc;
  other.retry.jitter_seed = 6;
  FleetEngine c = single_pair(weights, other);
  c.link_faults(0, 0).script_fate(0, ChunkFate::kDropped);
  EXPECT_NE(serve(c, reqs[0]).backoff_s, backoff_a);
}

}  // namespace
}  // namespace hack
