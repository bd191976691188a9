// Multi-replica disaggregated fleet: dispatch, failover, shedding.
//
// The fleet-wide contract (docs/robustness.md): any schedule of worker
// crashes, link faults, and down windows that does not exhaust a request's
// retry budget yields token streams bit-identical to the fault-free
// single-pair run; decode-worker failures re-route the serialized blob to a
// replica (never back through prefill); routing decisions are a pure
// function of (seed, kill schedule) so the same episode replays exactly; and
// the report's fault counters equal the sum of the per-link injection
// ledgers. When no decode pool can ever hold a request, admission control
// sheds it — local decode or reject, never a deadlock.
#include <gtest/gtest.h>

#include "model/tiny_transformer.h"
#include "serving/disagg.h"
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
  dc.transfer_chunk_bytes = 2048;  // several chunks per blob
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

// The contract's reference: the fault-free single pair (a 1×1 fleet). Fleet
// runs of any shape must reproduce these token streams bit-for-bit.
std::vector<std::vector<int>> reference_tokens(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const DisaggConfig& dc, const std::vector<ServingRequest>& reqs) {
  FleetConfig clean;
  clean.worker = dc;
  clean.worker.transfer_faults = {};
  FleetEngine engine(weights, clean);
  const FleetReport report = engine.run(reqs);
  std::vector<std::vector<int>> out;
  for (const FleetRecord& rec : report.requests) {
    EXPECT_FALSE(rec.d.rejected);
    out.push_back(rec.d.generated);
  }
  return out;
}

WorkerSnapshot snap(std::size_t index, WorkerHealth health,
                    std::size_t outstanding_bytes, double free_at_s = 0.0,
                    std::size_t free_kv_blocks = SIZE_MAX) {
  WorkerSnapshot s;
  s.index = index;
  s.health = health;
  s.outstanding_bytes = outstanding_bytes;
  s.free_at_s = free_at_s;
  s.free_kv_blocks = free_kv_blocks;
  return s;
}

// ------------------------------------------------------- dispatch policies

TEST(DispatchPolicies, RoundRobinRotatesWithCursor) {
  const std::vector<WorkerSnapshot> c = {snap(0, WorkerHealth::kHealthy, 0),
                                         snap(1, WorkerHealth::kHealthy, 0),
                                         snap(2, WorkerHealth::kHealthy, 0)};
  DispatchContext ctx;
  for (std::uint64_t cursor = 0; cursor < 6; ++cursor) {
    ctx.rr_cursor = cursor;
    EXPECT_EQ(dispatch_round_robin(ctx, c), cursor % 3);
  }
}

TEST(DispatchPolicies, RoundRobinSkipsWorseHealthTiers) {
  const std::vector<WorkerSnapshot> c = {snap(0, WorkerHealth::kHealthy, 0),
                                         snap(1, WorkerHealth::kSuspect, 0),
                                         snap(2, WorkerHealth::kHealthy, 0)};
  DispatchContext ctx;
  ctx.rr_cursor = 1;  // would land on the suspect worker
  EXPECT_EQ(dispatch_round_robin(ctx, c), 2u);
  // Only suspect workers left: the tier itself is eligible.
  const std::vector<WorkerSnapshot> all_suspect = {
      snap(3, WorkerHealth::kSuspect, 0), snap(4, WorkerHealth::kSuspect, 0)};
  ctx.rr_cursor = 1;
  EXPECT_EQ(dispatch_round_robin(ctx, all_suspect), 4u);
}

TEST(DispatchPolicies, LeastOutstandingBytesBreaksTiesDeterministically) {
  DispatchContext ctx;
  const std::vector<WorkerSnapshot> c = {
      snap(0, WorkerHealth::kHealthy, 100),
      snap(1, WorkerHealth::kHealthy, 50, /*free_at_s=*/2.0),
      snap(2, WorkerHealth::kHealthy, 50, /*free_at_s=*/1.0)};
  EXPECT_EQ(dispatch_least_outstanding_bytes(ctx, c), 2u);
  // A loaded healthy worker still beats an idle suspect one.
  const std::vector<WorkerSnapshot> tiers = {
      snap(0, WorkerHealth::kSuspect, 0),
      snap(1, WorkerHealth::kHealthy, 1000)};
  EXPECT_EQ(dispatch_least_outstanding_bytes(ctx, tiers), 1u);
}

TEST(DispatchPolicies, MostFreeBlocksPrefersHeadroom) {
  DispatchContext ctx;
  const std::vector<WorkerSnapshot> c = {
      snap(0, WorkerHealth::kHealthy, 0, 0.0, /*free_kv_blocks=*/5),
      snap(1, WorkerHealth::kHealthy, 10, 0.0, /*free_kv_blocks=*/9),
      snap(2, WorkerHealth::kHealthy, 0, 0.0, /*free_kv_blocks=*/9)};
  EXPECT_EQ(dispatch_most_free_blocks(ctx, c), 2u);  // tie → fewer bytes
}

TEST(DispatchPolicies, NamesRoundTrip) {
  EXPECT_STREQ(dispatch_policy_name(&dispatch_round_robin), "round_robin");
  EXPECT_STREQ(dispatch_policy_name(&dispatch_least_outstanding_bytes),
               "least_outstanding_bytes");
  EXPECT_STREQ(dispatch_policy_name(&dispatch_most_free_blocks),
               "most_free_blocks");
}

// --------------------------------------------------------- fault-free fleet

TEST(FleetEngine, FaultFreeFleetMatchesSinglePairBitIdentity) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 2;
  fc.decode_workers = 2;
  const auto reqs = make_requests(6, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  const FleetReport report = engine.run(reqs);

  ASSERT_EQ(report.requests.size(), reqs.size());
  std::size_t served = 0;
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    const FleetRecord& rec = report.requests[i];
    EXPECT_FALSE(rec.d.rejected);
    EXPECT_FALSE(rec.shed);
    EXPECT_EQ(rec.d.generated, expected[i]);
    EXPECT_EQ(rec.decode_route.size(), 1u);
    EXPECT_EQ(rec.prefill_route.size(), 1u);
  }
  EXPECT_EQ(report.reroutes_total, 0u);
  EXPECT_EQ(report.re_prefills_total, 0u);
  EXPECT_EQ(report.shed_total, 0u);
  EXPECT_EQ(report.health_transitions_total, 0u);

  ASSERT_EQ(report.decode_workers.size(), 2u);
  for (const FleetWorkerStats& s : report.decode_workers) {
    EXPECT_EQ(s.final_health, WorkerHealth::kHealthy);
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0 + 1e-9);
    served += s.served;
  }
  EXPECT_EQ(served, reqs.size());
  EXPECT_EQ(report.decode_workers[0].name, "decode0");
  EXPECT_EQ(report.prefill_workers[1].name, "prefill1");
}

// -------------------------------------------------------------- failover

TEST(FleetEngine, DecodeCrashReroutesBlobWithoutRePrefill) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 1;
  fc.decode_workers = 2;
  fc.decode_policy = &dispatch_round_robin;
  fc.health.down_cooldown_s = 1e9;  // a crashed worker stays down
  const auto reqs = make_requests(4, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  // Round-robin with no faults routes request r to decode worker r % 2;
  // request 1 lands on decode1 — kill it there, mid-handoff.
  engine.decode_worker(1).inject_crash(1);
  const FleetReport report = engine.run(reqs);

  ASSERT_EQ(report.requests.size(), reqs.size());
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_FALSE(report.requests[i].d.rejected);
    EXPECT_FALSE(report.requests[i].d.fallback_local);
    EXPECT_EQ(report.requests[i].d.generated, expected[i]);
  }
  // The killed handoff re-routed the already-serialized blob to the replica:
  // one reroute, a full-blob retransmit, and — the headline — zero
  // re-prefills.
  const FleetRecord& hit = report.requests[1];
  EXPECT_EQ(hit.decode_route, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(hit.reroutes, 1u);
  EXPECT_EQ(hit.d.decode_crashes, 1u);
  EXPECT_GT(hit.d.retransmitted_bytes, 0u);
  EXPECT_EQ(report.reroutes_total, 1u);
  EXPECT_EQ(report.decode_crashes_total, 1u);
  EXPECT_EQ(report.re_prefills_total, 0u);
  EXPECT_EQ(report.re_prefills_from_decode_crashes, 0u);
  // Later requests avoid the down worker.
  EXPECT_EQ(report.requests[2].decode_route, (std::vector<std::size_t>{0}));
  EXPECT_EQ(report.requests[3].decode_route, (std::vector<std::size_t>{0}));

  const FleetWorkerStats& dead = report.decode_workers[1];
  EXPECT_EQ(dead.crashes, 1u);
  EXPECT_EQ(dead.final_health, WorkerHealth::kDown);
  ASSERT_EQ(dead.transitions.size(), 1u);
  EXPECT_EQ(dead.transitions[0].from, WorkerHealth::kHealthy);
  EXPECT_EQ(dead.transitions[0].to, WorkerHealth::kDown);
  // decode0 served every request, including the rerouted one.
  EXPECT_EQ(report.decode_workers[0].served, reqs.size());
  EXPECT_EQ(dead.served, 0u);
}

TEST(FleetEngine, PrefillCrashFailsOverToSibling) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 2;
  fc.decode_workers = 1;
  fc.prefill_policy = &dispatch_round_robin;
  fc.health.down_cooldown_s = 1e9;
  const auto reqs = make_requests(4, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  engine.prefill_worker(0).inject_crash(0);  // round-robin sends request 0 here
  const FleetReport report = engine.run(reqs);

  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_FALSE(report.requests[i].d.rejected);
    EXPECT_EQ(report.requests[i].d.generated, expected[i]);
  }
  const FleetRecord& hit = report.requests[0];
  EXPECT_EQ(hit.prefill_route, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(hit.prefill_failovers, 1u);
  EXPECT_EQ(hit.re_prefills, 1u);  // the prompt had to run again
  EXPECT_EQ(report.prefill_failovers_total, 1u);
  EXPECT_EQ(report.re_prefills_total, 1u);
  EXPECT_EQ(report.prefill_crashes_total, 1u);
  EXPECT_EQ(report.prefill_workers[0].final_health, WorkerHealth::kDown);
  EXPECT_EQ(report.prefill_workers[1].served, reqs.size());
}

// ------------------------------------------------------------ determinism

TEST(FleetEngine, SameSeedAndKillScheduleReplaysRoutesAndCounters) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 2;
  fc.decode_workers = 2;
  fc.prefill_policy = &dispatch_round_robin;
  fc.decode_policy = &dispatch_round_robin;
  fc.health.down_cooldown_s = 1e9;
  fc.worker.transfer_faults.chunk_drop_prob = 0.15;
  fc.worker.transfer_faults.chunk_corrupt_prob = 0.05;
  fc.worker.transfer_faults.seed = 0xD15C;
  fc.worker.retry.max_retries = 16;
  const auto reqs = make_requests(6, 64);

  const auto episode = [&] {
    FleetEngine engine(weights, fc);
    engine.prefill_worker(0).inject_crash(1);
    engine.decode_worker(0).inject_crash(2);
    return engine.run(reqs);
  };
  const FleetReport a = episode();
  const FleetReport b = episode();

  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_EQ(a.requests[i].prefill_route, b.requests[i].prefill_route);
    EXPECT_EQ(a.requests[i].decode_route, b.requests[i].decode_route);
    EXPECT_EQ(a.requests[i].reroutes, b.requests[i].reroutes);
    EXPECT_EQ(a.requests[i].d.generated, b.requests[i].d.generated);
    EXPECT_EQ(a.requests[i].d.retries, b.requests[i].d.retries);
    // Bitwise-equal backoffs: the jitter streams replayed exactly.
    EXPECT_EQ(a.requests[i].d.backoff_s, b.requests[i].d.backoff_s);
  }
  EXPECT_EQ(a.reroutes_total, b.reroutes_total);
  EXPECT_EQ(a.prefill_failovers_total, b.prefill_failovers_total);
  EXPECT_EQ(a.chunks_dropped_total, b.chunks_dropped_total);
  EXPECT_EQ(a.crc_failures_total, b.crc_failures_total);
  EXPECT_EQ(a.health_transitions_total, b.health_transitions_total);
  EXPECT_GT(a.chunks_dropped_total, 0u);  // the schedule was not vacuous
}

// The replay contract extends to the checkpoint/migration machinery: same
// seed + same kill schedule (including a mid-decode kill) replays checkpoint
// counts, resume counts, migrations, and drains bitwise.
TEST(FleetEngine, SameSeedReplaysCheckpointAndMigrationCounters) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 2;
  fc.decode_workers = 2;
  fc.prefill_policy = &dispatch_round_robin;
  fc.decode_policy = &dispatch_round_robin;
  fc.health.down_cooldown_s = 1e9;
  fc.worker.checkpoint_every_tokens = 2;
  fc.worker.transfer_faults.chunk_drop_prob = 0.1;
  fc.worker.transfer_faults.chunk_corrupt_prob = 0.02;
  fc.worker.transfer_faults.seed = 0xCAFE;
  fc.worker.retry.max_retries = 16;
  const auto reqs = make_requests(6, 64);

  const auto episode = [&] {
    FleetEngine engine(weights, fc);
    // Arm the mid-decode kill on both replicas so it fires wherever request
    // 3 lands; the resume replays past the scripted count, so the second
    // worker's trap never triggers.
    engine.decode_worker(0).inject_crash_at_token(3, 2);
    engine.decode_worker(1).inject_crash_at_token(3, 2);
    return engine.run(reqs);
  };
  const FleetReport a = episode();
  const FleetReport b = episode();

  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_EQ(a.requests[i].decode_route, b.requests[i].decode_route);
    EXPECT_EQ(a.requests[i].d.generated, b.requests[i].d.generated);
    EXPECT_EQ(a.requests[i].d.checkpoints, b.requests[i].d.checkpoints);
    EXPECT_EQ(a.requests[i].d.checkpoint_bytes,
              b.requests[i].d.checkpoint_bytes);
    EXPECT_EQ(a.requests[i].d.resumes, b.requests[i].d.resumes);
    EXPECT_EQ(a.requests[i].d.tokens_replayed,
              b.requests[i].d.tokens_replayed);
    EXPECT_EQ(a.requests[i].d.tokens_recomputed,
              b.requests[i].d.tokens_recomputed);
    EXPECT_EQ(a.requests[i].migrations, b.requests[i].migrations);
    EXPECT_EQ(a.requests[i].drains, b.requests[i].drains);
  }
  EXPECT_EQ(a.checkpoints_total, b.checkpoints_total);
  EXPECT_EQ(a.checkpoint_bytes_total, b.checkpoint_bytes_total);
  EXPECT_EQ(a.checkpoint_failures_total, b.checkpoint_failures_total);
  EXPECT_EQ(a.resumes_total, b.resumes_total);
  EXPECT_EQ(a.tokens_replayed_total, b.tokens_replayed_total);
  EXPECT_EQ(a.tokens_recomputed_total, b.tokens_recomputed_total);
  EXPECT_EQ(a.migrations_total, b.migrations_total);
  EXPECT_EQ(a.drain_events_total, b.drain_events_total);
  // The schedule was non-vacuous: the mid-decode kill fired and a replica
  // resumed from a checkpoint.
  EXPECT_GE(a.decode_crashes_total, 1u);
  EXPECT_GE(a.resumes_total, 1u);
  EXPECT_GT(a.checkpoints_total, 0u);
  EXPECT_EQ(a.re_prefills_from_decode_crashes, 0u);
}

// Concurrent retries on different links draw independent jitter streams: a
// fault injected into one request never shifts another request's backoff
// draws. Under PR 6's engine-wide stream, request 0's recovery would consume
// draws and change request 3's backoff.
TEST(FleetEngine, RetryJitterStreamsAreIndependentAcrossRequests) {
  RetryPolicy policy;
  // Index 0 keeps the bare seed; other indices derive distinct streams.
  Rng bare(policy.jitter_seed);
  Rng derived0 = retry_jitter_rng(policy, 0);
  EXPECT_EQ(derived0.next_u64(), bare.next_u64());
  Rng one = retry_jitter_rng(policy, 1);
  Rng two = retry_jitter_rng(policy, 2);
  Rng one_again = retry_jitter_rng(policy, 1);
  const std::uint64_t d1 = one.next_u64();
  EXPECT_NE(d1, two.next_u64());
  EXPECT_EQ(d1, one_again.next_u64());

  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  const auto reqs = make_requests(4, 64);

  const auto run_with_crashes =
      [&](std::initializer_list<std::size_t> crash_at) {
        FleetEngine engine(weights, fc);
        for (const std::size_t index : crash_at) {
          engine.prefill_worker(0).inject_crash(index);
        }
        return engine.run(reqs);
      };
  const FleetReport both = run_with_crashes({0, 3});
  const FleetReport only3 = run_with_crashes({3});
  EXPECT_GT(both.requests[0].d.backoff_s, 0.0);
  EXPECT_GT(both.requests[3].d.backoff_s, 0.0);
  // Request 3's draws are unchanged by request 0's recovery activity.
  EXPECT_EQ(both.requests[3].d.backoff_s, only3.requests[3].d.backoff_s);
}

// A pool's sole worker is never filtered out as down: with no sibling to
// take the request, it restarts (down → recovering) when re-dispatched. A
// prefill crash on a 1×2 fleet therefore costs one retry backoff — not a
// wait for the (here effectively infinite) health cooldown plus a second
// retry round.
TEST(FleetEngine, SoleWorkerRestartsInsteadOfWaitingOutCooldown) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 1;
  fc.decode_workers = 2;
  fc.health.down_cooldown_s = 1e9;
  const auto reqs = make_requests(1, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  engine.prefill_worker(0).inject_crash(0);
  const FleetReport report = engine.run(reqs);

  ASSERT_EQ(report.requests.size(), 1u);
  const FleetRecord& rec = report.requests[0];
  EXPECT_FALSE(rec.d.rejected);
  EXPECT_EQ(rec.d.generated, expected[0]);
  EXPECT_EQ(rec.d.prefill_crashes, 1u);
  EXPECT_EQ(rec.d.retries, 1u);
  EXPECT_LT(rec.d.ttft_s, 1.0);
  EXPECT_EQ(rec.prefill_route, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(rec.prefill_failovers, 0u);

  // down at the crash, recovering on re-dispatch, healthy after the probe.
  const FleetWorkerStats& restarted = report.prefill_workers[0];
  ASSERT_EQ(restarted.transitions.size(), 3u);
  EXPECT_EQ(restarted.transitions[0].to, WorkerHealth::kDown);
  EXPECT_EQ(restarted.transitions[1].to, WorkerHealth::kRecovering);
  EXPECT_EQ(restarted.transitions[2].to, WorkerHealth::kHealthy);
  EXPECT_EQ(restarted.final_health, WorkerHealth::kHealthy);
}

// ------------------------------------------------------------- shedding

TEST(FleetEngine, OversizedRequestsAreShedNotDeadlocked) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 1;
  fc.decode_workers = 2;
  // Every pool is one block: no request (40+ prompt tokens, 16-token blocks)
  // can ever be admitted.
  fc.decode_pool_blocks = {1, 1};
  const auto reqs = make_requests(3, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  // Reject policy: shed before burning any prefill compute.
  fc.worker.retry.fallback_local = false;
  {
    FleetEngine engine(weights, fc);
    const FleetReport report = engine.run(reqs);
    EXPECT_EQ(report.shed_total, reqs.size());
    EXPECT_EQ(report.rejected, reqs.size());
    for (const FleetRecord& rec : report.requests) {
      EXPECT_TRUE(rec.shed);
      EXPECT_TRUE(rec.d.rejected);
      EXPECT_TRUE(rec.prefill_route.empty());
      EXPECT_EQ(rec.d.wire_bytes, 0u);
    }
  }

  // Local-decode policy: shed from the disaggregated path but still served,
  // bit-identical, on the prefill worker.
  fc.worker.retry.fallback_local = true;
  {
    FleetEngine engine(weights, fc);
    const FleetReport report = engine.run(reqs);
    EXPECT_EQ(report.shed_total, reqs.size());
    EXPECT_EQ(report.fallbacks, reqs.size());
    EXPECT_EQ(report.rejected, 0u);
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "request " << i);
      EXPECT_TRUE(report.requests[i].shed);
      EXPECT_TRUE(report.requests[i].d.fallback_local);
      EXPECT_EQ(report.requests[i].d.generated, expected[i]);
    }
    EXPECT_EQ(report.prefill_workers[0].served, reqs.size());
  }
}

TEST(FleetEngine, FreeBlockPolicyRoutesAroundExhaustedPools) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 1;
  fc.decode_workers = 2;
  fc.decode_policy = &dispatch_most_free_blocks;
  // decode0's pool can never hold a request; decode1's always can.
  fc.decode_pool_blocks = {1, 64};
  const auto reqs = make_requests(4, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  const FleetReport report = engine.run(reqs);
  EXPECT_EQ(report.shed_total, 0u);
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_EQ(report.requests[i].decode_route,
              (std::vector<std::size_t>{1}));
    EXPECT_EQ(report.requests[i].d.generated, expected[i]);
  }
  EXPECT_EQ(report.decode_workers[0].served, 0u);
  EXPECT_EQ(report.decode_workers[1].served, reqs.size());
}

// ------------------------------- checkpointing, crash-resume, live migration

// The tentpole acceptance path: a decode worker dies mid-generation after
// checkpoints have left it. The replica resumes from base blob + latest
// stored delta + replayed suffix — bit-identical tokens, at most one
// checkpoint window recomputed, and zero re-prefills.
TEST(DecodeWorker, StepsOnlyWhileATokenCanBeRecorded) {
  // n recorded tokens (the prefill's first one included) take n - 1 decode
  // steps: nothing runs after the max_new_tokens-th token, in the decode
  // worker as in TinyTransformer::generate, and both keep the same tokens.
  const auto weights = small_weights();
  const DisaggConfig dc = base_config();
  const ServingRequest req = make_requests(1, 64)[0];
  PrefillWorker prefill(weights, dc);
  const PrefillWorker::Result pre = prefill.prefill(req);

  DecodeWorker decode(weights, dc);
  const DecodeWorker::Result out = decode.decode(pre.blob, pre.first_token, req);
  ASSERT_EQ(out.generated.size(), req.max_new_tokens);
  EXPECT_EQ(out.kv_tokens, req.prompt.size() + req.max_new_tokens - 1);

  TinyTransformer solo(weights,
                       make_hack_layer_backend(dc.attn, dc.backend_seed));
  EXPECT_EQ(solo.generate(req.prompt, req.max_new_tokens), out.generated);
  EXPECT_EQ(solo.tokens_processed(),
            req.prompt.size() + req.max_new_tokens - 1);

  // The scripted mid-decode crash still fires at the last token's count.
  DecodeWorker crashing(weights, dc);
  crashing.inject_crash_at_token(0, req.max_new_tokens);
  try {
    (void)crashing.decode(pre.blob, pre.first_token, req);
    FAIL() << "no crash at the last token";
  } catch (const MidDecodeCrash& crash) {
    EXPECT_EQ(crash.tokens_decoded, req.max_new_tokens);
  }
}

TEST(FleetEngine, MidDecodeCrashResumesOnReplicaWithoutRePrefill) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 1;
  fc.decode_workers = 2;
  fc.decode_policy = &dispatch_round_robin;
  fc.health.down_cooldown_s = 1e9;  // the crashed worker stays down
  fc.worker.checkpoint_every_tokens = 2;
  const auto reqs = make_requests(4, 64);  // request 1: max_new = 7
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  // Round-robin routes request 1 to decode1; kill it after 5 decoded tokens.
  // Checkpoints at 2 and 4 left the worker before the crash, so the lost
  // window is exactly one token (5 − 4).
  engine.decode_worker(1).inject_crash_at_token(1, 5);
  const FleetReport report = engine.run(reqs);

  ASSERT_EQ(report.requests.size(), reqs.size());
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_FALSE(report.requests[i].d.rejected);
    EXPECT_FALSE(report.requests[i].d.fallback_local);
    EXPECT_EQ(report.requests[i].d.generated, expected[i]);
  }

  const FleetRecord& hit = report.requests[1];
  EXPECT_EQ(hit.decode_route, (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(hit.reroutes, 1u);
  EXPECT_EQ(hit.d.decode_crashes, 1u);
  // Checkpoints: cuts at 2 and 4 on the victim, then at 6 on the replica
  // (the resume keeps checkpointing past the replayed suffix).
  EXPECT_EQ(hit.d.checkpoints, 3u);
  EXPECT_GT(hit.d.checkpoint_bytes, 0u);
  EXPECT_EQ(hit.d.checkpoint_failures, 0u);
  EXPECT_EQ(hit.d.resumes, 1u);
  EXPECT_EQ(hit.d.tokens_replayed, 4u);    // the stored cut's suffix
  EXPECT_EQ(hit.d.tokens_recomputed, 1u);  // 5 decoded − 4 checkpointed
  EXPECT_EQ(hit.migrations, 1u);           // resumed on a different replica
  EXPECT_EQ(hit.drains, 0u);

  EXPECT_EQ(report.decode_crashes_total, 1u);
  EXPECT_EQ(report.resumes_total, 1u);
  EXPECT_EQ(report.migrations_total, 1u);
  EXPECT_EQ(report.tokens_replayed_total, 4u);
  EXPECT_EQ(report.tokens_recomputed_total, 1u);
  // The headline: a mid-decode crash never sends the prompt back through
  // prefill.
  EXPECT_EQ(report.re_prefills_total, 0u);
  EXPECT_EQ(report.re_prefills_from_decode_crashes, 0u);
  EXPECT_EQ(report.decode_workers[1].final_health, WorkerHealth::kDown);
}

// Proactive drain: link faults during the handoff demote the worker to
// suspect after dispatch picked it healthy. The worker decodes only to its
// first checkpoint cut; the request migrates live to the healthy replica and
// resumes from that cut — no tokens recomputed, no crash involved.
TEST(FleetEngine, ProactiveDrainMigratesLiveToHealthyReplica) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 1;
  fc.decode_workers = 2;
  fc.decode_policy = &dispatch_round_robin;
  fc.worker.checkpoint_every_tokens = 2;
  const auto reqs = make_requests(1, 64);  // request 0: max_new = 6
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  // Drop the first chunk of request 0's handoff on link (prefill0, decode0):
  // the retransmit round marks decode0 suspect (suspect_after = 1) after the
  // policy already committed the blob there.
  engine.link_faults(0, 0).script_fate(0, ChunkFate::kDropped);
  const FleetReport report = engine.run(reqs);

  ASSERT_EQ(report.requests.size(), 1u);
  const FleetRecord& rec = report.requests[0];
  EXPECT_FALSE(rec.d.rejected);
  EXPECT_EQ(rec.d.generated, expected[0]);

  // decode0 stopped at its first cut (2 tokens); decode1 resumed from it.
  EXPECT_EQ(rec.decode_route, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(rec.drains, 1u);
  EXPECT_EQ(rec.d.resumes, 1u);
  EXPECT_EQ(rec.migrations, 1u);
  EXPECT_EQ(rec.d.tokens_replayed, 2u);
  EXPECT_EQ(rec.d.tokens_recomputed, 0u);  // a drain loses nothing
  EXPECT_EQ(rec.d.decode_crashes, 0u);
  EXPECT_GE(rec.d.checkpoints, 2u);  // the drain cut + the replica's cuts
  EXPECT_EQ(report.drain_events_total, 1u);
  EXPECT_EQ(report.migrations_total, 1u);
  EXPECT_EQ(report.re_prefills_total, 0u);

  EXPECT_EQ(report.decode_workers[0].drains, 1u);
  EXPECT_EQ(report.decode_workers[0].served, 0u);
  EXPECT_EQ(report.decode_workers[0].final_health, WorkerHealth::kSuspect);
  EXPECT_EQ(report.decode_workers[1].served, 1u);
  EXPECT_GT(report.decode_workers[0].busy_s, 0.0);  // partial service booked
}

// Satellite regression: a worker that served its down cooldown re-enters the
// dispatch rotation. The stock policies prefer healthy workers, so without
// the engine's probe-then-readmit rule a recovering worker would starve on
// probation forever while its healthy sibling absorbed all traffic.
TEST(FleetEngine, RecoveringWorkerIsReadmittedAfterCooldown) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 1;
  fc.decode_workers = 2;
  fc.decode_policy = &dispatch_round_robin;
  fc.health.down_cooldown_s = 1e-6;  // recovers before the next dispatch
  fc.health.probation_successes = 1;
  const auto reqs = make_requests(6, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  FleetEngine engine(weights, fc);
  engine.decode_worker(1).inject_crash(1);  // round-robin sends request 1 here
  const FleetReport report = engine.run(reqs);

  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    EXPECT_FALSE(report.requests[i].d.rejected);
    EXPECT_EQ(report.requests[i].d.generated, expected[i]);
  }
  EXPECT_EQ(report.re_prefills_total, 0u);

  // decode1 walked the full trajectory: healthy → down (crash) → recovering
  // (cooldown) → healthy (probe served) — and served requests again.
  const FleetWorkerStats& revived = report.decode_workers[1];
  EXPECT_EQ(revived.crashes, 1u);
  EXPECT_EQ(revived.final_health, WorkerHealth::kHealthy);
  ASSERT_GE(revived.transitions.size(), 3u);
  EXPECT_EQ(revived.transitions[0].from, WorkerHealth::kHealthy);
  EXPECT_EQ(revived.transitions[0].to, WorkerHealth::kDown);
  EXPECT_EQ(revived.transitions[1].from, WorkerHealth::kDown);
  EXPECT_EQ(revived.transitions[1].to, WorkerHealth::kRecovering);
  EXPECT_EQ(revived.transitions[2].from, WorkerHealth::kRecovering);
  EXPECT_EQ(revived.transitions[2].to, WorkerHealth::kHealthy);
  EXPECT_GE(revived.served, 1u);
  // Some post-crash request actually landed on the readmitted worker.
  bool readmitted = false;
  for (std::size_t i = 2; i < report.requests.size(); ++i) {
    for (const std::size_t j : report.requests[i].decode_route) {
      if (j == 1) readmitted = true;
    }
  }
  EXPECT_TRUE(readmitted);
}

// ------------------------------------------------- 2×2 chaos acceptance run

// The PR's acceptance schedule: a 2×2 fleet under probabilistic drops and
// corruption, a link-down window on every link's early life, one scheduled
// prefill kill and one scheduled decode kill. Everything must complete over
// the wire path, bit-identical to the fault-free single-pair run, with zero
// re-prefills attributable to the decode crash and report counters equal to
// the summed per-link ledgers.
TEST(FleetEngine, ChaosTwoByTwoIsBitIdenticalWithZeroDecodeRePrefills) {
  const auto weights = small_weights();
  FleetConfig fc;
  fc.worker = base_config();
  fc.prefill_workers = 2;
  fc.decode_workers = 2;
  fc.prefill_policy = &dispatch_round_robin;
  fc.decode_policy = &dispatch_round_robin;
  fc.worker.transfer_faults.chunk_drop_prob = 0.05;
  fc.worker.transfer_faults.chunk_corrupt_prob = 0.01;
  fc.worker.transfer_faults.seed = 0xF1EE7;
  // Every link is dark for the first simulated second; early chunks wait the
  // window out (down_delays in the ledger) and mark the path suspect.
  fc.worker.transfer_faults.down_windows = {{0.0, 1.0}};
  fc.worker.retry.max_retries = 16;
  const auto reqs = make_requests(8, 64);
  const auto expected = reference_tokens(weights, fc.worker, reqs);

  // Probe run (same seeds, no kills) to learn which workers serve requests 1
  // and 3 — the chaos run replays identical routing up to the first kill, so
  // the scheduled crashes are guaranteed to fire mid-assignment.
  std::size_t decode_victim = 0;
  std::size_t prefill_victim = 0;
  {
    FleetEngine probe(weights, fc);
    const FleetReport r = probe.run(reqs);
    ASSERT_FALSE(r.requests[1].decode_route.empty());
    ASSERT_FALSE(r.requests[3].prefill_route.empty());
    decode_victim = r.requests[1].decode_route.front();
    prefill_victim = r.requests[3].prefill_route.front();
  }

  FleetEngine engine(weights, fc);
  engine.decode_worker(decode_victim).inject_crash(1);
  engine.prefill_worker(prefill_victim).inject_crash(3);
  // Belt-and-braces corruption: request 0's first transfer rides link
  // (prefill0, decode0); its first chunk arrives bit-flipped and the
  // receiver CRC must catch it.
  engine.link_faults(0, 0).script_fate(0, ChunkFate::kCorrupted);
  const FleetReport report = engine.run(reqs);

  ASSERT_EQ(report.requests.size(), reqs.size());
  for (std::size_t i = 0; i < report.requests.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "request " << i);
    const FleetRecord& rec = report.requests[i];
    EXPECT_FALSE(rec.d.rejected);
    EXPECT_FALSE(rec.d.fallback_local);
    EXPECT_FALSE(rec.shed);
    EXPECT_EQ(rec.d.generated, expected[i]);
  }

  // The scheduled kills fired where the probe said they would.
  EXPECT_EQ(report.requests[1].decode_route.front(), decode_victim);
  EXPECT_GE(report.requests[1].decode_route.size(), 2u);
  EXPECT_GE(report.requests[1].reroutes, 1u);
  EXPECT_EQ(report.requests[3].prefill_route.front(), prefill_victim);
  EXPECT_GE(report.requests[3].prefill_failovers, 1u);
  EXPECT_EQ(report.decode_crashes_total, 1u);
  EXPECT_EQ(report.prefill_crashes_total, 1u);

  // Zero re-prefills attributable to the decode crash: the only re-prefill
  // is the prefill kill's.
  EXPECT_EQ(report.re_prefills_total, 1u);
  EXPECT_EQ(report.re_prefills_from_decode_crashes, 0u);

  // Counters equal the summed per-link ledgers, and the schedule was
  // non-vacuous on every fault class.
  const FaultStats ledger = engine.fault_ledger();
  EXPECT_EQ(report.chunks_dropped_total, ledger.drops);
  EXPECT_EQ(report.chunks_corrupted_total, ledger.corruptions);
  EXPECT_GT(ledger.drops, 0u);
  EXPECT_GE(ledger.corruptions, 1u);
  EXPECT_GT(ledger.down_delays, 0u);
  EXPECT_GE(report.crc_failures_total, 1u);
  EXPECT_LE(report.crc_failures_total, ledger.corruptions);
  EXPECT_GT(report.health_transitions_total, 0u);
}

}  // namespace
}  // namespace hack
