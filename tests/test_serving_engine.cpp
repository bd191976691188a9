// Continuous-batching engine: scheduling determinism, shared weights,
// admission control, and lifecycle metrics.
//
// The load-bearing property is determinism: a request's generated tokens
// must not depend on what it was batched with, the thread count, or the
// prefill chunking — the engine is a scheduler, not a sampler. The contract
// (docs/serving.md) comes in two strengths:
//   - any backend, any rounding: continuous batching with whole-prompt
//     prefill is bit-identical to a solo TinyTransformer::generate(), and
//     chunked prefill is bit-identical to a solo run of the same chunk
//     schedule (tested as max_active=1 vs max_active=N);
//   - deterministic rounding (and RNG-free backends): chunked prefill is
//     bit-identical to generate() for every chunk size.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "base/check.h"
#include "model/tiny_transformer.h"
#include "serving/engine.h"
#include "serving/scheduler.h"
#include "workload/corpus.h"

namespace hack {
namespace {

TinyConfig small_config(std::size_t heads = 4, std::size_t kv_heads = 2) {
  TinyConfig c;
  c.vocab = 64;
  c.layers = 2;
  c.heads = heads;
  c.kv_heads = kv_heads;
  c.d_head = 32;
  c.d_ff = 128;
  return c;
}

HackAttentionConfig hack_config(Rounding rounding = Rounding::kStochastic) {
  HackAttentionConfig hc;
  hc.pi = 32;  // must divide d_head = 32
  hc.rounding = rounding;
  return hc;
}

std::vector<int> make_prompt(std::size_t len, std::size_t vocab,
                             std::uint64_t seed) {
  SyntheticCorpus corpus({.vocab = vocab}, seed);
  return corpus.prompt(0, len);
}

struct TestRequest {
  std::size_t prompt_len;
  std::size_t max_new;
};

std::vector<ServingRequest> make_requests(
    const std::vector<TestRequest>& shapes, std::size_t vocab) {
  std::vector<ServingRequest> reqs;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    ServingRequest r;
    r.id = i;
    r.prompt = make_prompt(shapes[i].prompt_len, vocab, 100 + i);
    r.max_new_tokens = shapes[i].max_new;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

using FactoryMaker = std::function<LayerBackendFactory()>;

// Solo baseline: a fresh TinyTransformer over the same shared weights and an
// identically seeded backend factory.
std::vector<int> solo_generate(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const FactoryMaker& maker, const ServingRequest& req) {
  TinyTransformer model(weights, maker());
  return model.generate(req.prompt, req.max_new_tokens, req.eos);
}

std::map<std::uint64_t, std::vector<int>> run_engine(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const FactoryMaker& maker, const std::vector<ServingRequest>& reqs,
    const ServingEngineConfig& config, BlockAllocator* allocator = nullptr,
    ServingReport* report_out = nullptr) {
  ServingEngine engine(weights, maker, config, allocator);
  for (const ServingRequest& r : reqs) engine.submit(r);
  ServingReport report = engine.run();
  std::map<std::uint64_t, std::vector<int>> out;
  for (const ServingRecord& rec : report.requests) {
    out[rec.request.id] = rec.generated;
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return out;
}

// ------------------------------------------------------------- scheduler

TEST(Scheduler, ChunkPolicyNeverMakesSingleRowLaunches) {
  SchedulerConfig cfg;
  cfg.prefill_chunk_tokens = 4;
  const Scheduler sched(cfg);
  for (std::size_t prompt = 2; prompt <= 23; ++prompt) {
    std::size_t begin = 0;
    while (begin < prompt) {
      const std::size_t end = sched.chunk_end(begin, prompt);
      ASSERT_GT(end, begin);
      ASSERT_LE(end, prompt);
      // No single-row chunk of a multi-row prompt, no single-row remainder.
      EXPECT_GE(end - begin, 2u) << "prompt " << prompt << " at " << begin;
      EXPECT_NE(prompt - end, 1u) << "prompt " << prompt << " at " << begin;
      begin = end;
    }
  }
  // A one-token prompt is a single 1-row chunk (the solo path is flat too).
  EXPECT_EQ(sched.chunk_end(0, 1), 1u);
}

TEST(Scheduler, ChunkSizeOneStillProgresses) {
  SchedulerConfig cfg;
  cfg.prefill_chunk_tokens = 1;
  const Scheduler sched(cfg);
  EXPECT_EQ(sched.chunk_end(0, 5), 2u);  // floored to 2 rows
  EXPECT_EQ(sched.chunk_end(2, 5), 5u);  // 2 rows, then absorb the 1-row tail
}

TEST(Scheduler, PlanTakesAllDecodesAndOnePrefill) {
  SchedulerConfig cfg;
  cfg.prefill_chunk_tokens = 8;
  const Scheduler sched(cfg);
  const std::vector<Scheduler::SeqView> running = {
      {RequestState::kDecoding, 10, 10},
      {RequestState::kPrefill, 20, 4},
      {RequestState::kDecoding, 6, 6},
      {RequestState::kPrefill, 30, 0},  // second prefill waits its turn
  };
  const StepPlan plan = sched.plan(running);
  EXPECT_EQ(plan.decode, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(plan.prefill, 1u);
  EXPECT_EQ(plan.prefill_begin, 4u);
  EXPECT_EQ(plan.prefill_end, 12u);
}

TEST(Scheduler, AdmissionAgainstBlocks) {
  SchedulerConfig cfg;
  cfg.max_active = 4;
  cfg.block_tokens = 8;
  cfg.free_block_floor = 1;
  const Scheduler sched(cfg);
  BlockAllocator alloc(6, 64);
  ServingRequest req;
  req.prompt.assign(17, 0);   // 17 + 14 = 31 tokens -> 4 blocks
  req.max_new_tokens = 14;
  EXPECT_EQ(sched.blocks_needed(req), 4u);
  EXPECT_TRUE(sched.can_admit(req, 0, &alloc));
  (void)alloc.allocate();
  (void)alloc.allocate();  // 4 free left; 4 needed but floor=1 blocks it
  EXPECT_FALSE(sched.can_admit(req, 0, &alloc));
  EXPECT_TRUE(sched.can_ever_admit(req, &alloc));
  req.max_new_tokens = 60;  // 77 tokens -> 10 blocks > 6-block pool
  EXPECT_FALSE(sched.can_ever_admit(req, &alloc));
}

// ----------------------------------------------------- determinism sweeps

// Whole-prompt prefill: continuous batching must reproduce solo generate()
// bit-identically for every backend, including stochastic HACK, at any
// thread count and any batch composition. The HACK backend exposes a
// HackLayerKvState, so its runs take the fused cross-sequence attention
// launch; the other backends attend per sequence.
TEST(ServingEngine, MatchesSoloGenerateAcrossBackends) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const std::shared_ptr<const KvCodec> codec = make_codec("cachegen");
  const std::vector<std::pair<std::string, FactoryMaker>> backends = {
      {"hack-layer",
       [] { return make_hack_layer_backend(hack_config(), 7); }},
      {"fp16", make_fp16_backend},
      {"codec", [codec] { return make_codec_backend(codec, 11); }},
      {"minifloat",
       [] { return make_minifloat_backend(MiniFloatFormat::kFp8E4M3); }},
  };
  // Second input: 16 lanes and a 128-row chunk (every prompt still fits
  // one chunk), so a mixed step stacks up to 15 decode rows on a prefill
  // chunk and the stacked dense rows cross register-tile and column-panel
  // edges.
  struct Input {
    std::vector<ServingRequest> reqs;
    std::size_t chunk, max_active;
  };
  const std::vector<Input> inputs = {
      {make_requests({{24, 10}, {17, 8}, {31, 12}, {1, 6}}, cfg.vocab), 256,
       8},
      {make_requests({{128, 5}, {9, 7}, {33, 4}, {100, 6}, {1, 5}, {64, 4},
                      {65, 6}, {127, 3}, {17, 5}, {7, 8}, {120, 4}, {40, 6},
                      {6, 5}, {90, 4}, {12, 7}, {77, 5}},
                     cfg.vocab),
       128, 16},
  };

  for (const Input& input : inputs) {
    for (const auto& [name, maker] : backends) {
      for (const int threads : {0, 1}) {
        ServingEngineConfig ec;
        ec.scheduler.prefill_chunk_tokens = input.chunk;  // whole prompts
        ec.scheduler.max_active = input.max_active;
        ec.threads = threads;
        ServingReport report;
        const auto got =
            run_engine(weights, maker, input.reqs, ec, nullptr, &report);
        for (const ServingRequest& r : input.reqs) {
          EXPECT_EQ(got.at(r.id), solo_generate(weights, maker, r))
              << name << " request " << r.id << " threads " << threads
              << " lanes " << input.max_active;
        }
        if (name == "hack-layer") {
          EXPECT_GT(report.engine.fused_attend_launches, 0u) << name;
        } else {
          EXPECT_EQ(report.engine.fused_attend_launches, 0u) << name;
        }
      }
    }
  }
}

// Deterministic rounding: chunked prefill is bit-identical to generate()
// for every chunk size — the scheduler's chunk policy keeps every prompt row
// on the same kernel (streaming vs flat) a whole-prompt prefill uses.
TEST(ServingEngine, ChunkedPrefillMatchesGenerateUnderNearestRounding) {
  for (const auto& [heads, kv_heads] : std::vector<std::pair<std::size_t,
                                                             std::size_t>>{
           {4, 2}, {2, 2}}) {
    const TinyConfig cfg = small_config(heads, kv_heads);
    const auto weights = make_tiny_weights(cfg);
    const std::vector<std::pair<std::string, FactoryMaker>> backends = {
        {"hack-layer-nearest",
         [] {
           return make_hack_layer_backend(hack_config(Rounding::kNearest), 7);
         }},
        {"fp16", make_fp16_backend},
    };
    const auto reqs = make_requests({{23, 8}, {17, 6}, {8, 5}}, cfg.vocab);
    for (const auto& [name, maker] : backends) {
      std::map<std::uint64_t, std::vector<int>> solo;
      for (const ServingRequest& r : reqs) {
        solo[r.id] = solo_generate(weights, maker, r);
      }
      for (const std::size_t chunk : {1u, 2u, 3u, 5u, 7u, 16u, 64u}) {
        ServingEngineConfig ec;
        ec.scheduler.prefill_chunk_tokens = chunk;
        const auto got = run_engine(weights, maker, reqs, ec);
        for (const ServingRequest& r : reqs) {
          EXPECT_EQ(got.at(r.id), solo.at(r.id))
              << name << " request " << r.id << " chunk " << chunk
              << " heads " << heads << "/" << kv_heads;
        }
      }
    }
  }
}

// Stochastic rounding with chunked prefill: the chunk schedule changes the
// RNG consumption (so generate() is not the baseline), but scheduling and
// batching still must not — a request interleaved with three others decodes
// the exact tokens of the same request running through the engine alone.
TEST(ServingEngine, ChunkedSchedulingInvariantUnderStochasticRounding) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const std::shared_ptr<const KvCodec> codec = make_codec("kvquant");
  const std::vector<std::pair<std::string, FactoryMaker>> backends = {
      {"hack-layer",
       [] { return make_hack_layer_backend(hack_config(), 7); }},
      {"codec", [codec] { return make_codec_backend(codec, 11); }},
  };
  const auto reqs = make_requests(
      {{23, 8}, {17, 6}, {31, 7}, {12, 5}}, cfg.vocab);
  for (const auto& [name, maker] : backends) {
    ServingEngineConfig batched, alone;
    batched.scheduler.prefill_chunk_tokens = 5;
    batched.scheduler.max_active = 4;
    alone.scheduler.prefill_chunk_tokens = 5;
    alone.scheduler.max_active = 1;  // solo run of the same chunk schedule
    const auto together = run_engine(weights, maker, reqs, batched);
    const auto sequential = run_engine(weights, maker, reqs, alone);
    EXPECT_EQ(together, sequential) << name;
  }
}

TEST(ServingEngine, EosStopsGenerationLikeGenerate) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = make_exact_backend;
  ServingRequest probe;
  probe.prompt = make_prompt(16, cfg.vocab, 200);
  probe.max_new_tokens = 12;
  const auto unbounded = solo_generate(weights, maker, probe);
  ASSERT_GE(unbounded.size(), 2u);
  ServingRequest stopped = probe;
  stopped.eos = unbounded[1];
  const auto got = run_engine(weights, maker, {stopped},
                              ServingEngineConfig{});
  EXPECT_EQ(got.at(0), solo_generate(weights, maker, stopped));
  EXPECT_LT(got.at(0).size(), unbounded.size());
}

// ------------------------------------------------- shared weights / memory

TEST(ServingEngine, SessionsShareOneWeightInstance) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const long base_count = weights.use_count();
  TinyModelSession a(weights, make_exact_backend());
  TinyModelSession b(weights, make_exact_backend());
  // Pointer identity: both sessions read the same parameter object.
  EXPECT_EQ(&a.weights(), weights.get());
  EXPECT_EQ(&a.weights(), &b.weights());
  EXPECT_EQ(weights.use_count(), base_count + 2);  // refs, not copies
  EXPECT_GT(weights->weight_bytes(), 0u);

  // TinyTransformer wrappers built from the same pointer share it too.
  TinyTransformer t1(weights, make_exact_backend());
  TinyTransformer t2(weights, make_exact_backend());
  EXPECT_EQ(&t1.session().weights(), &t2.session().weights());

  // And the engine's sessions all hang off the caller's instance: after a
  // run with 4 concurrent requests, no copy survives.
  ServingEngine engine(weights, make_exact_backend, ServingEngineConfig{});
  for (auto& r : make_requests({{8, 4}, {9, 4}, {10, 4}, {11, 4}},
                               cfg.vocab)) {
    engine.submit(std::move(r));
  }
  const ServingReport report = engine.run();
  EXPECT_EQ(report.engine.peak_running, 4u);
  EXPECT_EQ(weights.use_count(), base_count + 2 + 2 + 1);  // a,b,t1,t2,engine
}

// --------------------------------------------------- admission + metrics

TEST(ServingEngine, AdmissionRespectsBlockPoolAndReleasesEverything) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return make_hack_layer_backend(hack_config(), 7);
  };
  // Each request: 16 + 8 = 24 tokens over 8-token blocks -> 3 blocks. A
  // 7-block pool runs at most 2 requests at once.
  ServingEngineConfig ec;
  ec.scheduler.block_tokens = 8;
  ec.scheduler.max_active = 8;
  ec.scheduler.prefill_chunk_tokens = 256;
  BlockAllocator alloc(7, 1024);
  const auto reqs = make_requests(
      {{16, 8}, {16, 8}, {16, 8}, {16, 8}}, cfg.vocab);
  ServingReport report;
  const auto got = run_engine(weights, maker, reqs, ec, &alloc, &report);
  for (const ServingRequest& r : reqs) {
    EXPECT_EQ(got.at(r.id), solo_generate(weights, maker, r)) << r.id;
  }
  EXPECT_LE(report.engine.peak_running, 2u);
  EXPECT_EQ(report.engine.kv_bytes_admitted, 4u * 3u * 1024u);
  EXPECT_EQ(report.engine.kv_bytes_released,
            report.engine.kv_bytes_admitted);
  EXPECT_EQ(alloc.blocks_in_use(), 0u);
  EXPECT_LE(alloc.min_free_watermark(), 1u);  // two residents = 6 of 7 blocks
}

TEST(ServingEngine, OversizedRequestIsRejectedNotWedged) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = make_fp16_backend;
  ServingEngineConfig ec;
  ec.scheduler.block_tokens = 8;
  BlockAllocator alloc(4, 256);  // 32-token capacity
  auto reqs = make_requests({{16, 8}, {40, 30}}, cfg.vocab);  // 2nd: 9 blocks
  ServingReport report;
  const auto got = run_engine(weights, maker, reqs, ec, &alloc, &report);
  EXPECT_EQ(got.at(0), solo_generate(weights, maker, reqs[0]));
  EXPECT_TRUE(got.at(1).empty());
  EXPECT_EQ(report.engine.rejected, 1u);
  EXPECT_EQ(report.requests[1].state, RequestState::kRejected);
  EXPECT_EQ(alloc.blocks_in_use(), 0u);
}

TEST(ServingEngine, LifecycleTimestampsAndRollups) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = [] {
    return make_hack_layer_backend(hack_config(), 7);
  };
  ServingEngineConfig ec;
  ec.scheduler.prefill_chunk_tokens = 8;
  const auto reqs = make_requests({{20, 6}, {13, 5}, {9, 4}}, cfg.vocab);
  ServingReport report;
  (void)run_engine(weights, maker, reqs, ec, nullptr, &report);

  std::size_t tbt_count = 0;
  for (const ServingRecord& rec : report.requests) {
    ASSERT_EQ(rec.state, RequestState::kFinished);
    EXPECT_EQ(rec.generated.size(), rec.request.max_new_tokens);
    EXPECT_EQ(rec.token_times_s.size(), rec.generated.size());
    EXPECT_GE(rec.admit_time_s, rec.request.arrival_time_s);
    EXPECT_GE(rec.first_token_time_s, rec.admit_time_s);
    EXPECT_GE(rec.finish_time_s, rec.first_token_time_s);
    EXPECT_GE(rec.ttft_s(), 0.0);
    EXPECT_GE(rec.jct_s(), rec.ttft_s());
    for (const double gap : rec.tbt_s()) EXPECT_GE(gap, 0.0);
    tbt_count += rec.tbt_s().size();
  }
  EXPECT_EQ(report.ttft_s.count, reqs.size());
  EXPECT_EQ(report.jct_s.count, reqs.size());
  EXPECT_EQ(report.tbt_s.count, tbt_count);
  EXPECT_EQ(report.total_generated, 6u + 5u + 4u);
  EXPECT_GT(report.tokens_per_s, 0.0);
  EXPECT_GT(report.decode_tokens_per_s, 0.0);
  EXPECT_GT(report.goodput_rps, 0.0);
  EXPECT_GT(report.engine.prefill_chunks, reqs.size());  // chunked prompts
  EXPECT_GT(report.makespan_s, 0.0);
}

TEST(ServingEngine, StaggeredArrivalsAreHonored) {
  const TinyConfig cfg = small_config();
  const auto weights = make_tiny_weights(cfg);
  const FactoryMaker maker = make_fp16_backend;
  auto reqs = make_requests({{12, 4}, {12, 4}}, cfg.vocab);
  reqs[1].arrival_time_s = 0.05;
  ServingReport report;
  const auto got = run_engine(weights, maker, reqs, ServingEngineConfig{},
                              nullptr, &report);
  for (const ServingRequest& r : reqs) {
    EXPECT_EQ(got.at(r.id), solo_generate(weights, maker, r));
  }
  EXPECT_GE(report.requests[1].admit_time_s, 0.05);
}

}  // namespace
}  // namespace hack
