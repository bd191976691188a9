// Cross-module integration tests: the properties that only hold when the
// whole stack composes correctly.
#include <gtest/gtest.h>

#include <cmath>

#include "attention/hack_attention.h"
#include "base/check.h"
#include "cluster/simulator.h"
#include "metrics/text_metrics.h"
#include "model/tiny_transformer.h"
#include "workload/corpus.h"
#include "workload/trace.h"

namespace hack {
namespace {

TEST(Integration, TraceReplayReproducesSimulation) {
  // Recording a workload, serializing it to text, and replaying it through
  // the simulator must give bit-identical JCTs: the simulator's only
  // stochastic input is the arrival sequence.
  ClusterConfig config =
      standard_cluster("A10G", "L", "arXiv", Method::kHack);
  config.num_requests = 16;
  config.seed = 99;
  const SimSummary direct = run_cluster_sim(config);

  // The same seed regenerates the same trace text.
  Rng r1(config.seed), r2(config.seed);
  const Trace t1 = Trace::record(config.dataset, config.rps, 16, r1);
  const Trace t2 = Trace::parse(Trace::record(config.dataset, config.rps, 16,
                                              r2)
                                    .serialize());
  ASSERT_TRUE(t1 == t2);

  const SimSummary replay = run_cluster_sim(config);
  ASSERT_EQ(direct.records.size(), replay.records.size());
  for (std::size_t i = 0; i < direct.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct.records[i].completion,
                     replay.records[i].completion);
  }
}

TEST(Integration, WireBytesMatchCacheGrowth) {
  // The per-head wire accounting that the cluster simulator models
  // analytically must agree with what the real quantized state measures.
  HackAttentionConfig config;
  config.pi = 64;
  HackKvState state(128, config);
  Rng rng(5);
  const std::size_t tokens = 512;  // whole partitions: no FP16 tail
  state.append_tokens(Matrix::random_gaussian(tokens, 128, rng),
                      Matrix::random_gaussian(tokens, 128, rng), rng);
  const double fp16 = 2.0 * 2.0 * 128.0 * static_cast<double>(tokens);
  const double measured = static_cast<double>(state.wire_bytes()) / fp16;
  const double modeled = method_traits(Method::kHack, 64, 2).wire_fraction;
  EXPECT_NEAR(measured, modeled, 0.01);
}

TEST(Integration, TinyModelAccuracyOrderingMatchesTable6Mechanism) {
  // One end-to-end check of the Table 6 mechanism: finer partitions give
  // logits closer to the exact model's, aggregated over several seeds.
  SyntheticCorpus corpus({.vocab = 64}, 3);
  TinyConfig cfg;
  cfg.vocab = 64;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.kv_heads = 2;
  cfg.d_head = 128;
  cfg.d_ff = 256;

  auto fidelity = [&](std::size_t pi) {
    double total = 0.0;
    for (int run = 0; run < 2; ++run) {
      cfg.weight_seed = 100 + static_cast<std::uint64_t>(run);
      const auto prompt = corpus.prompt(static_cast<std::size_t>(run), 280);
      TinyTransformer exact(cfg, make_exact_backend());
      const auto ref = exact.generate(prompt, 12);

      HackAttentionConfig hc;
      hc.pi = pi;
      hc.rounding = Rounding::kNearest;
      TinyTransformer exact2(cfg, make_exact_backend());
      TinyTransformer quantized(cfg, make_hack_layer_backend(hc, 7));
      auto le = exact2.prefill(prompt);
      auto lq = quantized.prefill(prompt);
      for (const int tok : ref) {
        double dot = 0.0, ne = 0.0, nq = 0.0;
        for (std::size_t i = 0; i < le.size(); ++i) {
          dot += static_cast<double>(le[i]) * lq[i];
          ne += static_cast<double>(le[i]) * le[i];
          nq += static_cast<double>(lq[i]) * lq[i];
        }
        total += dot / std::sqrt(ne * nq);
        le = exact2.decode_step(tok);
        lq = quantized.decode_step(tok);
      }
    }
    return total;
  };
  const double fine = fidelity(32);
  const double coarse = fidelity(128);
  EXPECT_GT(fine, coarse);
}

TEST(Integration, SimulatorMethodSweepPreservesWorkload) {
  // Every method must see the identical arrival sequence and request shapes
  // (the paper compares methods at a fixed workload).
  const Method methods[] = {Method::kBaseline, Method::kCacheGen,
                            Method::kHack, Method::kFp8};
  std::vector<SimSummary> results;
  for (const Method m : methods) {
    ClusterConfig config = standard_cluster("L4", "M", "HumanEval", m);
    config.num_requests = 12;
    config.seed = 31;
    results.push_back(run_cluster_sim(config));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].records.size(), results[0].records.size());
    for (std::size_t r = 0; r < results[0].records.size(); ++r) {
      EXPECT_EQ(results[i].records[r].arrival, results[0].records[r].arrival);
      EXPECT_EQ(results[i].records[r].shape.input_tokens,
                results[0].records[r].shape.input_tokens);
    }
  }
}

TEST(Integration, AllModelsAllGpusProduceSaneConfigs) {
  // The full Table 2 x Table 3 grid builds valid clusters with positive
  // capacity estimates.
  for (const char* gpu : {"A10G", "V100", "T4", "L4", "A100"}) {
    for (const char* model : {"M", "P", "Y", "L", "F"}) {
      const char* dataset =
          std::string(model) == "F" ? "arXiv" : "Cocktail";  // 2K cap (§2.1)
      const ClusterConfig config =
          standard_cluster(gpu, model, dataset, Method::kHack);
      EXPECT_GE(config.prefill_replicas, 1) << gpu << model;
      EXPECT_GE(config.decode_replicas, 1) << gpu << model;
      EXPECT_GT(config.rps, 0.0) << gpu << model;
    }
  }
}

}  // namespace
}  // namespace hack
