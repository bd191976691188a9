// Table 8: sensitivity to HACK's quantization partition size — the increase
// in accuracy and in average JCT for Π=32 and Π=64 relative to Π=128
// (Llama-3.1 70B, A10G prefill). Accuracy uses the tiny-transformer
// substrate (see bench_table6_accuracy); JCT uses the cluster simulator,
// where smaller Π costs metadata volume and tensor-core tile efficiency.
#include "accuracy_util.h"
#include "bench_util.h"

using namespace hack;
using namespace hack::bench;

namespace {

struct Scenario {
  std::string dataset;
  std::size_t prompt_len;
  std::size_t gen_len;
};

// Prompts are kept >= 2x the largest Π so every arm actually quantizes V;
// with a prompt shorter than Π, the Π=128 arm would hold V entirely in the
// RQE FP16 tail and win by not quantizing at all.
const Scenario kScenarios[] = {
    {"IMDb", 288, 16},
    {"arXiv", 320, 32},
    {"Cocktail", 384, 28},
    {"HumanEval", 272, 32},
};

// Teacher-forced logit fidelity vs the exact reference, averaged over runs
// (continuous metric; token flips are too coarse for sub-point deltas).
double accuracy_for_pi(const Scenario& sc, std::size_t pi) {
  SyntheticCorpus corpus({.vocab = 256}, 99);
  double fidelity = 0.0;
  constexpr int kRuns = 4;
  for (int run = 0; run < kRuns; ++run) {
    const TinyConfig cfg = accuracy_model_config(20 + run);
    const auto prompt =
        corpus.prompt(static_cast<std::size_t>(run), sc.prompt_len);
    const auto ref = reference_tokens(cfg, prompt, sc.gen_len);
    HackAttentionConfig hc;
    hc.pi = pi;
    // Deterministic rounding isolates the partition-size effect; stochastic
    // rounding noise between arms would otherwise swamp sub-point deltas.
    hc.rounding = Rounding::kNearest;
    fidelity += logit_fidelity(cfg, make_hack_layer_backend(hc, 900 + run),
                               prompt, ref) /
                kRuns;
  }
  return fidelity;
}

}  // namespace

int main() {
  Table t("Table 8: Π=32 / Π=64 vs Π=128 (accuracy delta, JCT delta)");
  t.header({"dataset", "pi", "acc_delta", "jct_delta"});
  for (const Scenario& sc : kScenarios) {
    const double acc128 = accuracy_for_pi(sc, 128);
    ClusterConfig base128 =
        standard_cluster("A10G", "L", sc.dataset, Method::kHack);
    base128.pi = 128;
    const double jct128 = run(base128).avg_jct_s;
    for (const std::size_t pi : {32u, 64u}) {
      const double acc = accuracy_for_pi(sc, pi);
      ClusterConfig config =
          standard_cluster("A10G", "L", sc.dataset, Method::kHack);
      config.pi = pi;
      const double jct = run(config).avg_jct_s;
      t.row({sc.dataset, std::to_string(pi),
             fmt(100.0 * (acc - acc128), 2) + "pp",
             pct(jct / jct128 - 1.0)});
    }
  }
  t.print();
  return 0;
}
