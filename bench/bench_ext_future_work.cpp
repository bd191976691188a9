// Extension study (§8, Limitations and Future Work): the paper plans to
// explore quantization schemes beyond 2-bit (INT4 compute in CUDA) that
// trade a little compression for accuracy without the small-Π JCT penalty.
// The whole stack here is bit-width generic, so we can run that study today:
// HACK with 4-bit KV against 2-bit at several partition sizes — accuracy
// (teacher-forced logit fidelity), wire footprint, and end-to-end JCT.
#include "accuracy_util.h"
#include "bench_util.h"

using namespace hack;
using namespace hack::bench;

namespace {

double fidelity_for(int kv_bits, std::size_t pi) {
  SyntheticCorpus corpus({.vocab = 256}, 55);
  double total = 0.0;
  constexpr int kRuns = 3;
  for (int run = 0; run < kRuns; ++run) {
    const TinyConfig cfg = accuracy_model_config(60 + run);
    const auto prompt = corpus.prompt(static_cast<std::size_t>(run), 320);
    const auto ref = reference_tokens(cfg, prompt, 28);
    HackAttentionConfig hc;
    hc.pi = pi;
    hc.kv_bits = kv_bits;
    hc.rounding = Rounding::kNearest;
    total += logit_fidelity(cfg, make_hack_layer_backend(hc, 300 + run),
                            prompt, ref) /
             kRuns;
  }
  return total;
}

}  // namespace

int main() {
  Table t("Future work (Sec 8): HACK KV bit width x partition size");
  t.header({"kv_bits", "pi", "wire_fraction", "logit_fidelity",
            "avg_jct_s (L+Cocktail, A10G)"});
  for (const int bits : {2, 4}) {
    for (const std::size_t pi : {32u, 64u, 128u}) {
      const MethodTraits traits = method_traits(Method::kHack, pi, bits);
      ClusterConfig config =
          standard_cluster("A10G", "L", "Cocktail", Method::kHack);
      config.pi = pi;
      config.kv_bits = bits;
      const SimSummary s = run(config);
      t.row({std::to_string(bits), std::to_string(pi),
             pct(traits.wire_fraction), pct(fidelity_for(bits, pi)),
             fmt(s.avg_jct_s, 1)});
    }
  }
  t.print();

  Table n("Future work: the paper's trade-off, quantified");
  n.header({"finding", "value"});
  const double fid_2_32 = fidelity_for(2, 32);
  const double fid_4_128 = fidelity_for(4, 128);
  n.row({"2-bit needs Pi=32 for fidelity", pct(fid_2_32)});
  n.row({"4-bit reaches higher fidelity at Pi=128", pct(fid_4_128)});
  n.row({"4-bit Pi=128 wire fraction",
         pct(method_traits(Method::kHack, 128, 4).wire_fraction)});
  n.row({"2-bit Pi=32 wire fraction",
         pct(method_traits(Method::kHack, 32, 2).wire_fraction)});
  n.print();
  return 0;
}
