// Table 7: the accuracy cost of disabling requantization elimination.
// HACK/RQE requantizes the last block of V from its own dequantized codes
// every time the range widens (Fig. 8), compounding reconstruction error
// through the decode phase; the paper measures a 0.14-0.29% accuracy drop,
// smallest on IMDb whose short outputs accumulate the least error.
#include "accuracy_util.h"
#include "bench_util.h"

using namespace hack;
using namespace hack::bench;

namespace {

struct Cell {
  std::string dataset;
  std::size_t prompt_len;
  std::size_t gen_len;  // Table 7's driver: error accumulates during decode
};

const Cell kCells[] = {
    {"IMDb", 96, 12},  // short outputs -> least accumulation
    {"arXiv", 256, 40},
    {"Cocktail", 384, 36},
    {"HumanEval", 80, 40},
};

}  // namespace

int main() {
  Table t("Table 7: logit fidelity, HACK vs HACK/RQE (avg of 4 runs)");
  t.header({"dataset", "HACK", "HACK/RQE", "decrease"});
  for (const Cell& cell : kCells) {
    double with_rqe = 0.0, without_rqe = 0.0;
    constexpr int kRuns = 4;
    SyntheticCorpus corpus({.vocab = 256}, 777);
    for (int run = 0; run < kRuns; ++run) {
      const TinyConfig cfg = accuracy_model_config(10 + run);
      const auto prompt =
          corpus.prompt(static_cast<std::size_t>(run), cell.prompt_len);
      const auto ref = reference_tokens(cfg, prompt, cell.gen_len);

      HackAttentionConfig on;
      on.pi = 64;
      // Deterministic rounding: both arms quantize identically except for
      // the last-block-of-V requantization under test.
      on.rounding = Rounding::kNearest;
      HackAttentionConfig off = on;
      off.requant_elimination = false;
      with_rqe += logit_fidelity(cfg, make_hack_layer_backend(on, 500 + run),
                                 prompt, ref) /
                  kRuns;
      without_rqe +=
          logit_fidelity(cfg, make_hack_layer_backend(off, 500 + run), prompt,
                         ref) /
          kRuns;
    }
    t.row({cell.dataset, pct(with_rqe), pct(without_rqe),
           fmt(100.0 * (with_rqe - without_rqe), 2) + "pp"});
  }
  t.print();
  return 0;
}
