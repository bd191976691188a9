// Long-context summarization scenario (the arXiv workload of the paper's
// intro): a decoder-only transformer generates a continuation of a long
// document while its KV cache lives in different storage formats.
//
// Demonstrates the accuracy/memory trade-off end to end on a real model:
// exact FP32 KV, FP16, HACK (three partition sizes), CacheGen, KVQuant and
// FP8. Prints cache footprint and teacher-forced token agreement.
//
// Build & run:  ./build/long_context_summarization
#include <cstdio>
#include <vector>

#include "metrics/report.h"
#include "model/tiny_transformer.h"
#include "workload/corpus.h"

using namespace hack;

int main() {
  TinyConfig config;
  config.vocab = 256;
  config.layers = 2;
  config.heads = 2;
  config.kv_heads = 2;
  config.d_head = 128;
  config.d_ff = 512;

  // A "document": 512 tokens of motif-heavy synthetic text.
  SyntheticCorpus corpus({.vocab = config.vocab, .motif_probability = 0.4},
                         31);
  const auto document = corpus.prompt(0, 512);
  constexpr std::size_t kSummaryLen = 48;

  // Reference continuation from the exact model.
  TinyTransformer reference(config, make_exact_backend());
  const auto summary = reference.generate(document, kSummaryLen);
  std::printf("document: %zu tokens, continuation: %zu tokens\n",
              document.size(), summary.size());

  struct Candidate {
    const char* name;
    LayerBackendFactory factory;
  };
  HackAttentionConfig pi32, pi64, pi128;
  pi32.pi = 32;
  pi64.pi = 64;
  pi128.pi = 128;
  const std::vector<Candidate> candidates = {
      {"FP16", make_fp16_backend()},
      {"HACK pi=32", make_hack_layer_backend(pi32, 1)},
      {"HACK pi=64", make_hack_layer_backend(pi64, 2)},
      {"HACK pi=128", make_hack_layer_backend(pi128, 3)},
      {"CacheGen", make_codec_backend(make_codec("cachegen"), 4)},
      {"KVQuant", make_codec_backend(make_codec("kvquant"), 5)},
      {"FP8", make_minifloat_backend(MiniFloatFormat::kFp8E4M3)},
  };

  Table t("KV storage format vs cache size and decision fidelity");
  t.header({"format", "kv_bytes", "vs_fp16", "token_agreement"});
  std::size_t fp16_bytes = 0;
  for (const Candidate& candidate : candidates) {
    TinyTransformer model(config, candidate.factory);
    std::vector<float> logits = model.prefill(document);
    std::size_t agree = 0;
    for (const int ref_token : summary) {
      if (argmax_logits(logits) == ref_token) ++agree;
      logits = model.decode_step(ref_token);
    }
    const std::size_t bytes = model.kv_stored_bytes();
    if (std::string(candidate.name) == "FP16") fp16_bytes = bytes;
    t.row({candidate.name, std::to_string(bytes),
           fp16_bytes > 0 ? fmt(100.0 * bytes / fp16_bytes, 1) + "%" : "-",
           pct(static_cast<double>(agree) / summary.size())});
  }
  t.print();
  return 0;
}
