// hackbench workloads: request generation and the untraced serving runs.
//
// Every workload drives the library's public serving API — ServingEngine
// (continuous batching, wall-clock) or FleetEngine (disaggregated N×M
// replicas, measured compute on a modeled timeline) — with requests whose
// lengths come from the paper's Table 4 dataset models
// (workload/dataset.h). The runners return engine-neutral per-request
// records plus the per-layer counters of the engine that served them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/session.h"
#include "serving/request.h"
#include "workload/corpus.h"

namespace hackbench {

enum class EngineKind { kContinuous, kFleet };

struct Workload {
  const char* name;
  const char* dataset;  // dataset_by_name key (Table 4)
  EngineKind engine;
  // Requests per stratified round (see RequestStream). A run serves whole
  // rounds until its time budget is spent.
  std::size_t round_requests;
  std::size_t max_input;   // prompt-length cap, 0 = none
  std::size_t max_output;  // output-length cap, 0 = none
  // Fleet: open-loop Poisson rate on the fleet timeline. Continuous: every
  // request of a round is submitted at t = 0 (offline batch).
  double rps;
  std::size_t prefill_workers;
  std::size_t decode_workers;
  std::size_t max_active;     // continuous only
  std::size_t prefill_chunk;  // rows per prefill chunk, 0 = whole prompt
  // > 0: tiered KV memory on a pool holding this share of a round's
  // worst-case working set (never less than the largest request).
  double tiered_pool_share;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// Model shape shared by every workload: 8 query heads, 2 KV heads, d_head
// 128, 2 layers, d_ff 512, vocab 256; 2-bit KV, Π = 64, stochastic rounding,
// backend seed 7.
hack::TinyConfig model_config();
hack::HackAttentionConfig attention_config();
inline constexpr std::uint64_t kBackendSeed = 7;

// Steady-clock time in seconds; every duration the benchmark measures uses it.
double now_s();

// A fresh HACK layer-backend factory. Each session needs its own: the
// factory's per-layer seed counter is what makes a session's RNG streams
// match a solo run.
hack::LayerBackendFactory backend_factory();

// Seeded request generator. Every round has one fixed layout per workload:
// round_requests input lengths and as many output lengths from the
// dataset's length model, one at the midpoint of each equal-probability
// stratum, in a shuffled order and pairing. Fleet inter-arrival gaps are
// stratified the same way over the exponential distribution, so arrivals
// follow a stratified open-loop Poisson process at the workload's rate, one
// timeline across rounds. The seed picks the prompt text. A fixed layout
// keeps the seed out of the latency medians: with a seeded order and
// pairing, the host-independent part of the TTFT spread on the HumanEval
// workloads was 0.07-0.15.
class RequestStream {
 public:
  RequestStream(const Workload& workload, std::uint64_t seed,
                std::size_t round_requests);

  std::vector<hack::ServingRequest> next_round();

 private:
  hack::SyntheticCorpus corpus_;
  std::vector<std::size_t> prompt_lengths_;
  std::vector<std::size_t> output_lengths_;
  std::vector<double> gaps_s_;  // empty for an offline batch
  std::size_t next_id_ = 0;
  double clock_s_ = 0.0;
};

// One request as the benchmark saw it, independent of the engine.
struct Served {
  hack::ServingRequest request;
  std::vector<int> tokens;  // generated tokens, first token included
  bool ok = false;          // finished and delivered (not rejected or shed)
  double ttft_s = 0.0;
  double jct_s = 0.0;
  double queue_s = 0.0;     // waiting time before service
  // Fleet only: measured model compute of the request on its workers.
  double prefill_s = 0.0;
  double decode_s = 0.0;
  double transfer_s = 0.0;
};

struct RunResult {
  std::vector<Served> served;  // arrival order across rounds
  std::size_t rounds = 0;
  double busiest_s = 0.0;  // busy seconds of the most loaded worker
  // Per-layer counters of the serving engine, by metric name.
  std::map<std::string, double> counters;
  // Vacuity gate failures ("tiered run never evicted", ...).
  std::vector<std::string> gate_failures;
};

// Called after each round with every request served so far and the index
// of the round's first one.
using RoundHook =
    std::function<void(const std::vector<Served>& served, std::size_t first)>;

// Serves whole rounds from `stream`, each followed by `after_round`, until
// `budget_s` of wall time is spent (at least one round; a round is not
// started when the mean round time so far would overrun the budget).
RunResult run_workload(const Workload& workload,
                       std::shared_ptr<const hack::TinyModelWeights> weights,
                       RequestStream& stream, double budget_s,
                       const RoundHook& after_round);

// One set-up: weights, engine construction and one short warm-up request.
// Returns the wall seconds it took and hands back the weights.
double setup_once(const Workload& workload,
                  std::shared_ptr<const hack::TinyModelWeights>* weights);

}  // namespace hackbench
