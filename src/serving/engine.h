// Continuous-batching serving engine over shared-weight model sessions.
//
// One TinyModelWeights instance (model/session.h) serves every concurrent
// request; each admitted request gets a TinyModelSession (per-layer KV
// backends + position) built from a fresh LayerBackendFactory, so a
// sequence's backend seeding — and therefore its generated tokens — is
// identical to a solo run. Each engine step executes the scheduler's plan
// (serving/scheduler.h) layer by layer across all scheduled sequences:
//
//   step:  embed every sequence's rows into one stacked hidden state
//          for each layer:
//            dense A  norm + Q/K/V over all stacked rows     (one matmul each)
//            phase A  per-sequence RoPE + KV append           (pool tasks)
//            attend   all sequences' heads in ONE batched launch
//                     (MultiAttendBatch) when the backends are batched HACK
//                     layers; per-sequence attends otherwise (pool tasks)
//            dense B  Wo/residual/SwiGLU over all stacked rows
//          logits + greedy argmax for emitting sequences, bookkeeping
//
// Batching feeds the thread pool twice. The stacked dense halves (Orca-style
// selective batching) stream each weight matrix once per step for every
// sequence, and matmul splits each product over the pool by column panels.
// The fused attend turns a batch of N sequences into N × query_heads
// (head × q-band) work items in one pool launch, instead of N engine calls
// back to back.
//
// Determinism contract (verified in tests/test_serving_engine.cpp, details
// in docs/serving.md): every per-task computation in the batched attention
// engine and every per-sequence phase touches only that sequence's state,
// and each row of a stacked dense product has the bits it would have alone
// (tensor/ops.h), so a request's tokens do not depend on what it was
// batched with, the thread count, or the engine's admission timing. With whole-prompt prefill
// (prefill_chunk_tokens >= prompt) tokens are bit-identical to a solo
// TinyTransformer::generate() even under stochastic rounding; with chunked
// prefill they are bit-identical to a solo run of the same chunk schedule
// (and to generate() under deterministic rounding).
//
// Timing is wall-clock: requests become visible at their arrival_time_s on
// the engine clock (run() start = 0), admission is FCFS against the
// scheduler's slot/KV-block limits, and TTFT/TBT/JCT are measured, not
// modeled.
//
// Tiered mode (scheduler.tiered, docs/serving.md "Tiered KV memory"): the
// worst-case FCFS block reservation is replaced by a KvTierManager
// (kvcache/tier_manager.h) — blocks are charged as tokens append, admission
// only requires that a request fit the pool alone, and under pressure the
// scheduler's deterministic priority function evicts whole sequences to a
// compressed far tier as kv_wire v2 blobs (bit-identical restore by the
// PR 5 contract). A speculative prefetcher deserializes predicted resumes
// on a background thread so swap-ins overlap step compute; prediction and
// the evict/resume schedule are pure functions of the submissions, so
// replays are bitwise (tests/test_kv_tiering.cpp), while stall/overlap
// timings are measurement only.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "kvcache/block_allocator.h"
#include "kvcache/tier_manager.h"
#include "metrics/stats.h"
#include "model/session.h"
#include "serving/request.h"
#include "serving/scheduler.h"

namespace hack {

struct ServingEngineConfig {
  SchedulerConfig scheduler;
  // Pool convention: 0 = auto (all shared-pool lanes), 1 = serial, N = cap.
  int threads = 0;
};

// One tier transition, in engine-schedule order. The sequence of events is
// a pure function of the submissions (no wall-clock in the policy), so two
// runs of the same workload produce bitwise-equal logs — the determinism
// property tests/test_kv_tiering.cpp and the chaos corpus replay-check.
struct SwapEvent {
  enum class Kind : std::uint8_t {
    kEvict,          // serialized to the far tier, hot blocks freed
    kResume,         // rehydrated and scheduled
    kPrefetchIssue,  // speculative deserialize started in the background
  };
  Kind kind = Kind::kEvict;
  std::size_t step = 0;        // engine iteration index
  std::uint64_t request = 0;   // ServingRequest::id
  std::size_t tokens = 0;      // KV rows at the transition
  bool prefetch_hit = false;   // kResume only: served by a staged prefetch

  friend bool operator==(const SwapEvent&, const SwapEvent&) = default;
};

// Work/occupancy counters of one run() episode.
struct ServingEngineStats {
  std::size_t steps = 0;              // engine iterations executed
  std::size_t fused_attend_launches = 0;  // MultiAttendBatch::run calls
  std::size_t prefill_chunks = 0;     // bounded prompt chunks processed
  std::size_t peak_running = 0;       // max concurrently admitted sequences
  std::size_t rejected = 0;           // requests that could never fit
  std::size_t kv_bytes_admitted = 0;  // block bytes reserved over the run
  std::size_t kv_bytes_released = 0;  // block bytes returned (finish/reject)

  // Tiered mode only: the tier manager's swap/prefetch counters and the
  // ordered transition log (empty otherwise).
  KvTierStats tier;
  std::vector<SwapEvent> swap_events;
};

// One run() episode's outcome: per-request records plus percentile rollups
// (metrics/stats.h) over the measured lifecycle.
struct ServingReport {
  std::vector<ServingRecord> requests;  // submit order

  double makespan_s = 0.0;          // first step to last finish
  std::size_t total_generated = 0;  // tokens across finished requests
  double tokens_per_s = 0.0;        // total_generated / makespan
  // Decode-side aggregate: tokens emitted during steps that carried at least
  // one decode row, over the wall time of those steps. This is the number
  // continuous batching is supposed to move (chunked prefill time it steals
  // from decodes is charged here, not hidden).
  double decode_tokens_per_s = 0.0;
  double decode_time_s = 0.0;
  // Steady-state variant over pure decode steps only (≥1 decode row, no
  // prefill chunk) — the apples-to-apples number against a serial loop's
  // decode phase, free of prefill interference.
  double pure_decode_tokens_per_s = 0.0;
  double pure_decode_time_s = 0.0;
  double goodput_rps = 0.0;         // finished requests / makespan

  SampleStats ttft_s;  // over finished requests
  SampleStats jct_s;   // over finished requests
  SampleStats tbt_s;   // pooled over all finished requests' token gaps

  ServingEngineStats engine;
};

class ServingEngine {
 public:
  // `make_backend_factory` is called once per admitted request; returning a
  // freshly seeded factory each time is what makes a request's generation
  // match its solo run. `allocator` (optional, caller-owned) enables KV
  // block admission control; null means slots-only admission.
  ServingEngine(std::shared_ptr<const TinyModelWeights> weights,
                std::function<LayerBackendFactory()> make_backend_factory,
                ServingEngineConfig config = {},
                BlockAllocator* allocator = nullptr);
  ~ServingEngine();

  const TinyModelWeights& weights() const { return *weights_; }
  const Scheduler& scheduler() const { return scheduler_; }

  // Queues a request. Submissions accumulate until run().
  void submit(ServingRequest request);

  // Serves every submitted, not-yet-finished request to completion and
  // returns the episode's report. The engine clock restarts at 0.
  ServingReport run();

 private:
  struct RunningSeq;
  struct StagedPrefetch;

  double now_s() const;
  void admit_arrivals(std::vector<std::size_t>& queued, double now);
  void execute_step(const StepPlan& plan);
  void finish_sequence(RunningSeq& seq, double now);

  // Tiered-mode step machinery (engine.cpp): executes a plan's evictions
  // and resumes, grows runners' hot footprints, then speculatively stages
  // the *next* plan's predicted resumes on background threads.
  std::vector<Scheduler::TieredSeqView> tiered_views() const;
  void evict_sequence(std::size_t run_idx);
  void resume_sequence(std::size_t run_idx);
  void issue_prefetch(std::size_t run_idx);
  void predict_and_prefetch(const std::vector<Scheduler::TieredSeqView>& views,
                            const TieredStepPlan& plan);
  StagedPrefetch* find_staged(std::size_t record_idx);
  void drop_staged(std::size_t record_idx);

  std::shared_ptr<const TinyModelWeights> weights_;
  std::function<LayerBackendFactory()> make_backend_factory_;
  ServingEngineConfig config_;
  Scheduler scheduler_;
  BlockAllocator* allocator_;  // not owned; may be null
  std::unique_ptr<KvTierManager> tier_;  // tiered mode only

  std::vector<ServingRecord> records_;
  std::vector<std::unique_ptr<RunningSeq>> running_;
  std::vector<std::unique_ptr<StagedPrefetch>> staged_;
  std::size_t next_ordinal_ = 0;
  ServingEngineStats stats_;
  double run_start_s_ = 0.0;  // steady-clock origin of the current episode
  std::size_t total_generated_ = 0;
  double decode_time_s_ = 0.0;
  std::size_t decode_step_tokens_ = 0;
  double pure_decode_time_s_ = 0.0;
  std::size_t pure_decode_tokens_ = 0;
};

}  // namespace hack
