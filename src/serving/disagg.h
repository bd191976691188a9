// Disaggregated prefill → decode serving over the HACK KV wire format.
//
// The paper's headline deployment (§2, §6, §7) runs prefill and decode on
// separate workers and ships the *quantized* KV cache between them. This
// module is that path for the real engine, not the analytical simulator:
//
//   PrefillWorker   runs (optionally chunked) prefill over a
//                   TinyModelSession, one single-lane step_lanes
//                   (model/session.h) per chunk, emits the first token, and
//                   serializes the per-layer HACK KV state into a KV wire
//                   blob (kvcache/kv_wire.h) — every byte measured, not
//                   modeled.
//   DecodeWorker    reserves KV blocks from its own BlockAllocator pool,
//                   rehydrates the blob into a fresh session, and decodes
//                   to completion, one single-lane step_lanes per token —
//                   the serving engine's step, so the two cannot drift
//                   apart. The codes on the wire are the codes
//                   attention consumes — nothing is dequantized or
//                   requantized in the handoff, so generation is
//                   bit-identical to the single-node engine (pinned in
//                   tests/test_kv_wire.cpp). One decode body serves a
//                   fresh decode, a checkpoint resume and the prefill
//                   worker's local fallback.
//
// One engine orchestrates the workers: FleetEngine (serving/fleet.h), whose
// default 1×1 shape is the single prefill→decode pair. Compute is measured
// wall-clock, the transfer is the netsim NCCL-style pipelined model
// (netsim/transfer.h) over each worker's NIC — bytes real, timing simulated —
// and the prefill worker starts the next request's prompt while the previous
// blob is still in flight. This header holds what the engine drives: the
// workers, their config, the RetryPolicy that answers injected faults
// (chunk retransmit, full-blob retransmit on a KvWireError or decode crash,
// re-prefill on a prefill crash, jittered exponential backoff, a transfer
// deadline, local-decode fallback), and the per-request DisaggRecord.
//
// TTFT charges what single-node serving never shows: the first token is
// counted as delivered only when the KV blob has landed and rehydrated on the
// decode worker. docs/disaggregation.md walks the format and the contract.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "base/rng.h"
#include "kvcache/block_allocator.h"
#include "kvcache/kv_wire.h"
#include "model/session.h"
#include "netsim/fault.h"
#include "netsim/link.h"
#include "serving/request.h"

namespace hack {

// Bounded-retry recovery policy for the transfer/decode path. One retry
// budget per request covers every recovery round — chunk retransmits,
// full-blob retransmits, worker restarts.
struct RetryPolicy {
  std::size_t max_retries = 3;
  // Backoff before recovery round k (0-based): base · mult^k · (1 + jitter·u)
  // with u drawn from a *per-request* seeded Rng — deterministic per run.
  // Each request's jitter stream is derived from (jitter_seed, arrival-order
  // index) via retry_jitter_rng, so two requests retrying concurrently on
  // different links draw independent, replayable streams: injecting a fault
  // into one request never shifts another request's backoff draws
  // (seed-derivation rule in docs/robustness.md).
  double backoff_base_s = 1e-3;
  double backoff_mult = 2.0;
  double backoff_jitter = 0.5;
  std::uint64_t jitter_seed = 0xB0FF;
  // Wall of simulated time from the first transfer attempt's start to full
  // delivery; exceeded → deadline miss → fallback. 0 disables.
  double transfer_deadline_s = 0.0;
  // Degrade to prefill-worker-local decode instead of dropping the request
  // when retries exhaust / the deadline passes / the decode pool rejects.
  bool fallback_local = true;
};

// The per-request backoff-jitter stream: jitter_seed mixed with the request's
// arrival-order index through the splitmix64 finalizer (index 0 keeps the
// bare seed). A request's draws depend on nothing but its own index, so they
// are identical whichever workers serve it.
Rng retry_jitter_rng(const RetryPolicy& policy, std::uint64_t request_index);

// One backoff wait: base · mult^round · (1 + jitter · u) with u drawn from
// the request's jitter stream (retry_jitter_rng).
double retry_backoff_s(const RetryPolicy& policy, std::size_t round,
                       Rng& jitter);

struct DisaggConfig {
  // Quantization config shared by both workers — the wire header pins it and
  // rehydration rejects a mismatch.
  HackAttentionConfig attn;
  // Backend factory seed; identical on both workers so the decode-side
  // session is the one the prefill session would have become.
  std::uint64_t backend_seed = 7;
  // Prefill chunking (0 = whole prompt in one pass). Chunks follow the
  // serving scheduler's policy (never a 1-row chunk or remainder), so a
  // chunked prefill here matches the continuous-batching engine's schedule.
  std::size_t prefill_chunk_tokens = 0;
  // NIC line rates for the netsim-timed KV transfer.
  double prefill_nic_gbps = 100.0;
  double decode_nic_gbps = 100.0;
  // Pipelining granularity of the transfer (kv_wire_transfer_chunks).
  std::size_t transfer_chunk_bytes = 1 << 20;
  // Decode-side KV block admission: tokens per accounting block, and the
  // pool size (0 = unlimited, no admission control).
  std::size_t block_tokens = 16;
  std::size_t decode_kv_blocks = 0;
  // Fault injection on the transfer path (default: a perfect wire) and the
  // recovery policy that answers it.
  FaultConfig transfer_faults;
  RetryPolicy retry;
  // Mid-decode checkpoint cadence: every K decoded tokens the decode worker
  // cuts a wire v3 delta (KV entries since the prefill handoff + RNG streams
  // + the decoded suffix) and hands it to the engine's checkpoint sink, which
  // ships it to the standby store over the same faulty link. 0 disables —
  // the pre-checkpoint behavior, byte for byte.
  std::size_t checkpoint_every_tokens = 0;
};

// One cut checkpoint: the v3 delta blob against the request's base (prefill)
// blob, and how many tokens had been decoded at the cut.
struct DecodeCheckpoint {
  std::vector<std::uint8_t> delta;
  std::size_t tokens_decoded = 0;
  KvWireSections sections;
};

// Receives each checkpoint as it is cut, mid-decode. Returning false tells
// the worker to stop decoding at this consistent cut — the proactive-drain
// signal: the engine migrates the request (base + this delta) to a healthy
// replica instead of letting the suspect worker finish.
using CheckpointSink = std::function<bool(DecodeCheckpoint)>;

// Thrown by a worker whose scripted crash fires (inject_crash). The engine
// catches it and re-runs the failed stage under the RetryPolicy.
struct WorkerCrash : public std::runtime_error {
  explicit WorkerCrash(const std::string& what) : std::runtime_error(what) {}
};

// A decode worker dying *mid-generation* (inject_crash_at_token): unlike a
// WorkerCrash at request start, tokens were already decoded and checkpoints
// may have left the worker — the engine resumes from base + latest delta on
// a replica instead of recomputing from the blob.
struct MidDecodeCrash : public WorkerCrash {
  MidDecodeCrash(const std::string& what, std::size_t tokens_decoded)
      : WorkerCrash(what), tokens_decoded(tokens_decoded) {}
  std::size_t tokens_decoded = 0;
};

// One request's measured + modeled lifecycle through the disaggregated path
// (FleetRecord::d; the route through the fleet sits beside it).
struct DisaggRecord {
  ServingRequest request;
  bool rejected = false;           // dropped: prefill retries exhausted, or
                                   // failure with fallback_local disabled
  std::vector<int> generated;      // first (prefill-side) token included

  std::size_t wire_bytes = 0;      // serialized blob size, measured
  KvWireSections sections;         // per-section byte accounting
  std::size_t fp16_kv_bytes = 0;   // FP16 K+V footprint of the same tokens
  std::size_t prefill_chunks = 0;
  std::size_t decode_kv_blocks = 0;

  double prefill_s = 0.0;          // measured compute
  double serialize_s = 0.0;        // measured
  double transfer_s = 0.0;         // netsim-modeled wire time, retries incl.
  double deserialize_s = 0.0;      // measured
  double decode_s = 0.0;           // measured compute

  double ttft_s = 0.0;  // arrival → first token deliverable at decode worker
  double jct_s = 0.0;   // arrival → last token

  // Fault + recovery accounting for this request.
  std::size_t retries = 0;             // recovery rounds consumed
  std::size_t chunks_dropped = 0;      // injected drops seen on the wire
  std::size_t chunks_corrupted = 0;    // injected corruptions seen
  std::size_t crc_failures = 0;        // blob rejections (KvWireError)
  std::size_t prefill_crashes = 0;
  std::size_t decode_crashes = 0;
  std::size_t retransmitted_bytes = 0; // wire bytes past the first copy
  double backoff_s = 0.0;              // modeled backoff waits, summed
  bool deadline_missed = false;
  bool fallback_local = false;         // decoded on the prefill worker

  // Checkpoint / resume accounting (zero unless checkpoint_every_tokens > 0).
  std::size_t checkpoints = 0;         // deltas cut by the decode worker
  std::size_t checkpoint_bytes = 0;    // summed delta blob sizes
  std::size_t checkpoint_failures = 0; // deltas that never reached the store
  std::size_t resumes = 0;             // decodes restarted from base + delta
  std::size_t tokens_replayed = 0;     // suffix tokens replayed on resume
  std::size_t tokens_recomputed = 0;   // decoded tokens lost past the last
                                       // stored checkpoint (the lost window)

  // Compression ratio the wire actually achieved for this request.
  double wire_vs_fp16() const {
    return fp16_kv_bytes == 0
               ? 0.0
               : static_cast<double>(wire_bytes) /
                     static_cast<double>(fp16_kv_bytes);
  }
};

// The decode half: wire blob in, remaining tokens out — bit-identical to the
// single-node continuation.
class DecodeWorker {
 public:
  struct Result {
    bool admitted = false;
    std::vector<int> generated;  // first token included when admitted
    std::size_t kv_blocks = 0;
    double deserialize_s = 0.0;  // measured rehydration (base + delta apply)
    double decode_s = 0.0;       // measured model compute, checkpoint
                                 // capture time excluded
    bool drained = false;        // the sink stopped the decode at a cut
    std::size_t replayed_tokens = 0;  // suffix tokens replayed (resume only)
  };

  DecodeWorker(std::shared_ptr<const TinyModelWeights> weights,
               const DisaggConfig& config, std::string name = "decode");

  const std::string& name() const { return name_; }

  // Admission preflight for load-aware dispatch: worst-case block need of a
  // request (prompt tokens already in the blob + every token it may append),
  // checked against allocator()'s headroom. decode() still re-checks — the
  // preflight is advisory, the reservation is the word.
  std::size_t blocks_needed(std::size_t blob_tokens,
                            std::size_t max_new_tokens) const;

  // Reserves the request's worst-case blocks, rehydrates `blob`, and decodes
  // to completion. A non-empty `delta` makes it a crash-resume: the latest
  // checkpoint is applied on top of the base blob, its decoded-token suffix
  // replayed (`first_token` is then unused), and the loop continues
  // mid-stride — bit-identical to the uninterrupted run, with at most
  // checkpoint-window tokens recomputed.
  //
  // Throws WorkerCrash on a scripted crash (the buffered blob is lost with
  // the worker — recovery needs a full retransmit), MidDecodeCrash on a
  // scripted mid-generation crash (inject_crash_at_token), and KvWireError
  // when the blob fails its integrity checks. When `sink` is set and
  // checkpoint_every_tokens > 0, a v3 delta is cut every K decoded tokens
  // (after the token's KV row is committed and the next input token is
  // known) and handed to the sink; a false return drains the decode at that
  // consistent cut.
  Result decode(std::span<const std::uint8_t> blob, int first_token,
                const ServingRequest& request, std::size_t request_index = 0,
                const CheckpointSink& sink = {},
                std::span<const std::uint8_t> delta = {});

  void inject_crash(std::size_t request_index, std::size_t times = 1);

  // Scripts a crash that fires after exactly `token_index` tokens of
  // `request_index` have been decoded (and any due checkpoint at that count
  // has been cut). Consumed once.
  void inject_crash_at_token(std::size_t request_index,
                             std::size_t token_index);

  Nic& nic() { return nic_; }
  const BlockAllocator* allocator() const { return allocator_.get(); }

 private:
  std::shared_ptr<const TinyModelWeights> weights_;
  DisaggConfig config_;
  std::string name_;
  Nic nic_;
  std::unique_ptr<BlockAllocator> allocator_;  // null: no admission control
  std::map<std::size_t, std::size_t> crashes_;
  std::map<std::size_t, std::size_t> mid_crashes_;  // index → token count
};

// The prefill half: prompt in, first token + wire blob out.
class PrefillWorker {
 public:
  struct Result {
    std::vector<std::uint8_t> blob;
    KvWireSections sections;
    int first_token = -1;
    std::size_t prefill_chunks = 0;
    double prefill_s = 0.0;    // measured model compute
    double serialize_s = 0.0;  // measured serialization
  };

  // `name` addresses this worker in a fleet — it tags WorkerCrash messages
  // and the per-worker report rows (serving/fleet.h).
  PrefillWorker(std::shared_ptr<const TinyModelWeights> weights,
                const DisaggConfig& config, std::string name = "prefill");

  const std::string& name() const { return name_; }

  // Throws WorkerCrash if a crash is scripted for `request_index` with
  // attempts remaining; the engine retries (re-prefill) under its policy.
  Result prefill(const ServingRequest& request, std::size_t request_index = 0);

  // The graceful-degradation path: decode on this worker from the locally
  // retained blob, through the decode worker's own rehydrate-and-decode body
  // (no sink, no crash script, no block reservation) — bit-identical to
  // what the decode worker would have produced.
  DecodeWorker::Result local_decode(std::span<const std::uint8_t> blob,
                                    int first_token,
                                    const ServingRequest& request);

  // Scripts `times` crashes for the request at arrival-order index
  // `request_index`; each prefill() attempt consumes one.
  void inject_crash(std::size_t request_index, std::size_t times = 1);

  Nic& nic() { return nic_; }

 private:
  std::shared_ptr<const TinyModelWeights> weights_;
  DisaggConfig config_;
  std::string name_;
  Nic nic_;
  std::map<std::size_t, std::size_t> crashes_;  // request index → remaining
};

}  // namespace hack
