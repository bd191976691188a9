// hackbench replay: the traced pass behind the per-layer metrics and the
// correctness checks.
//
// Right after each round of the run is served, a fixed sample of its
// requests is driven again, one at a time, so the replay and the run it
// breaks down are timed in the same host period. The requests go through
// the per-layer public calls of TinyModelSession
// (project_and_append, LayerBackend::append/attend, finish_layer,
// logits_for_row) and the session-level kv_wire calls, with a span around
// each call. The replay follows the chunk schedule the serving engine used,
// so under the library's determinism contract its tokens must equal the
// served ones bit for bit; it also round-trips the prefill KV through the
// wire and checks that re-serializing gives the same bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace hackbench {

enum class SpanKind : std::uint8_t {
  kPrefillChunk,  // phase root: one prompt chunk through the whole stack
  kDecodeStep,    // phase root: one generated token through the whole stack
  kQkv,           // TinyModelSession::project_and_append
  kAppend,        // LayerBackend::append (nested in kQkv)
  kAttend,        // LayerBackend::attend
  kFfn,           // TinyModelSession::finish_layer (Wo + SwiGLU)
  kLmHead,        // TinyModelSession::logits_for_row
  kSerialize,     // serialize_session_kv
  kDeserialize,   // deserialize_session_kv
};

const char* span_name(SpanKind kind);

struct Span {
  SpanKind kind;
  bool decode;        // phase the span belongs to
  std::int32_t parent;  // index of the enclosing span, -1 for none
  std::uint64_t request;
  double begin_s;
  double end_s;
};

// In-memory span recorder; spans nest strictly (one driving thread).
class Tracer {
 public:
  std::size_t begin(SpanKind kind);
  void end(std::size_t span);

  void set_request(std::uint64_t id) { request_ = id; }
  void set_decode(bool decode) { decode_ = decode; }

  const std::vector<Span>& spans() const { return spans_; }

  // Writes the spans as Chrome trace-event JSON ("X" events, one track per
  // request). Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t request_ = 0;
  bool decode_ = false;
};

// Totals over every replayed round.
struct ReplayResult {
  std::size_t replayed = 0;         // requests driven through the replay
  std::size_t token_mismatches = 0; // requests whose tokens differ
  std::size_t wire_mismatches = 0;  // requests whose re-serialized blob differs
  double dense_flops = 0;           // projection + LM-head FLOPs, from shapes
  double attend_ops = 0;            // Q·Kᵀ + P·V multiply-adds ×2, from shapes
  double wire_bytes = 0;            // serialized prefill blobs
  double fp16_kv_bytes = 0;         // FP16 K+V of the same tokens
  double prompt_tokens = 0;
  // Fleet workloads: the served requests' measured prefill + decode compute,
  // the base of trace.coverage.
  double served_compute_s = 0;
};

// The sample among served[first..], the round just served: every 4th
// request of the run, plus the round's longest prompt and longest output
// when they are longer than any before the round. Over the run this takes
// every 4th request plus the one with the longest prompt and the one with
// the longest output. Only delivered requests qualify.
std::vector<std::size_t> replay_sample(const std::vector<Served>& served,
                                       std::size_t first);

// Replays served[i] for each i in `sample` and adds to `out`.
void replay(const Workload& workload,
            const std::shared_ptr<const hack::TinyModelWeights>& weights,
            const std::vector<Served>& served,
            const std::vector<std::size_t>& sample, Tracer& tracer,
            ReplayResult& out);

}  // namespace hackbench
