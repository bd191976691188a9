#include "serving/disagg.h"

#include <chrono>

#include "serving/scheduler.h"

namespace hack {
namespace {

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The continuation of TinyTransformer::generate after its prefill: rehydrate
// the blob into a fresh session and replay generate()'s decode iterations
// exactly — same eos/max semantics, same per-step call sequence, same
// stochastic draws (the wire restored every RNG stream). Shared by the
// decode worker and the prefill worker's local fallback so both paths are
// bit-identical by construction.
struct BlobDecode {
  std::vector<int> generated;
  double deserialize_s = 0.0;
  double decode_s = 0.0;
};

BlobDecode decode_blob(const std::shared_ptr<const TinyModelWeights>& weights,
                       const DisaggConfig& config,
                       std::span<const std::uint8_t> blob, int first_token,
                       const ServingRequest& request) {
  BlobDecode out;
  const auto deser_start = std::chrono::steady_clock::now();
  TinyModelSession session(
      weights, make_hack_layer_backend(config.attn, config.backend_seed));
  deserialize_session_kv(blob, session);
  out.deserialize_s = seconds_since(deser_start);

  const auto decode_start = std::chrono::steady_clock::now();
  int token = first_token;
  for (std::size_t i = 0; i < request.max_new_tokens; ++i) {
    if (token == request.eos) break;
    out.generated.push_back(token);
    const Matrix hidden = session.forward_rows({token});
    token = argmax_logits(session.logits_for_row(hidden, hidden.rows() - 1));
  }
  out.decode_s = seconds_since(decode_start);
  return out;
}

// Consumes one scripted crash if armed for this request index.
void maybe_crash(std::map<std::size_t, std::size_t>& crashes,
                 std::size_t request_index, const std::string& worker) {
  const auto it = crashes.find(request_index);
  if (it != crashes.end() && it->second > 0) {
    --it->second;
    throw WorkerCrash(worker + " worker crashed at request " +
                      std::to_string(request_index));
  }
}

// The decode loop proper, shared by decode() and resume(): continue from an
// already-generated prefix (empty on a fresh decode, the replayed suffix on
// a resume) with the session's KV rows matching it. Cuts a v3 delta against
// `base_tokens` (the prefill handoff position) every K tokens when a sink is
// installed — after the token's KV row is committed and the next input token
// computed, so base + delta reproduces the loop state exactly. Capture time
// is excluded from decode_s (checkpointing is overhead traffic, not model
// compute).
struct DecodeLoop {
  std::vector<int> generated;
  double decode_s = 0.0;
  bool drained = false;
};

DecodeLoop run_decode_loop(TinyModelSession& session,
                           std::vector<int> generated, int token,
                           const ServingRequest& request,
                           const DisaggConfig& config,
                           std::uint64_t base_tokens,
                           const CheckpointSink& sink,
                           std::map<std::size_t, std::size_t>& mid_crashes,
                           std::size_t request_index,
                           const std::string& worker_name) {
  DecodeLoop out;
  out.generated = std::move(generated);
  const std::size_t cadence = config.checkpoint_every_tokens;
  const auto decode_start = std::chrono::steady_clock::now();
  double capture_s = 0.0;
  while (out.generated.size() < request.max_new_tokens &&
         token != request.eos) {
    out.generated.push_back(token);
    const Matrix hidden = session.forward_rows({token});
    token = argmax_logits(session.logits_for_row(hidden, hidden.rows() - 1));
    const bool more = out.generated.size() < request.max_new_tokens &&
                      token != request.eos;
    if (sink && cadence > 0 && more && out.generated.size() % cadence == 0) {
      const auto capture_start = std::chrono::steady_clock::now();
      DecodeCheckpoint ckpt;
      ckpt.tokens_decoded = out.generated.size();
      ckpt.delta = serialize_session_kv_delta(
          session, base_tokens, {out.generated, token}, &ckpt.sections);
      capture_s += seconds_since(capture_start);
      if (!sink(std::move(ckpt))) {
        out.drained = true;
        break;
      }
    }
    // Scripted mid-decode crash: fires at an exact decoded-token count,
    // after any checkpoint due at that count left the worker.
    const auto it = mid_crashes.find(request_index);
    if (it != mid_crashes.end() && it->second == out.generated.size()) {
      mid_crashes.erase(it);
      throw MidDecodeCrash(worker_name + " worker crashed mid-decode at " +
                               std::to_string(out.generated.size()) +
                               " tokens of request " +
                               std::to_string(request_index),
                           out.generated.size());
    }
  }
  out.decode_s = seconds_since(decode_start) - capture_s;
  return out;
}

}  // namespace

Rng retry_jitter_rng(const RetryPolicy& policy, std::uint64_t request_index) {
  // splitmix64 finalizer over the index; index 0 keeps the bare seed so
  // single-request episodes replay the pre-fleet stream.
  std::uint64_t mixed = policy.jitter_seed;
  if (request_index != 0) {
    std::uint64_t z = request_index + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    mixed ^= z ^ (z >> 31);
  }
  return Rng(mixed);
}

double retry_backoff_s(const RetryPolicy& policy, std::size_t round,
                       Rng& jitter) {
  double backoff = policy.backoff_base_s;
  for (std::size_t i = 0; i < round; ++i) backoff *= policy.backoff_mult;
  return backoff * (1.0 + policy.backoff_jitter * jitter.next_double());
}

PrefillWorker::PrefillWorker(std::shared_ptr<const TinyModelWeights> weights,
                             const DisaggConfig& config, std::string name)
    : weights_(std::move(weights)), config_(config), name_(std::move(name)),
      nic_(config.prefill_nic_gbps) {}

void PrefillWorker::inject_crash(std::size_t request_index,
                                 std::size_t times) {
  crashes_[request_index] += times;
}

PrefillWorker::Result PrefillWorker::prefill(const ServingRequest& request,
                                             std::size_t request_index) {
  maybe_crash(crashes_, request_index, name_);
  HACK_CHECK(!request.prompt.empty(), "prefill needs a non-empty prompt");
  TinyModelSession session(
      weights_, make_hack_layer_backend(config_.attn, config_.backend_seed));

  Result result;
  const auto compute_start = std::chrono::steady_clock::now();
  SchedulerConfig chunk_cfg;
  chunk_cfg.prefill_chunk_tokens = config_.prefill_chunk_tokens == 0
                                       ? request.prompt.size()
                                       : config_.prefill_chunk_tokens;
  const Scheduler chunker(chunk_cfg);
  std::vector<float> last_logits;
  std::size_t begin = 0;
  while (begin < request.prompt.size()) {
    const std::size_t end = chunker.chunk_end(begin, request.prompt.size());
    const std::vector<int> chunk(request.prompt.begin() + begin,
                                 request.prompt.begin() + end);
    const Matrix hidden = session.forward_rows(chunk);
    if (end == request.prompt.size()) {
      last_logits = session.logits_for_row(hidden, hidden.rows() - 1);
    }
    ++result.prefill_chunks;
    begin = end;
  }
  result.first_token = argmax_logits(last_logits);
  result.prefill_s = seconds_since(compute_start);

  const auto serialize_start = std::chrono::steady_clock::now();
  result.blob = serialize_session_kv(session, &result.sections);
  result.serialize_s = seconds_since(serialize_start);
  return result;
}

PrefillWorker::LocalDecode PrefillWorker::local_decode(
    std::span<const std::uint8_t> blob, int first_token,
    const ServingRequest& request) {
  const BlobDecode d =
      decode_blob(weights_, config_, blob, first_token, request);
  return {d.generated, d.deserialize_s, d.decode_s};
}

DecodeWorker::DecodeWorker(std::shared_ptr<const TinyModelWeights> weights,
                           const DisaggConfig& config, std::string name)
    : weights_(std::move(weights)), config_(config), name_(std::move(name)),
      nic_(config.decode_nic_gbps) {
  if (config_.decode_kv_blocks > 0) {
    // Accounting blocks sized like the serving engine's: FP16 K+V bytes of
    // block_tokens tokens across all layers and KV heads.
    const TinyConfig& c = weights_->config();
    allocator_ = std::make_unique<BlockAllocator>(
        config_.decode_kv_blocks,
        config_.block_tokens * c.kv_heads * c.d_head * 2 * 2 * c.layers);
  }
}

void DecodeWorker::inject_crash(std::size_t request_index, std::size_t times) {
  crashes_[request_index] += times;
}

void DecodeWorker::inject_crash_at_token(std::size_t request_index,
                                         std::size_t token_index) {
  HACK_CHECK(token_index > 0, "a mid-decode crash needs at least one token");
  mid_crashes_[request_index] = token_index;
}

std::size_t DecodeWorker::blocks_needed(std::size_t blob_tokens,
                                        std::size_t max_new_tokens) const {
  return (blob_tokens + max_new_tokens + config_.block_tokens - 1) /
         config_.block_tokens;
}

std::size_t DecodeWorker::free_kv_blocks() const {
  return allocator_ == nullptr ? SIZE_MAX : allocator_->blocks_free();
}

DecodeWorker::Result DecodeWorker::decode(std::span<const std::uint8_t> blob,
                                          int first_token,
                                          const ServingRequest& request,
                                          std::size_t request_index,
                                          const CheckpointSink& sink) {
  maybe_crash(crashes_, request_index, name_);
  Result result;
  // Integrity gate: the header parse throws KvWireError on a corrupted or
  // truncated blob before any admission state is touched.
  const KvWireInfo info = parse_kv_wire_header(blob);

  // Worst-case block reservation, like the engine's admission control:
  // prompt tokens already in the blob plus every token we may yet append.
  std::vector<BlockId> reserved;
  if (allocator_ != nullptr) {
    const std::size_t need =
        blocks_needed(info.tokens, request.max_new_tokens);
    if (!allocator_->can_allocate(need)) {
      return result;  // not admitted
    }
    for (std::size_t i = 0; i < need; ++i) {
      reserved.push_back(allocator_->allocate());
    }
    result.kv_blocks = reserved.size();
  }
  result.admitted = true;

  try {
    const auto deser_start = std::chrono::steady_clock::now();
    TinyModelSession session(
        weights_, make_hack_layer_backend(config_.attn, config_.backend_seed));
    deserialize_session_kv(blob, session);
    result.deserialize_s = seconds_since(deser_start);

    DecodeLoop loop =
        run_decode_loop(session, {}, first_token, request, config_,
                        info.tokens, sink, mid_crashes_, request_index, name_);
    result.decode_s = loop.decode_s;
    result.generated = std::move(loop.generated);
    result.drained = loop.drained;
  } catch (...) {
    // Record CRC / section failures and scripted crashes surface here; hand
    // back the reserved blocks before propagating so a retry sees a clean
    // pool.
    for (const BlockId id : reserved) allocator_->release(id);
    throw;
  }

  for (const BlockId id : reserved) allocator_->release(id);
  return result;
}

DecodeWorker::Result DecodeWorker::resume(
    std::span<const std::uint8_t> base_blob,
    std::span<const std::uint8_t> delta_blob, const ServingRequest& request,
    std::size_t request_index, const CheckpointSink& sink) {
  maybe_crash(crashes_, request_index, name_);
  Result result;
  const KvWireInfo base_info = parse_kv_wire_header(base_blob);

  // Same worst-case reservation as a fresh decode: the base's prompt tokens
  // plus everything the request may still append (replayed rows included).
  std::vector<BlockId> reserved;
  if (allocator_ != nullptr) {
    const std::size_t need =
        blocks_needed(base_info.tokens, request.max_new_tokens);
    if (!allocator_->can_allocate(need)) {
      return result;  // not admitted
    }
    for (std::size_t i = 0; i < need; ++i) {
      reserved.push_back(allocator_->allocate());
    }
    result.kv_blocks = reserved.size();
  }
  result.admitted = true;

  try {
    const auto deser_start = std::chrono::steady_clock::now();
    TinyModelSession session(
        weights_, make_hack_layer_backend(config_.attn, config_.backend_seed));
    deserialize_session_kv(base_blob, session);
    const KvDeltaSuffix suffix = apply_session_kv_delta(delta_blob, session);
    result.deserialize_s = seconds_since(deser_start);
    result.replayed_tokens = suffix.generated.size();

    // Continue the decode loop mid-stride: the suffix tokens count toward
    // max_new and the next input token is the one the crashed worker had
    // already computed — bit-identical to the uninterrupted run.
    DecodeLoop loop = run_decode_loop(
        session, suffix.generated, suffix.next_token, request, config_,
        base_info.tokens, sink, mid_crashes_, request_index, name_);
    result.decode_s = loop.decode_s;
    result.generated = std::move(loop.generated);
    result.drained = loop.drained;
  } catch (...) {
    for (const BlockId id : reserved) allocator_->release(id);
    throw;
  }

  for (const BlockId id : reserved) allocator_->release(id);
  return result;
}

}  // namespace hack
