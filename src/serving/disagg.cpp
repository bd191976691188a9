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

// The one rehydrate-and-decode body, shared by the decode worker (fresh
// decode or crash-resume) and the prefill worker's local fallback, so every
// path is bit-identical by construction. It rehydrates the base blob into a
// fresh session, applies `delta` when non-empty (replaying its decoded-token
// suffix: those tokens count toward max_new and the next input token is the
// one the crashed worker had already computed), then replays
// TinyTransformer::generate's decode iterations exactly — same eos/max
// semantics, same per-step call sequence, same stochastic draws (the wire
// restored every RNG stream). With a sink installed it cuts a v3 delta
// against the base every checkpoint_every_tokens tokens, after the token's
// KV row is committed and the next input token computed, so base + delta
// reproduces the loop state exactly; capture time is excluded from decode_s
// (checkpointing is overhead traffic, not model compute). `mid_crashes`
// (null: none scripted) fires a scripted mid-decode crash.
DecodeWorker::Result rehydrate_and_decode(
    const std::shared_ptr<const TinyModelWeights>& weights,
    const DisaggConfig& config, std::span<const std::uint8_t> blob,
    std::span<const std::uint8_t> delta, int first_token,
    const ServingRequest& request, const CheckpointSink& sink,
    std::map<std::size_t, std::size_t>* mid_crashes,
    std::size_t request_index, const std::string& worker_name) {
  DecodeWorker::Result out;
  const auto deser_start = std::chrono::steady_clock::now();
  TinyModelSession session(
      weights, make_hack_layer_backend(config.attn, config.backend_seed));
  deserialize_session_kv(blob, session);
  const std::uint64_t base_tokens = session.position();
  int token = first_token;
  if (!delta.empty()) {
    KvDeltaSuffix suffix = apply_session_kv_delta(delta, session);
    out.generated = std::move(suffix.generated);
    out.replayed_tokens = out.generated.size();
    token = suffix.next_token;
  }
  out.deserialize_s = seconds_since(deser_start);

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
    if (mid_crashes != nullptr) {
      const auto it = mid_crashes->find(request_index);
      if (it != mid_crashes->end() && it->second == out.generated.size()) {
        mid_crashes->erase(it);
        throw MidDecodeCrash(worker_name + " worker crashed mid-decode at " +
                                 std::to_string(out.generated.size()) +
                                 " tokens of request " +
                                 std::to_string(request_index),
                             out.generated.size());
      }
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

DecodeWorker::Result PrefillWorker::local_decode(
    std::span<const std::uint8_t> blob, int first_token,
    const ServingRequest& request) {
  return rehydrate_and_decode(weights_, config_, blob, {}, first_token,
                              request, {}, nullptr, 0, name_);
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

DecodeWorker::Result DecodeWorker::decode(
    std::span<const std::uint8_t> blob, int first_token,
    const ServingRequest& request, std::size_t request_index,
    const CheckpointSink& sink, std::span<const std::uint8_t> delta) {
  maybe_crash(crashes_, request_index, name_);
  // Integrity gate: the header parse throws KvWireError on a corrupted or
  // truncated blob before any admission state is touched.
  const KvWireInfo info = parse_kv_wire_header(blob);

  // Worst-case block reservation, like the engine's admission control:
  // prompt tokens already in the blob plus every token we may yet append
  // (a resume's replayed rows included).
  std::vector<BlockId> reserved;
  if (allocator_ != nullptr) {
    const std::size_t need =
        blocks_needed(info.tokens, request.max_new_tokens);
    if (!allocator_->can_allocate(need)) return {};  // not admitted
    for (std::size_t i = 0; i < need; ++i) {
      reserved.push_back(allocator_->allocate());
    }
  }
  const auto release = [&] {
    for (const BlockId id : reserved) allocator_->release(id);
  };

  Result result;
  try {
    result = rehydrate_and_decode(weights_, config_, blob, delta, first_token,
                                  request, sink, &mid_crashes_, request_index,
                                  name_);
  } catch (...) {
    // Record CRC / section failures and scripted crashes surface here; hand
    // back the reserved blocks before propagating so a retry sees a clean
    // pool.
    release();
    throw;
  }
  release();
  result.admitted = true;
  result.kv_blocks = reserved.size();
  return result;
}

}  // namespace hack
