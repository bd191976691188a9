// Shared model weights + per-request model sessions.
//
// A serving instance loads one set of transformer weights and runs many
// concurrent requests over it. The seed model (`TinyTransformer`) fused the
// two: every instance owned a private weight copy and a monolithic `forward`
// that ran a whole token batch through every layer, so weights were
// duplicated per request and a scheduler had no seam to interleave requests
// at layer granularity. This header splits the model along that seam:
//
//   - TinyModelWeights: the immutable parameter set (embeddings, per-layer
//     projections, norms). Constructed once, shared by any number of
//     sessions via shared_ptr — one copy serves N concurrent requests.
//   - TinyModelSession: everything one request owns — its per-layer KV
//     backends and its position on the timeline — plus a per-layer stepping
//     API. `forward_layer(layer, x, start_pos)` advances a chunk of hidden
//     states through one layer. The serving engine instead runs the dense
//     halves (`TinyModelWeights::project_qkv`, `finish_layer`) once over
//     every sequence's stacked rows and only the per-sequence part
//     (`rotate_and_append`, attend) per session, so one step streams each
//     weight matrix once and many sequences' attention fuses into one
//     batched launch.
//
// The per-layer KV backend interfaces (HeadBackend / LayerBackend) and their
// factories live here too: a session is exactly "position + one LayerBackend
// per layer", and the backends are what a session instantiates per request.
//
// `TinyTransformer` (model/tiny_transformer.h) remains as a thin
// weights-plus-one-session wrapper with the original prefill/decode/generate
// API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "attention/dequant_attention.h"
#include "attention/hack_attention.h"
#include "codec/codec.h"
#include "quant/minifloat.h"
#include "tensor/matrix.h"

namespace hack {

class HackLayerKvState;

// One KV head's cache + attention kernel. With grouped-query attention a
// single backend serves every query head in its group: the model appends the
// group's K/V once, then attends once per query head.
class HeadBackend {
 public:
  virtual ~HeadBackend() = default;

  // Appends new tokens' K/V rows ([n, d_head] each) to the cache.
  virtual void append(const Matrix& k_new, const Matrix& v_new) = 0;

  // Causal attention of q over all cached tokens; `key_offset` is the
  // timeline index of q's first row.
  virtual Matrix attend(const Matrix& q, std::size_t key_offset) = 0;

  // Bytes the cache occupies in its stored (possibly compressed) form.
  virtual std::size_t stored_bytes() const = 0;
};

using BackendFactory =
    std::function<std::unique_ptr<HeadBackend>(std::size_t d_head)>;

// All KV heads of one transformer layer behind one interface. The model
// appends a layer's K/V once ([n, kv_heads * d_head] slabs) and attends all
// query heads in one call ([n, heads * d_head] in, same shape out) — which
// lets the HACK backend run the batched multi-head engine
// (attention/layer_attention.h) instead of a per-head loop.
class LayerBackend {
 public:
  virtual ~LayerBackend() = default;

  // Appends new tokens' K/V rows for every KV head.
  virtual void append(const Matrix& k_all, const Matrix& v_all) = 0;

  // Causal attention of all query heads over the cached tokens; `key_offset`
  // is the timeline index of q_all's first row.
  virtual Matrix attend(const Matrix& q_all, std::size_t key_offset) = 0;

  // Bytes this layer's caches occupy in stored (possibly compressed) form.
  virtual std::size_t stored_bytes() const = 0;

  // The batched HACK layer state behind this backend, when there is one.
  // The serving engine uses it to fuse the attends of many sequences into a
  // single multi-sequence launch (MultiAttendBatch in
  // attention/layer_attention.h). Null for per-head adapted backends.
  virtual HackLayerKvState* hack_state() { return nullptr; }
};

using LayerBackendFactory = std::function<std::unique_ptr<LayerBackend>(
    std::size_t d_head, std::size_t kv_heads, std::size_t query_heads)>;

// Factories for each method. Stochastic backends fork deterministic RNG
// streams from `seed`.
BackendFactory make_exact_backend();
BackendFactory make_fp16_backend();
BackendFactory make_hack_backend(HackAttentionConfig config,
                                 std::uint64_t seed);
BackendFactory make_codec_backend(std::shared_ptr<const KvCodec> codec,
                                  std::uint64_t seed);
BackendFactory make_minifloat_backend(MiniFloatFormat format);

// Adapts a per-head factory into a layer backend that loops KV heads on
// append and query heads on attend — the pre-batching model behavior, still
// used by every non-HACK method.
LayerBackendFactory per_head_layer_factory(BackendFactory factory);

// Native batched HACK layer backend over HackLayerKvState: one quantize pass
// and fused head-parallel HQ-GEMM launches per layer. Seeded so that KV head
// h of layer l draws the same stream as the per-head backend
// make_hack_backend(config, seed) would give it — generation is
// bit-identical between the two, the batched path just runs wider.
LayerBackendFactory make_hack_layer_backend(HackAttentionConfig config,
                                            std::uint64_t seed);

struct TinyConfig {
  std::size_t vocab = 256;   // byte-level tokens
  std::size_t layers = 2;
  std::size_t heads = 4;
  std::size_t kv_heads = 2;  // GQA: heads % kv_heads == 0
  std::size_t d_head = 64;
  std::size_t d_ff = 512;
  float rope_base = 10000.0f;
  std::uint64_t weight_seed = 0x7acc5eedULL;

  std::size_t d_model() const { return heads * d_head; }
};

// The immutable parameter set of the tiny transformer: token embeddings
// (tied LM head), per-layer attention/SwiGLU projections, norm gains.
// Weights are a deterministic function of config.weight_seed. One instance
// is shared read-only by every concurrent session; nothing here mutates
// after construction.
class TinyModelWeights {
 public:
  struct LayerWeights {
    Matrix wq, wk, wv, wo;          // attention projections
    Matrix w_gate, w_up, w_down;    // SwiGLU
    std::vector<float> norm_attn;   // RMSNorm gains
    std::vector<float> norm_mlp;
  };

  explicit TinyModelWeights(const TinyConfig& config);

  const TinyConfig& config() const { return config_; }
  const LayerWeights& layer(std::size_t i) const { return layers_[i]; }

  // Embedding rows for a token batch.
  Matrix embed(const std::vector<int>& tokens) const;

  // Final RMSNorm + tied LM head over one hidden row.
  std::vector<float> logits(std::span<const float> hidden_row) const;

  // The dense halves of one transformer layer, over any number of stacked
  // hidden rows ([rows, d_model]). Every output row depends only on the same
  // row of the inputs, bit for bit (matmul's contract in tensor/ops.h), so
  // the serving engine runs them once per step over every lane's rows while
  // a session runs them over its own chunk. `threads` follows the library
  // convention (0 = auto on the shared pool, 1 = serial, N = N panels).
  //
  // Phase A's dense half: pre-norm, then the Q/K/V projections (RoPE is
  // per sequence and left to the session).
  struct Qkv {
    Matrix q, k, v;
  };
  Qkv project_qkv(std::size_t layer, const Matrix& x, int threads = 0) const;

  // Phase B: folds the attention output back into x (Wo + residual) and
  // runs the SwiGLU MLP (+ residual). Consumes and returns the hidden state.
  Matrix finish_layer(std::size_t layer, Matrix x, const Matrix& attn_out,
                      int threads = 0) const;

  // Batched LM head: one [rows × d] · [d × vocab] launch over the tied
  // embedding for several sequences' final hidden rows. Row r of the result
  // is bit-identical to logits(hidden.row(r)) — same rms_norm, same
  // per-element accumulation order — the batching only hoists the vocab
  // sweep so M emitting lanes read the embedding matrix once per step
  // instead of M times. `threads` follows the library convention (0 = auto
  // on the shared pool, 1 = serial, N = at most N chunks of vocab rows).
  Matrix logits_batch(const Matrix& hidden, int threads = 0) const;

  // In-place RoPE over the leading `head_count` heads of x, positions
  // starting at start_pos.
  void apply_rope(Matrix& x, std::size_t head_count,
                  std::size_t start_pos) const;

  // Parameter bytes (FP32) — the per-instance memory a shared weight set
  // amortizes across sessions.
  std::size_t weight_bytes() const;

 private:
  TinyConfig config_;
  Matrix embedding_;  // vocab x d_model (tied LM head)
  std::vector<LayerWeights> layers_;
  std::vector<float> norm_final_;
};

std::shared_ptr<const TinyModelWeights> make_tiny_weights(
    const TinyConfig& config);

// Greedy decoding's token choice: first index of the maximum logit. Shared
// by TinyTransformer::generate and the serving engine so both pick the same
// token on exact ties.
int argmax_logits(std::span<const float> logits);

// One request's model state: a per-layer KV backend stack plus the position
// of the next token on the timeline. Sessions are cheap relative to weights
// (they own only KV state) and every session holds the same shared
// TinyModelWeights.
//
// Stepping contract: a chunk of `n` rows starting at position() is run
// through layers 0..L-1 (forward_layer, or the split
// project_and_append / attend / finish_layer, whose dense parts may run
// stacked with other sessions' rows), then advance(n) commits the chunk.
// All layers of one chunk see the same start position.
class TinyModelSession {
 public:
  TinyModelSession(std::shared_ptr<const TinyModelWeights> weights,
                   const LayerBackendFactory& factory);

  const TinyModelWeights& weights() const { return *weights_; }
  const std::shared_ptr<const TinyModelWeights>& weights_ptr() const {
    return weights_;
  }
  const TinyConfig& config() const { return weights_->config(); }
  std::size_t position() const { return position_; }
  std::size_t layers() const { return backends_.size(); }
  LayerBackend& backend(std::size_t layer) { return *backends_[layer]; }

  // Phase A's per-sequence half over this session's projected rows
  // (TinyModelWeights::project_qkv) at start_pos (== position()): RoPE on
  // q and k, then KV append. Returns the rotated Q slab
  // ([n, heads * d_head]).
  Matrix rotate_and_append(std::size_t layer, TinyModelWeights::Qkv qkv,
                           std::size_t start_pos);

  // Phase A of one layer over hidden rows x ([n, d_model]):
  // project_qkv, then rotate_and_append. x is untouched.
  Matrix project_and_append(std::size_t layer, const Matrix& x,
                            std::size_t start_pos);

  // Phase B: TinyModelWeights::finish_layer.
  Matrix finish_layer(std::size_t layer, Matrix x,
                      const Matrix& attn_out) const;

  // Phase A + this session's own backend attend + phase B.
  Matrix forward_layer(std::size_t layer, const Matrix& x,
                       std::size_t start_pos);

  // Runs a token chunk through the whole stack at the current position and
  // commits it: embed → forward_layer per layer → advance. Returns the final
  // hidden states. TinyTransformer::forward and the disaggregated workers
  // (serving/disagg.h) share this one implementation, which is what keeps
  // their per-layer call sequences — and thus their stochastic quantizer
  // draws — identical across the worker boundary.
  Matrix forward_rows(const std::vector<int>& tokens);

  // Commits a chunk: position() += rows.
  void advance(std::size_t rows);

  // Rehydration hook for the disaggregated handoff (kvcache/kv_wire.h): a
  // fresh decode-side session imports the prefill instance's per-layer KV
  // state, then jumps its timeline position here. Only a fresh session may
  // jump; a used one would desynchronize from its backends.
  void restore_position(std::size_t position);

  // Final norm + tied LM head for row `row` of a hidden-state chunk.
  std::vector<float> logits_for_row(const Matrix& hidden,
                                    std::size_t row) const;

  // Total stored KV bytes across all layers.
  std::size_t kv_stored_bytes() const;

 private:
  std::shared_ptr<const TinyModelWeights> weights_;
  std::vector<std::unique_ptr<LayerBackend>> backends_;  // one per layer
  std::size_t position_ = 0;
};

}  // namespace hack
