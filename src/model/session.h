// Shared model weights + per-request model sessions + the one model step.
//
// A serving instance loads one set of transformer weights and runs many
// concurrent requests over it. This header splits the model into three parts:
//
//   - TinyModelWeights: the immutable parameter set (embeddings, per-layer
//     projections, norms). Constructed once, shared by any number of
//     sessions via shared_ptr — one copy serves N concurrent requests.
//   - TinyModelSession: everything one request owns — its per-layer KV
//     backends and its position on the timeline.
//   - step_lanes: the one forward pass, over any number of lanes (a
//     session, the token rows it feeds, whether it emits logits). The
//     serving engine steps many lanes; TinyTransformer and the
//     disaggregated prefill and decode workers step one.
//
// The per-layer KV backend interface (LayerBackend) and its factories live
// here too: a session is exactly "position + one LayerBackend per layer", and
// the backends are what a session instantiates per request.
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
  // step_lanes uses it to fuse the attends of every lane into a single
  // multi-sequence launch (MultiAttendBatch in
  // attention/layer_attention.h). Null for every non-HACK backend.
  virtual HackLayerKvState* hack_state() { return nullptr; }
};

using LayerBackendFactory = std::function<std::unique_ptr<LayerBackend>(
    std::size_t d_head, std::size_t kv_heads, std::size_t query_heads)>;

// Factories for each method. Stochastic backends fork deterministic RNG
// streams from `seed`: a factory counts the layers it builds (across every
// session built from it), and KV head h of its l-th layer draws from
// seed + l * kv_heads + h.
//
// Exact, FP16, codec and mini-float layers hold one cache per KV head and
// attend each query head in turn.
LayerBackendFactory make_exact_backend();
LayerBackendFactory make_fp16_backend();
LayerBackendFactory make_codec_backend(std::shared_ptr<const KvCodec> codec,
                                       std::uint64_t seed);
LayerBackendFactory make_minifloat_backend(MiniFloatFormat format);

// HACK: homomorphic quantized attention over HackLayerKvState — one quantize
// pass and fused head-parallel HQ-GEMM launches per layer.
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

  // The dense halves of one transformer layer, over any number of stacked
  // hidden rows ([rows, d_model]). Every output row depends only on the same
  // row of the inputs, bit for bit (matmul's contract in tensor/ops.h), so
  // step_lanes runs them once per step over every lane's stacked rows and
  // each lane gets the bits it would get alone. `threads` follows the library
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

  // Final RMSNorm + tied LM head: one [rows × d] · [d × vocab] launch over
  // the tied embedding for one or several sequences' final hidden rows. Row r
  // of the result depends only on hidden.row(r), bit for bit: every logit
  // sums its products in ascending order, so M emitting lanes read the
  // embedding matrix once per step instead of M times and get the bits they
  // would get alone. `threads` follows the library convention (0 = auto on
  // the shared pool, 1 = serial, N = at most N chunks of vocab rows).
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
// by every greedy caller so all pick the same token on exact ties.
int argmax_logits(std::span<const float> logits);

// The greedy emission rule TinyTransformer::generate, the disaggregated
// decode worker and the serving engine all follow: whether `token`, chosen
// after `recorded` tokens were recorded, is recorded too. An eos token stops
// generation without being recorded, and max_new_tokens bounds the count.
bool greedy_records(std::size_t recorded, int token,
                    std::size_t max_new_tokens, int eos);

// One request's model state: a per-layer KV backend stack plus the position
// of the next token on the timeline. Sessions are cheap relative to weights
// (they own only KV state) and every session holds the same shared
// TinyModelWeights.
//
// Stepping contract: a chunk of `n` rows starting at position() is run
// through layers 0..L-1 — project_qkv, rotate_and_append, an attend over
// backend(layer), finish_layer — then advance(n) commits the chunk. All
// layers of one chunk see the same start position. step_lanes is the one
// implementation of that sequence; the per-layer pieces stay public for
// callers that time each stage (bench/hackbench's replay).
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

  // Commits a chunk: position() += rows.
  void advance(std::size_t rows);

  // Rehydration hook for the disaggregated handoff (kvcache/kv_wire.h): a
  // fresh decode-side session imports the prefill instance's per-layer KV
  // state, then jumps its timeline position here. Only a fresh session may
  // jump; a used one would desynchronize from its backends.
  void restore_position(std::size_t position);

  // Final norm + tied LM head for row `row` of a hidden-state chunk:
  // TinyModelWeights::logits_batch over that one row, serially.
  std::vector<float> logits_for_row(const Matrix& hidden,
                                    std::size_t row) const;

  // Total stored KV bytes across all layers.
  std::size_t kv_stored_bytes() const;

 private:
  std::shared_ptr<const TinyModelWeights> weights_;
  std::vector<std::unique_ptr<LayerBackend>> backends_;  // one per layer
  std::size_t position_ = 0;
};

// One lane of a model step: a session, the token rows it feeds at its
// position, and whether its last row's logits are wanted. `tokens` must
// stay valid for the step; lanes of one step hold distinct sessions over
// one weight set.
struct StepLane {
  TinyModelSession* session = nullptr;
  std::span<const int> tokens;
  bool emits = false;
};

struct StepOutput {
  Matrix logits;       // one row per emitting lane, in lane order
  bool fused = false;  // each layer's attends ran as one MultiAttendBatch
};

// The one forward step. Embeds every lane's rows into one stacked hidden
// state; per layer runs project_qkv and finish_layer once over the stacked
// rows, rotate_and_append per lane, and the attends — one fused
// MultiAttendBatch launch when the backends expose a HackLayerKvState, per
// lane otherwise; then advances every lane's position by its rows and runs
// one logits_batch over the emitting lanes' last rows.
//
// Every stacked dense row and every per-lane phase has the bits it would
// have alone (tensor/ops.h, attention/layer_attention.h), so a lane's logits
// and KV state do not depend on what it is stepped with or on `threads`
// (library convention: 0 = auto on the shared pool, 1 = serial, N = cap).
// Single-row lanes run their per-lane phases as pool tasks; multi-row lanes
// run on the caller afterwards, where their quantize passes can use the
// whole pool.
StepOutput step_lanes(std::span<const StepLane> lanes, int threads = 0);

}  // namespace hack
