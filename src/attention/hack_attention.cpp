#include "attention/hack_attention.h"

#include <cmath>

#include "attention/layer_attention.h"
#include "tensor/half.h"
#include "tensor/ops.h"

namespace hack {
namespace {

void count_quantized(HackAttnStats* stats, std::size_t values) {
  if (stats != nullptr) {
    stats->quantized_values += static_cast<std::int64_t>(values);
  }
}

}  // namespace

HackKvState::HackKvState(std::size_t d_head, const HackAttentionConfig& config)
    : config_(config), d_head_(d_head) {
  HACK_CHECK(valid_partition_size(config.pi),
             "Π=" << config.pi << " must be a positive multiple of 16");
  HACK_CHECK(d_head % config.pi == 0,
             "Π=" << config.pi << " must divide d_head=" << d_head
                  << " (K partitions run along the head dimension)");
  HACK_CHECK(config.q_bits == 8 || config.q_bits == 4 || config.q_bits == 2,
             "unsupported q_bits");
  HACK_CHECK(config.kv_bits == 8 || config.kv_bits == 4 || config.kv_bits == 2,
             "unsupported kv_bits");
}

std::size_t HackKvState::quantized_v_rows() const {
  return v_init_ ? v_q_.rows : 0;
}

void HackKvState::append_tokens(const Matrix& k_new, const Matrix& v_new,
                                Rng& rng, HackAttnStats* stats) {
  HACK_CHECK(k_new.rows() == v_new.rows(), "K/V row count mismatch");
  HACK_CHECK(k_new.cols() == d_head_ && v_new.cols() == d_head_,
             "K/V head dim mismatch");
  HACK_CHECK(k_new.rows() > 0, "appending zero tokens");

  // K: each token's row partitions along the fixed head dimension, so new
  // tokens form whole new partitions and old metadata never changes (§5.3).
  QuantizedMatrix k_chunk =
      quantize(k_new, config_.kv_bits, config_.pi, QuantAxis::kRow,
               config_.rounding, rng, /*allow_ragged_tail=*/false,
               config_.threads);
  pack_storage(k_chunk);  // resident planes hold bit-packed codes
  count_quantized(stats, k_new.size());
  if (!k_init_) {
    k_ = std::move(k_chunk);
    k_sums_ = SumCache::build(k_);
    k_init_ = true;
  } else {
    k_sums_.append_rows(k_chunk);
    append_rows(k_, k_chunk);
  }

  // V: rows accumulate along the sequence dimension.
  if (config_.requant_elimination) {
    Matrix staged = v_new;
    staged.round_to_fp16();  // the tail buffer is an FP16 cache (§5.3)
    v_tail_fp16_ = v_tail_fp16_.empty() ? staged : vstack(v_tail_fp16_, staged);
    promote_full_partitions(rng, stats);
  } else {
    requantize_tail(v_new, rng, stats);
    promote_full_partitions(rng, stats);
  }
  tokens_ += k_new.rows();
}

void HackKvState::promote_full_partitions(Rng& rng, HackAttnStats* stats) {
  const std::size_t pi = config_.pi;
  if (config_.requant_elimination) {
    while (v_tail_fp16_.rows() >= pi) {
      const Matrix chunk = take_rows(v_tail_fp16_, 0, pi);
      QuantizedMatrix qchunk =
          quantize(chunk, config_.kv_bits, pi, QuantAxis::kCol,
                   config_.rounding, rng, /*allow_ragged_tail=*/false,
                   config_.threads);
      pack_storage(qchunk);
      count_quantized(stats, chunk.size());
      if (!v_init_) {
        v_q_ = std::move(qchunk);
        v_sums_ = SumCache::build(v_q_);
        v_init_ = true;
      } else {
        v_sums_.append_inner_groups(qchunk);
        append_inner_groups(v_q_, qchunk);
      }
      v_tail_fp16_ = v_tail_fp16_.rows() == pi
                         ? Matrix()
                         : take_rows(v_tail_fp16_, pi, v_tail_fp16_.rows());
    }
  } else {
    while (v_tail_q_init_ && v_tail_q_.rows >= pi) {
      HACK_CHECK(v_tail_q_.rows == pi,
                 "requantized tail grew past one partition");
      if (!v_init_) {
        v_q_ = v_tail_q_;
        v_sums_ = SumCache::build(v_q_);
        v_init_ = true;
      } else {
        v_sums_.append_inner_groups(v_tail_q_);
        append_inner_groups(v_q_, v_tail_q_);
      }
      v_tail_q_ = QuantizedMatrix{};
      v_tail_q_init_ = false;
    }
  }
}

void HackKvState::requantize_tail(const Matrix& rows, Rng& rng,
                                  HackAttnStats* stats) {
  const std::size_t pi = config_.pi;
  std::size_t consumed = 0;
  while (consumed < rows.rows()) {
    const std::size_t tail_rows = v_tail_q_init_ ? v_tail_q_.rows : 0;
    const std::size_t room = pi - tail_rows;
    const std::size_t take = std::min(room, rows.rows() - consumed);
    const Matrix incoming = take_rows(rows, consumed, consumed + take);
    consumed += take;

    Matrix block;
    if (v_tail_q_init_) {
      // The expensive path of Fig. 8: reconstruct the old values from their
      // codes, then requantize everything under the widened [min, max]. The
      // reconstruction error of each round compounds.
      block = vstack(dequantize(v_tail_q_, config_.threads), incoming);
      if (stats != nullptr) {
        ++stats->requant_events;
        stats->requant_values += static_cast<std::int64_t>(block.size());
      }
    } else {
      block = incoming;
    }
    v_tail_q_ = quantize(block, config_.kv_bits, pi, QuantAxis::kCol,
                         config_.rounding, rng, /*allow_ragged_tail=*/true,
                         config_.threads);
    pack_storage(v_tail_q_);
    v_tail_q_init_ = true;
    count_quantized(stats, block.size());
    if (v_tail_q_.rows >= pi) {
      promote_full_partitions(rng, stats);
    }
  }
}

std::size_t HackKvState::packed_kv_bytes() const {
  std::size_t total = 0;
  if (k_init_) total += k_.stored_bytes();
  if (v_init_) total += v_q_.stored_bytes();
  if (v_tail_q_init_) total += v_tail_q_.stored_bytes();
  return total;
}

std::size_t HackKvState::resident_code_bytes() const {
  std::size_t total = 0;
  if (k_init_) total += k_.codes.size();
  if (v_init_) total += v_q_.codes.size();
  if (v_tail_q_init_) total += v_tail_q_.codes.size();
  return total;
}

std::size_t HackKvState::sum_cache_bytes() const {
  if (!config_.summation_elimination) return 0;
  std::size_t total = 0;
  if (k_init_) total += k_sums_.storage_bytes();
  if (v_init_) total += v_sums_.storage_bytes();
  return total;
}

std::size_t HackKvState::fp16_tail_bytes() const {
  return v_tail_fp16_.size() * 2;
}

std::size_t HackKvState::wire_bytes() const {
  return packed_kv_bytes() + sum_cache_bytes() + fp16_tail_bytes();
}

QuantizedMatrix HackKvState::v_quantized_all() const {
  HACK_CHECK(v_init_ || v_tail_q_init_, "RQE-off V store is empty");
  if (!v_init_) {
    return v_tail_q_;
  }
  QuantizedMatrix v_all = v_q_;
  if (v_tail_q_init_) {
    const QuantizedMatrix& tail = v_tail_q_;
    // Rows are padded to whole bytes under packed storage, so concatenating
    // the tail's code bytes below the full-partition store stays row-exact.
    HACK_CHECK(v_all.storage_bits == tail.storage_bits,
               "V store / tail storage width mismatch");
    const std::size_t old_groups = v_all.group_count();
    const std::size_t new_groups = old_groups + 1;
    std::vector<float> mins(v_all.cols * new_groups);
    std::vector<float> scales(v_all.cols * new_groups);
    for (std::size_t o = 0; o < v_all.cols; ++o) {
      for (std::size_t g = 0; g < old_groups; ++g) {
        mins[o * new_groups + g] = v_all.mins[o * old_groups + g];
        scales[o * new_groups + g] = v_all.scales[o * old_groups + g];
      }
      mins[o * new_groups + old_groups] = tail.mins[o];
      scales[o * new_groups + old_groups] = tail.scales[o];
    }
    v_all.mins = std::move(mins);
    v_all.scales = std::move(scales);
    v_all.codes.insert(v_all.codes.end(), tail.codes.begin(),
                       tail.codes.end());
    v_all.rows += tail.rows;
    v_all.groups = new_groups;
  }
  return v_all;
}

void HackKvState::restore(std::size_t tokens, QuantizedMatrix k,
                          SumCache k_sums, QuantizedMatrix v_q,
                          SumCache v_sums, Matrix v_tail_fp16,
                          QuantizedMatrix v_tail_q, bool v_tail_q_present) {
  HACK_CHECK(tokens > 0, "restoring an empty state");
  HACK_CHECK(k.rows == tokens && k.cols == d_head_ &&
                 k.axis == QuantAxis::kRow && k.bits == config_.kv_bits &&
                 k.pi == config_.pi,
             "restored K section does not match this state's geometry");
  HACK_CHECK(k_sums.outer() == k.outer() && k_sums.groups() == k.group_count(),
             "restored K sums do not match the K section");
  const std::size_t v_q_rows = v_q.codes.empty() ? 0 : v_q.rows;
  if (v_q_rows > 0) {
    HACK_CHECK(v_q.cols == d_head_ && v_q.axis == QuantAxis::kCol &&
                   v_q.bits == config_.kv_bits && v_q.pi == config_.pi &&
                   v_q.rows % config_.pi == 0,
               "restored V section does not match this state's geometry");
    HACK_CHECK(v_sums.outer() == v_q.outer() &&
                   v_sums.groups() == v_q.group_count(),
               "restored V sums do not match the V section");
  }
  const std::size_t tail_rows =
      config_.requant_elimination
          ? v_tail_fp16.rows()
          : (v_tail_q_present ? v_tail_q.rows : 0);
  HACK_CHECK(v_q_rows + tail_rows == tokens,
             "restored V rows " << v_q_rows << "+" << tail_rows
                                << " do not cover " << tokens << " tokens");
  if (config_.requant_elimination) {
    HACK_CHECK(!v_tail_q_present,
               "RQE-on state cannot carry a requantized tail");
    HACK_CHECK(v_tail_fp16.empty() || v_tail_fp16.cols() == d_head_,
               "restored FP16 tail width mismatch");
  } else {
    HACK_CHECK(v_tail_fp16.empty(), "RQE-off state cannot carry an FP16 tail");
  }

  tokens_ = tokens;
  k_ = std::move(k);
  k_sums_ = std::move(k_sums);
  k_init_ = true;
  v_q_ = std::move(v_q);
  v_sums_ = std::move(v_sums);
  v_init_ = v_q_rows > 0;
  v_tail_fp16_ = std::move(v_tail_fp16);
  v_tail_q_ = std::move(v_tail_q);
  v_tail_q_init_ = v_tail_q_present;
  // Normalize to the resident representation: bit-packed code rows. No-op
  // when the wire reader already adopted the packed bytes (or kv_bits == 8).
  pack_storage(k_);
  if (v_init_) pack_storage(v_q_);
  if (v_tail_q_init_) pack_storage(v_tail_q_);
}

Matrix hack_attention(const Matrix& q, HackKvState& state,
                      const AttentionOptions& options, Rng& rng,
                      HackAttnStats* stats) {
  // Thin wrapper over the batched engine: one task, with the Q/P quantizer
  // sub-streams forked here in the same order the layer engine uses, so a
  // loop of per-head calls is bit-identical to one batched layer call.
  Rng q_rng = rng.fork();
  Rng p_rng = rng.fork();
  HeadAttentionTask task{&q, &state, &q_rng, &p_rng};
  std::vector<Matrix> outs;
  hack_attention_batched({&task, 1}, options, outs, stats,
                         state.config().threads);
  return std::move(outs[0]);
}

}  // namespace hack
