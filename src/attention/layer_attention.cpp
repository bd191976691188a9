#include "attention/layer_attention.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "base/thread_pool.h"
#include "core/hq_matmul.h"
#include "tensor/ops.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace hack {
namespace {

void add_hq(HackAttnStats& stats, const HqStats& hq) {
  stats.int_macs += hq.int_macs;
  stats.approx_flops += hq.approx_flops;
  stats.sum_recompute_flops += hq.sum_flops;
}

void add_attn_stats(HackAttnStats& dst, const HackAttnStats& src) {
  dst.quantized_values += src.quantized_values;
  dst.int_macs += src.int_macs;
  dst.approx_flops += src.approx_flops;
  dst.sum_recompute_flops += src.sum_recompute_flops;
  dst.fp16_tail_macs += src.fp16_tail_macs;
  dst.requant_events += src.requant_events;
  dst.requant_values += src.requant_values;
}

// Every task is independent — own output slot, own pre-forked RNG streams —
// so the shared pool fan-out cannot change results.
void for_each_task(std::size_t n, int threads,
                   const std::function<void(std::size_t)>& fn) {
  parallel_for_each_index(n, threads, fn);
}

}  // namespace

namespace {

// ------------------------------------------------------------- flat path
// Single-row (decode) tasks keep the PR 2 pipeline: one materialized score
// row per head through quantize-Q → batched Q·Kᵀ GEMV → softmax →
// quantize-P → batched P·V GEMV → FP16 tail. A decode launch's whole-layer
// score state is heads × lkv cells — KiBs, not the O(heads · L²) that made
// prefill need streaming — so no tiling or chunking applies here, and the
// path stays bit-identical to the pre-tiling engine.
void run_flat_attention(std::span<HeadAttentionTask> tasks,
                        std::span<const std::size_t> lq,
                        std::span<const std::size_t> lkv,
                        std::span<const std::size_t> vq_rows,
                        std::span<const AttentionOptions> opts,
                        std::span<Matrix> outs, HackAttnStats& local,
                        int threads) {
  const std::size_t t_count = tasks.size();

  // --- Quantize Q for every head (step 3 in Fig. 5). The sub-streams were
  // forked before this call, so the head loop parallelizes without
  // reordering any RNG stream.
  std::vector<QuantizedMatrix> qq(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    local.quantized_values += static_cast<std::int64_t>(tasks[t].q->size());
  }
  for_each_task(t_count, threads, [&](std::size_t t) {
    const HackAttentionConfig& cfg = tasks[t].state->config();
    qq[t] = quantize(*tasks[t].q, cfg.q_bits, cfg.pi, QuantAxis::kRow,
                     cfg.rounding, *tasks[t].q_rng,
                     /*allow_ragged_tail=*/false, threads);
  });

  // --- S = Q·Kᵀ for all heads in one (head × row-band) launch.
  std::vector<Matrix> scores(t_count);
  {
    std::vector<HqStats> hq_nt(t_count);
    std::vector<HqGemmTask> gemm(t_count);
    for (std::size_t t = 0; t < t_count; ++t) {
      const HackKvState& st = *tasks[t].state;
      gemm[t] = {&qq[t], &st.k(),
                 st.config().summation_elimination ? &st.k_sums() : nullptr,
                 &scores[t], &hq_nt[t]};
    }
    hq_matmul_nt_batched(gemm, threads);
    for (const HqStats& hq : hq_nt) add_hq(local, hq);
  }
  qq.clear();

  // --- P = softmax(S / √d) (step 4), head-parallel, full precision as on
  // the GPU.
  std::vector<Matrix> p(t_count);
  for_each_task(t_count, threads, [&](std::size_t t) {
    Matrix& s = scores[t];
    const float inv_sqrt_d =
        1.0f / std::sqrt(static_cast<float>(tasks[t].q->cols()));
    for (float& v : s.flat()) v *= inv_sqrt_d;
    p[t] = opts[t].causal ? softmax_rows_causal(s, opts[t].key_offset)
                          : softmax_rows(s);
    s = Matrix();  // scores for this head are dead; cap peak memory
  });

  // --- Quantize P per head. RQE-off heads multiply against the spliced
  // (full + ragged tail) V store, built once per distinct KV head.
  std::vector<QuantizedMatrix> pq(t_count);
  std::vector<const HackKvState*> spliced_owner;
  std::vector<QuantizedMatrix> spliced_v;
  std::vector<std::size_t> spliced_of(t_count, 0);
  for (std::size_t t = 0; t < t_count; ++t) {
    const HackKvState& st = *tasks[t].state;
    if (st.config().requant_elimination) {
      local.quantized_values +=
          vq_rows[t] > 0
              ? static_cast<std::int64_t>(lq[t]) * vq_rows[t]
              : 0;
      continue;
    }
    local.quantized_values += static_cast<std::int64_t>(lq[t]) * lkv[t];
    std::size_t found = spliced_owner.size();
    for (std::size_t s = 0; s < spliced_owner.size(); ++s) {
      if (spliced_owner[s] == &st) {
        found = s;
        break;
      }
    }
    if (found == spliced_owner.size()) {
      spliced_owner.push_back(&st);
      spliced_v.push_back(st.v_quantized_all());
      HACK_CHECK(spliced_v.back().rows == lkv[t],
                 "RQE-off V store out of sync");
    }
    spliced_of[t] = found;
  }
  for_each_task(t_count, threads, [&](std::size_t t) {
    const HackAttentionConfig& cfg = tasks[t].state->config();
    if (cfg.requant_elimination) {
      if (vq_rows[t] > 0) {
        pq[t] = quantize(take_cols(p[t], 0, vq_rows[t]), cfg.q_bits, cfg.pi,
                         QuantAxis::kRow, cfg.rounding, *tasks[t].p_rng,
                         /*allow_ragged_tail=*/false, threads);
      }
    } else {
      pq[t] = quantize(p[t], cfg.q_bits, cfg.pi, QuantAxis::kRow, cfg.rounding,
                       *tasks[t].p_rng, /*allow_ragged_tail=*/true, threads);
    }
  });

  // --- O = P·V for all heads with quantized V rows, one batched launch.
  std::vector<Matrix> oq(t_count);
  {
    std::vector<HqStats> hq_nn(t_count);
    std::vector<HqGemmTask> gemm;
    gemm.reserve(t_count);
    std::vector<std::size_t> gemm_task;
    for (std::size_t t = 0; t < t_count; ++t) {
      const HackKvState& st = *tasks[t].state;
      const HackAttentionConfig& cfg = st.config();
      if (cfg.requant_elimination) {
        if (vq_rows[t] == 0) continue;
        gemm.push_back({&pq[t], &st.v_quantized(),
                        cfg.summation_elimination ? &st.v_sums() : nullptr,
                        &oq[t], &hq_nn[t]});
      } else {
        gemm.push_back(
            {&pq[t], &spliced_v[spliced_of[t]], nullptr, &oq[t], &hq_nn[t]});
      }
      gemm_task.push_back(t);
    }
    hq_matmul_batched(gemm, threads);
    for (const std::size_t t : gemm_task) add_hq(local, hq_nn[t]);
  }
  pq.clear();

  // --- RQE FP16 tail (§5.3) and per-head output assembly, head-parallel.
  std::vector<std::int64_t> tail_macs(t_count, 0);
  for_each_task(t_count, threads, [&](std::size_t t) {
    const HackKvState& st = *tasks[t].state;
    Matrix out;
    if (st.config().requant_elimination) {
      out = vq_rows[t] > 0 ? std::move(oq[t])
                           : Matrix(lq[t], tasks[t].q->cols(), 0.0f);
      if (vq_rows[t] < lkv[t]) {
        const Matrix p_tail = take_cols(p[t], vq_rows[t], lkv[t]);
        out = add(out, matmul(p_tail, st.v_tail_fp16()));
        tail_macs[t] = static_cast<std::int64_t>(lq[t]) *
                       (lkv[t] - vq_rows[t]) * tasks[t].q->cols();
      }
    } else {
      out = std::move(oq[t]);
    }
    outs[t] = std::move(out);
    p[t] = Matrix();
  });
  for (const std::int64_t macs : tail_macs) local.fp16_tail_macs += macs;
}

// ------------------------------------------------------------ tiled path

// Notional q-band height of the tile-size heuristic (not the actual band
// split, which adapts to head count and lanes).
inline constexpr std::size_t kTileHeuristicBandRows = 64;

// Upper bound on a streaming item's q-band height: caps per-item score/code
// state at O(kMaxTileBandRows · tile) so the layer's peak working set stays
// lanes · band · tile even when one head owns 16k+ query rows, and keeps a
// band's tile-resident state near the L2 the tile heuristic budgets for.
inline constexpr std::size_t kMaxTileBandRows = 128;

std::size_t l2_cache_bytes() {
  static const std::size_t bytes = [] {
#if defined(_SC_LEVEL2_CACHE_SIZE)
    const long v = sysconf(_SC_LEVEL2_CACHE_SIZE);
    if (v > 0) return static_cast<std::size_t>(v);
#endif
    return static_cast<std::size_t>(1) << 20;  // conservative 1 MiB default
  }();
  return bytes;
}

// Per-KV-head preparation shared across the GQA query heads reading it and
// across every tile of the streaming pass: the hoisted NT K factors, the
// quantized V view, and per-tile segment geometry with its Σ v' sums (so row
// bands never re-reduce the V codes).
struct TiledStatePrep {
  const HackKvState* st = nullptr;
  std::unique_ptr<HqNtPrep> k_prep;
  const QuantizedMatrix* v = nullptr;  // quantized V store (null if no rows)
  QuantizedMatrix spliced;             // RQE-off backing storage
  const SumCache* v_sums = nullptr;
  std::size_t v_rows = 0;              // tokens covered by the quantized V
  std::size_t tile = 0;                // resolved KV-tile width
  struct TileData {
    std::vector<KvSegment> segments;
    KvTileBSums bsums;
  };
  std::vector<TileData> tiles;  // tile ordinal over [0, v_rows)
};

// The streaming-softmax engine for multi-row (prefill) tasks. Each work item
// owns a contiguous q-row band of one head and walks the key dimension in KV
// tiles: score tile → online-softmax fold → per-segment P quantization →
// Eq. (4) P·V accumulation → FP16-tail accumulation, all against
// O(band · tile) local state. Every output row lives in exactly one item and
// every random draw is keyed to (task, tile, absolute row), so results are
// independent of the band decomposition and the thread count. Causal and
// non-causal bands share this one-pass fold; a non-causal row simply never
// retires early.
void run_tiled_attention(std::span<HeadAttentionTask> tasks,
                         std::span<const std::size_t> lq,
                         std::span<const std::size_t> lkv,
                         std::span<const AttentionOptions> opts,
                         std::span<Matrix> outs, HackAttnStats& local,
                         int threads) {
  const std::size_t t_count = tasks.size();

  // --- Quantize Q (same recipe as the flat path) and hoist Σ q' per row so
  // the tile loop never re-reduces the Q codes.
  std::vector<QuantizedMatrix> qq(t_count);
  std::vector<std::vector<std::int32_t>> q_sums(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    local.quantized_values += static_cast<std::int64_t>(tasks[t].q->size());
  }
  for_each_task(t_count, threads, [&](std::size_t t) {
    const HackAttentionConfig& cfg = tasks[t].state->config();
    qq[t] = quantize(*tasks[t].q, cfg.q_bits, cfg.pi, QuantAxis::kRow,
                     cfg.rounding, *tasks[t].q_rng,
                     /*allow_ragged_tail=*/false, threads);
    q_sums[t] = hq_a_row_sums(qq[t]);
  });
  for (std::size_t t = 0; t < t_count; ++t) {
    // MZ adds of the hoisted Σ q' (the per-call cost in the flat engine).
    local.approx_flops +=
        static_cast<std::int64_t>(lq[t]) * tasks[t].q->cols();
  }

  // --- Per-KV-head prep: hoisted NT K factors (shared across GQA heads and
  // tiles) and the quantized V view the P·V segments multiply against.
  // Heap-held so the RQE-off prep's self-reference (v -> spliced) survives
  // vector growth.
  std::vector<std::unique_ptr<TiledStatePrep>> preps;
  std::vector<std::size_t> prep_of(t_count, 0);
  for (std::size_t t = 0; t < t_count; ++t) {
    const HackKvState& st = *tasks[t].state;
    std::size_t found = preps.size();
    for (std::size_t p = 0; p < preps.size(); ++p) {
      if (preps[p]->st == &st) {
        found = p;
        break;
      }
    }
    if (found == preps.size()) {
      const HackAttentionConfig& cfg = st.config();
      auto prep = std::make_unique<TiledStatePrep>();
      prep->st = &st;
      prep->k_prep = std::make_unique<HqNtPrep>(
          st.k(), cfg.summation_elimination ? &st.k_sums() : nullptr);
      local.sum_recompute_flops += prep->k_prep->sum_flops();
      if (cfg.requant_elimination) {
        if (st.quantized_v_rows() > 0) {
          prep->v = &st.v_quantized();
          prep->v_rows = st.quantized_v_rows();
          prep->v_sums = cfg.summation_elimination ? &st.v_sums() : nullptr;
        }
      } else {
        prep->spliced = st.v_quantized_all();
        HACK_CHECK(prep->spliced.rows == st.tokens(),
                   "RQE-off V store out of sync");
        prep->v = &prep->spliced;
        prep->v_rows = st.tokens();
      }
      prep->tile = attention_tile_tokens(cfg, st.tokens());
      for (std::size_t kb = 0; kb < prep->v_rows; kb += prep->tile) {
        const std::size_t q_end = std::min(kb + prep->tile, prep->v_rows);
        TiledStatePrep::TileData td;
        td.segments = kv_tile_segments(kb, q_end, prep->v_rows, cfg.pi);
        td.bsums = kv_tile_b_sums(*prep->v, prep->v_sums, td.segments);
        local.sum_recompute_flops += td.bsums.sum_flops;
        prep->tiles.push_back(std::move(td));
      }
      preps.push_back(std::move(prep));
    }
    prep_of[t] = found;
  }

  // --- Resolve the tile width and fork the P-tile sub-streams: one stream
  // per (task, tile) in task-then-tile order, then one per row inside the
  // item via a deterministic fork walk — so the codes depend only on the
  // task's p_rng state, never on banding or scheduling.
  std::vector<std::size_t> tile(t_count), n_tiles(t_count);
  std::vector<std::vector<Rng>> tile_rngs(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    tile[t] = preps[prep_of[t]]->tile;
    n_tiles[t] = (lkv[t] + tile[t] - 1) / tile[t];
    tile_rngs[t].reserve(n_tiles[t]);
    for (std::size_t k = 0; k < n_tiles[t]; ++k) {
      tile_rngs[t].push_back(tasks[t].p_rng->fork());
    }
  }

  // --- Work items: (task × q-row band), like the batched GEMM launches.
  ThreadPool& pool = ThreadPool::global();
  const std::size_t lanes =
      threads <= 0 ? pool.lanes() : static_cast<std::size_t>(threads);
  const std::size_t parallel_bands =
      std::max<std::size_t>(1, (2 * lanes + t_count - 1) / t_count);
  struct Item {
    std::size_t task, band, r0, r1;
  };
  std::vector<Item> items;
  std::vector<std::size_t> task_bands(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    outs[t] = Matrix(lq[t], tasks[t].q->cols(), 0.0f);
    const std::size_t m = lq[t];
    const std::size_t bands = std::min(
        m, std::max(parallel_bands,
                    (m + kMaxTileBandRows - 1) / kMaxTileBandRows));
    task_bands[t] = bands;
    for (std::size_t band = 0; band < bands; ++band) {
      items.push_back({t, band, band * m / bands, (band + 1) * m / bands});
    }
  }

  // Per-(tile, band) walk states of the row-fork streams, precomputed with
  // one serial pass per (task, tile) — row r's stream is always the (r+1)-th
  // fork of the tile stream, so saving the walk at each band's first row
  // spares every item the O(r0) catch-up draws without changing a single
  // code. Indexed [band * n_tiles + tile].
  std::vector<std::vector<Rng>> band_rngs(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    const std::size_t bands = task_bands[t];
    const std::size_t m = lq[t];
    band_rngs[t].reserve(bands * n_tiles[t]);
    band_rngs[t].assign(bands * n_tiles[t], Rng(0));
    for (std::size_t ti = 0; ti < n_tiles[t]; ++ti) {
      Rng walk = tile_rngs[t][ti];
      std::size_t r = 0;
      for (std::size_t band = 0; band < bands; ++band) {
        const std::size_t r0 = band * m / bands;
        for (; r < r0; ++r) (void)walk.next_u64();
        band_rngs[t][band * n_tiles[t] + ti] = walk;
      }
    }
  }

  std::vector<HackAttnStats> item_stats(items.size());

  const auto run_item = [&](std::size_t idx) {
    const Item& it = items[idx];
    const std::size_t t = it.task;
    const bool causal = opts[t].causal;
    const std::size_t ko = opts[t].key_offset;
    const HeadAttentionTask& task = tasks[t];
    const TiledStatePrep& sp = *preps[prep_of[t]];
    const HackAttentionConfig& cfg = task.state->config();
    HackAttnStats& st = item_stats[idx];
    Matrix& out = outs[t];
    const std::size_t d = task.q->cols();
    const std::size_t L = lkv[t];
    const std::size_t tl = tile[t];
    const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();

    const std::size_t band = it.r1 - it.r0;
    std::vector<float> row_max(band, kNegInf);
    std::vector<float> row_denom(band, 0.0f);
    std::vector<float> p;                 // band × tile score / weight block
    std::vector<std::uint8_t> pcodes;     // band × tile P codes
    std::vector<float> pmins, pscales;    // band × segments metadata
    std::vector<std::int32_t> pcsums;

    for (std::size_t kb = 0, ti = 0; kb < L; kb += tl, ++ti) {
      // Rows whose causal horizon ends at or before this tile are done;
      // the horizon only recedes, so the first all-inactive tile ends the
      // band. The tile extent itself never depends on the band, so work
      // counters stay band-invariant.
      std::size_t r_act = it.r0;
      if (causal && kb > ko) r_act = std::max(it.r0, kb - ko);
      if (r_act >= it.r1) break;
      const std::size_t ke = std::min(kb + tl, L);
      const std::size_t tlen = ke - kb;
      const std::size_t act = it.r1 - r_act;

      // --- Score tile S = Q·Kᵀ over [kb, ke), Eq. (4)-corrected.
      p.resize(act * tlen);
      hq_nt_score_tile(qq[t], *sp.k_prep, q_sums[t], r_act, it.r1, kb, ke,
                       p.data());
      st.int_macs += static_cast<std::int64_t>(act) * tlen * d;
      st.approx_flops += 9 * static_cast<std::int64_t>(act) * tlen;

      // --- Online softmax fold: rescale the running output/denominator by
      // exp(old_max - new_max), then bank this tile's exp weights.
      for (std::size_t r = r_act; r < it.r1; ++r) {
        float* srow = p.data() + (r - r_act) * tlen;
        const std::size_t vis_abs = causal ? std::min(ke, ko + r + 1) : ke;
        const std::size_t vlen = vis_abs - kb;  // ≥ 1 for active rows
        float tile_max = kNegInf;
        for (std::size_t z = 0; z < vlen; ++z) {
          srow[z] *= inv_sqrt_d;
          tile_max = std::max(tile_max, srow[z]);
        }
        const float prev = row_max[r - it.r0];
        const float new_max = std::max(prev, tile_max);
        const float corr = std::exp(prev - new_max);  // 0 on the first tile
        if (corr != 1.0f) {
          row_denom[r - it.r0] *= corr;
          float* orow = &out(r, 0);
          for (std::size_t c = 0; c < d; ++c) orow[c] *= corr;
        }
        float dsum = 0.0f;
        for (std::size_t z = 0; z < vlen; ++z) {
          const float w = std::exp(srow[z] - new_max);
          srow[z] = w;
          dsum += w;
        }
        std::fill(srow + vlen, srow + tlen, 0.0f);  // masked region
        row_denom[r - it.r0] += dsum;
        row_max[r - it.r0] = new_max;
      }

      // --- Quantized P·V over the tile's slice of the quantized V store,
      // segment by segment on the absolute Π grid.
      const std::size_t q_end = std::min(ke, sp.v_rows);
      if (q_end > kb) {
        const TiledStatePrep::TileData& td = sp.tiles[ti];
        const std::vector<KvSegment>& segments = td.segments;
        const std::size_t seg_count = segments.size();
        const std::size_t qlen = q_end - kb;
        pcodes.assign(act * qlen, 0);
        pmins.assign(act * seg_count, 0.0f);
        pscales.assign(act * seg_count, 0.0f);
        pcsums.assign(act * seg_count, 0);

        // Deterministic per-row streams: row r of this tile always uses the
        // (r + 1)-th fork of the tile's stream, whatever the banding; the
        // band's walk state was precomputed, so only the r_act - r0 rows the
        // causal mask already retired are skipped here.
        Rng walk = band_rngs[t][it.band * n_tiles[t] + ti];
        for (std::size_t r = it.r0; r < r_act; ++r) (void)walk.next_u64();
        for (std::size_t r = r_act; r < it.r1; ++r) {
          Rng row_rng = walk.fork();
          const std::size_t vis_abs = causal ? std::min(ke, ko + r + 1) : ke;
          const float* prow = p.data() + (r - r_act) * tlen;
          std::uint8_t* crow = pcodes.data() + (r - r_act) * qlen;
          for (std::size_t s = 0; s < seg_count; ++s) {
            const KvSegment& seg = segments[s];
            if (seg.begin >= vis_abs) break;  // fully masked: stays (0, 0)
            const std::size_t len = seg.end - seg.begin;
            float smin = 0.0f, sscale = 0.0f;
            quantize_span({prow + (seg.begin - kb), len},
                          {crow + (seg.begin - kb), len}, cfg.q_bits,
                          cfg.rounding, row_rng, smin, sscale);
            std::int32_t csum = 0;
            for (std::size_t z = 0; z < len; ++z) {
              csum += crow[(seg.begin - kb) + z];
            }
            pmins[(r - r_act) * seg_count + s] = smin;
            pscales[(r - r_act) * seg_count + s] = sscale;
            pcsums[(r - r_act) * seg_count + s] = csum;
            st.quantized_values += static_cast<std::int64_t>(len);
          }
        }

        hq_nn_tile_accumulate(pcodes.data(), act, pmins, pscales, pcsums,
                              *sp.v, segments, td.bsums.sums, kb, q_end,
                              &out(r_act, 0));
        st.int_macs += static_cast<std::int64_t>(act) * d * qlen;
        st.approx_flops += static_cast<std::int64_t>(act) * qlen +
                           9 * static_cast<std::int64_t>(act) * d;
      }

      // --- RQE FP16 tail slice of this tile, accumulated in float.
      if (cfg.requant_elimination && ke > sp.v_rows) {
        const std::size_t tb = std::max(kb, sp.v_rows);
        const Matrix& vt = task.state->v_tail_fp16();
        for (std::size_t r = r_act; r < it.r1; ++r) {
          const std::size_t vis_abs = causal ? std::min(ke, ko + r + 1) : ke;
          if (vis_abs <= tb) continue;
          const float* prow = p.data() + (r - r_act) * tlen;
          float* orow = &out(r, 0);
          for (std::size_t z = tb; z < vis_abs; ++z) {
            const float w = prow[z - kb];
            const auto vrow = vt.row(z - sp.v_rows);
            for (std::size_t c = 0; c < d; ++c) orow[c] += w * vrow[c];
          }
          st.fp16_tail_macs +=
              static_cast<std::int64_t>(vis_abs - tb) * d;
        }
      }
    }

    // --- Normalize by the online-softmax denominator.
    for (std::size_t r = it.r0; r < it.r1; ++r) {
      HACK_CHECK(row_denom[r - it.r0] > 0.0f,
                 "row " << r << " attended to no keys");
      const float inv = 1.0f / row_denom[r - it.r0];
      float* orow = &out(r, 0);
      const std::size_t d2 = out.cols();
      for (std::size_t c = 0; c < d2; ++c) orow[c] *= inv;
    }
  };

  if (threads == 1 || items.size() == 1) {
    for (std::size_t i = 0; i < items.size(); ++i) run_item(i);
  } else {
    pool.parallel_for(items.size(),
                      chunks_for_request(threads, items.size(),
                                         /*auto_chunks=*/items.size()),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) run_item(i);
                      });
  }
  for (const HackAttnStats& s : item_stats) add_attn_stats(local, s);
}

}  // namespace

std::size_t attention_tile_tokens(const HackAttentionConfig& config,
                                  std::size_t lkv) {
  (void)lkv;
  if (config.tile_tokens > 0) return config.tile_tokens;
  // L2-aware default: the largest whole-Π tile whose per-band score + P-code
  // state (≈ 5 B/cell over a notional 64-row q band) fits half the per-core
  // L2. Whole-Π tiles keep every P quantization segment aligned to a full V
  // partition — SumCache-readable, no Σ b' recompute — which is the same
  // cache-locality argument the retired 96 MiB head-chunking budget made at
  // whole-head granularity, now enforced per tile instead of per launch.
  const std::size_t budget = l2_cache_bytes() / 2;
  std::size_t t = budget / (kTileHeuristicBandRows * 5);
  t -= t % config.pi;
  // Π may exceed the 4096 cap (nothing in the config forbids a huge
  // partition); the one-whole-partition floor wins over the cap then —
  // std::clamp with lo > hi would be UB.
  return std::max(std::min<std::size_t>(t, 4096), config.pi);
}

std::size_t tiled_attention_working_set_bytes(std::size_t lq, std::size_t lkv,
                                              std::size_t query_heads,
                                              std::size_t d_head,
                                              std::size_t tile,
                                              std::size_t lanes) {
  // Mirrors the engine's band decomposition: enough bands to feed the lanes,
  // but never taller than kMaxTileBandRows.
  const std::size_t bands = std::max(
      std::max<std::size_t>(1, (2 * lanes + query_heads - 1) / query_heads),
      (lq + kMaxTileBandRows - 1) / kMaxTileBandRows);
  const std::size_t band_rows = std::min(lq, (lq + bands - 1) / bands);
  const std::size_t tile_cols = std::min(tile, lkv);
  // Score floats + P codes per cell, the int32 P·V dot tile, the float
  // output band, and the per-segment factor vectors.
  const std::size_t per_item = band_rows * tile_cols * 5 +
                               band_rows * d_head * 8 + 3 * d_head * 4 +
                               tile_cols;
  const std::size_t in_flight = std::min(lanes, query_heads * bands);
  return in_flight * per_item;
}

std::size_t untiled_attention_working_set_bytes(std::size_t lq,
                                                std::size_t lkv,
                                                std::size_t query_heads) {
  // The PR 2 engine: every in-flight head held the full lq × lkv score
  // matrix, its softmax, and the P codes (4 + 4 + 1 B/cell), with heads
  // chunked at a 96 MiB budget and a one-head floor.
  const std::size_t per_head = lq * lkv * 9;
  if (per_head == 0) return 0;
  const std::size_t budget = 96u << 20;
  const std::size_t heads_per_chunk =
      std::min(query_heads, std::max<std::size_t>(1, budget / per_head));
  return heads_per_chunk * per_head;
}

void hack_attention_batched(std::span<HeadAttentionTask> tasks,
                            const AttentionOptions& options,
                            std::vector<Matrix>& outs, HackAttnStats* stats,
                            int threads) {
  const std::size_t t_count = tasks.size();
  outs.assign(t_count, Matrix());
  if (t_count == 0) return;

  std::vector<std::size_t> lq(t_count), lkv(t_count), vq_rows(t_count);
  std::vector<AttentionOptions> opts(t_count);
  for (std::size_t t = 0; t < t_count; ++t) {
    const HeadAttentionTask& task = tasks[t];
    HACK_CHECK(task.q != nullptr && task.state != nullptr &&
                   task.q_rng != nullptr && task.p_rng != nullptr,
               "attention task missing a field");
    HACK_CHECK(task.q->cols() == task.state->d_head(),
               "query head dim mismatch");
    HACK_CHECK(task.state->tokens() > 0, "attention over empty KV state");
    lq[t] = task.q->rows();
    lkv[t] = task.state->tokens();
    vq_rows[t] = task.state->quantized_v_rows();
    opts[t] = task.options != nullptr ? *task.options : options;
  }

  HackAttnStats local{};

  // Route per task: single-row launches (decode) keep the flat GEMV path,
  // multi-row launches stream KV tiles. A mixed launch splits; in either
  // sub-launch, task order — and with it every RNG fork — is preserved.
  std::vector<std::size_t> flat_idx, tiled_idx;
  for (std::size_t t = 0; t < t_count; ++t) {
    (lq[t] == 1 ? flat_idx : tiled_idx).push_back(t);
  }

  const auto gather_run = [&](std::span<const std::size_t> idx, bool tiled) {
    if (idx.empty()) return;
    std::vector<HeadAttentionTask> sub_tasks(idx.size());
    std::vector<std::size_t> sub_lq(idx.size()), sub_lkv(idx.size()),
        sub_vq(idx.size());
    std::vector<AttentionOptions> sub_opts(idx.size());
    std::vector<Matrix> sub_outs(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      sub_tasks[k] = tasks[idx[k]];
      sub_lq[k] = lq[idx[k]];
      sub_lkv[k] = lkv[idx[k]];
      sub_vq[k] = vq_rows[idx[k]];
      sub_opts[k] = opts[idx[k]];
    }
    if (tiled) {
      run_tiled_attention(sub_tasks, sub_lq, sub_lkv, sub_opts, sub_outs,
                          local, threads);
    } else {
      run_flat_attention(sub_tasks, sub_lq, sub_lkv, sub_vq, sub_opts,
                         sub_outs, local, threads);
    }
    for (std::size_t k = 0; k < idx.size(); ++k) {
      outs[idx[k]] = std::move(sub_outs[k]);
    }
  };
  gather_run(flat_idx, /*tiled=*/false);
  gather_run(tiled_idx, /*tiled=*/true);

  if (stats != nullptr) {
    add_attn_stats(*stats, local);
  }
}

// ------------------------------------------------------------ layer state

HackLayerKvState::HackLayerKvState(std::size_t d_head, std::size_t kv_heads,
                                   std::size_t query_heads,
                                   const HackAttentionConfig& config,
                                   std::uint64_t seed)
    : config_(config),
      d_head_(d_head),
      kv_heads_(kv_heads),
      query_heads_(query_heads),
      group_(kv_heads == 0 ? 0 : query_heads / kv_heads) {
  HACK_CHECK(kv_heads > 0, "layer needs at least one KV head");
  HACK_CHECK(query_heads > 0 && query_heads % kv_heads == 0,
             "query_heads=" << query_heads << " must be a positive multiple "
                            << "of kv_heads=" << kv_heads << " (GQA)");
  states_.reserve(kv_heads);
  rngs_.reserve(kv_heads);
  for (std::size_t h = 0; h < kv_heads; ++h) {
    states_.emplace_back(d_head, config);
    rngs_.emplace_back(seed + h);
  }
}

void HackLayerKvState::append_tokens(const Matrix& k_all, const Matrix& v_all,
                                     HackAttnStats* stats) {
  HACK_CHECK(k_all.rows() == v_all.rows(), "K/V row count mismatch");
  HACK_CHECK(k_all.cols() == kv_heads_ * d_head_ &&
                 v_all.cols() == kv_heads_ * d_head_,
             "layer K/V width must be kv_heads * d_head");
  std::vector<HackAttnStats> local(kv_heads_);
  const auto append_head = [&](std::size_t h) {
    states_[h].append_tokens(take_cols(k_all, h * d_head_, (h + 1) * d_head_),
                             take_cols(v_all, h * d_head_, (h + 1) * d_head_),
                             rngs_[h], stats != nullptr ? &local[h] : nullptr);
  };
  // Decode-step appends (one row per head) stay serial; prefill-sized chunks
  // quantize every head in one pool pass. Either way each head consumes only
  // its own stream, so the codes are identical.
  if (config_.threads == 1 ||
      k_all.size() + v_all.size() < kParallelQuantizeMinValues) {
    for (std::size_t h = 0; h < kv_heads_; ++h) append_head(h);
  } else {
    for_each_task(kv_heads_, config_.threads, append_head);
  }
  if (stats != nullptr) {
    for (const HackAttnStats& s : local) add_attn_stats(*stats, s);
  }
}

void HackLayerKvState::fork_attend_streams(std::vector<Rng>& q_rngs,
                                           std::vector<Rng>& p_rngs) {
  q_rngs.clear();
  p_rngs.clear();
  q_rngs.reserve(query_heads_);
  p_rngs.reserve(query_heads_);
  for (std::size_t g = 0; g < kv_heads_; ++g) {
    for (std::size_t sub = 0; sub < group_; ++sub) {
      q_rngs.push_back(rngs_[g].fork());
      p_rngs.push_back(rngs_[g].fork());
    }
  }
}

Matrix HackLayerKvState::attend(const Matrix& q_all,
                                const AttentionOptions& options,
                                HackAttnStats* stats) {
  // A solo attend is a multi-sequence batch of one; routing it through
  // MultiAttendBatch keeps the solo and fused paths one implementation (and
  // bit-identical by construction).
  Matrix out;
  MultiAttendBatch batch;
  batch.add(*this, q_all, options, &out);
  batch.run(config_.threads, stats);
  return out;
}

Matrix HackLayerKvState::prefill(const Matrix& q_all, const Matrix& k_all,
                                 const Matrix& v_all, HackAttnStats* stats) {
  HACK_CHECK(tokens() == 0, "prefill requires a fresh layer state");
  append_tokens(k_all, v_all, stats);
  return attend(q_all, AttentionOptions{.causal = true, .key_offset = 0},
                stats);
}

Matrix HackLayerKvState::decode_step(const Matrix& q_all, const Matrix& k_all,
                                     const Matrix& v_all,
                                     HackAttnStats* stats) {
  HACK_CHECK(q_all.rows() == 1 && k_all.rows() == 1 && v_all.rows() == 1,
             "decode processes one token at a time");
  append_tokens(k_all, v_all, stats);
  return attend(q_all,
                AttentionOptions{.causal = true, .key_offset = tokens() - 1},
                stats);
}

std::size_t HackLayerKvState::packed_kv_bytes() const {
  std::size_t total = 0;
  for (const HackKvState& st : states_) total += st.packed_kv_bytes();
  return total;
}

std::size_t HackLayerKvState::resident_code_bytes() const {
  std::size_t total = 0;
  for (const HackKvState& st : states_) total += st.resident_code_bytes();
  return total;
}

std::size_t HackLayerKvState::sum_cache_bytes() const {
  std::size_t total = 0;
  for (const HackKvState& st : states_) total += st.sum_cache_bytes();
  return total;
}

std::size_t HackLayerKvState::fp16_tail_bytes() const {
  std::size_t total = 0;
  for (const HackKvState& st : states_) total += st.fp16_tail_bytes();
  return total;
}

std::size_t HackLayerKvState::wire_bytes() const {
  std::size_t total = 0;
  for (const HackKvState& st : states_) total += st.wire_bytes();
  return total;
}

const HackKvState& HackLayerKvState::head_state(std::size_t kv_head) const {
  HACK_CHECK(kv_head < kv_heads_, "kv head " << kv_head << " out of "
                                             << kv_heads_);
  return states_[kv_head];
}

HackKvState& HackLayerKvState::head_state_mut(std::size_t kv_head) {
  HACK_CHECK(kv_head < kv_heads_, "kv head " << kv_head << " out of "
                                             << kv_heads_);
  return states_[kv_head];
}

const Rng& HackLayerKvState::head_rng(std::size_t kv_head) const {
  HACK_CHECK(kv_head < kv_heads_, "kv head " << kv_head << " out of "
                                             << kv_heads_);
  return rngs_[kv_head];
}

void HackLayerKvState::set_head_rng(std::size_t kv_head, const Rng& rng) {
  HACK_CHECK(kv_head < kv_heads_, "kv head " << kv_head << " out of "
                                             << kv_heads_);
  rngs_[kv_head] = rng;
}

// --------------------------------------------------------- multi-seq batch

void MultiAttendBatch::add(HackLayerKvState& state, const Matrix& q_all,
                           const AttentionOptions& options, Matrix* out) {
  HACK_CHECK(out != nullptr, "staged attend needs an output slot");
  HACK_CHECK(q_all.cols() == state.query_heads() * state.d_head(),
             "layer Q width must be query_heads * d_head");
  auto seq = std::make_unique<StagedSeq>();
  seq->state = &state;
  seq->q_all = &q_all;
  seq->options = options;
  seq->out = out;
  // Fork this sequence's Q/P sub-streams now, in stage order — the same
  // master-stream draws its solo attend would make at this point.
  state.fork_attend_streams(seq->q_rngs, seq->p_rngs);
  const std::size_t d_head = state.d_head();
  seq->q_heads.reserve(state.query_heads());
  for (std::size_t t = 0; t < state.query_heads(); ++t) {
    seq->q_heads.push_back(take_cols(q_all, t * d_head, (t + 1) * d_head));
  }
  seqs_.push_back(std::move(seq));
}

void MultiAttendBatch::run(int threads, HackAttnStats* stats) {
  std::size_t task_count = 0;
  for (const auto& seq : seqs_) task_count += seq->state->query_heads();
  std::vector<HeadAttentionTask> tasks;
  tasks.reserve(task_count);
  for (auto& seq : seqs_) {
    HackLayerKvState& st = *seq->state;
    const std::size_t group = st.query_heads() / st.kv_heads();
    for (std::size_t t = 0; t < st.query_heads(); ++t) {
      tasks.push_back({&seq->q_heads[t], &st.head_state_mut(t / group),
                       &seq->q_rngs[t], &seq->p_rngs[t], &seq->options});
    }
  }

  std::vector<Matrix> outs;
  hack_attention_batched(tasks, AttentionOptions{}, outs, stats, threads);

  // Scatter each sequence's per-head outputs back into its head-major slab.
  std::size_t base = 0;
  for (auto& seq : seqs_) {
    const HackLayerKvState& st = *seq->state;
    const std::size_t d_head = st.d_head();
    Matrix& out = *seq->out;
    out = Matrix(seq->q_all->rows(), st.query_heads() * d_head);
    for (std::size_t t = 0; t < st.query_heads(); ++t) {
      const Matrix& head_out = outs[base + t];
      for (std::size_t r = 0; r < out.rows(); ++r) {
        const auto src = head_out.row(r);
        std::copy(src.begin(), src.end(), out.row(r).begin() + t * d_head);
      }
    }
    base += st.query_heads();
  }
  seqs_.clear();
}

}  // namespace hack
