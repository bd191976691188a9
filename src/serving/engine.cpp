#include "serving/engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "attention/layer_attention.h"
#include "base/thread_pool.h"
#include "kvcache/kv_wire.h"
#include "tensor/ops.h"

namespace hack {
namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// One admitted request's execution state: its session (KV backends +
// position), its KV block reservation, and the token feeding the next
// decode step. In tiered mode the session is destroyed on swap-out (the
// kv_wire blob in the far tier is the state) and rebuilt on resume;
// last_token and resume_state survive the round trip.
struct ServingEngine::RunningSeq {
  RunningSeq(std::size_t record_idx,
             std::shared_ptr<const TinyModelWeights> weights,
             const LayerBackendFactory& factory)
      : record(record_idx),
        session(std::make_unique<TinyModelSession>(std::move(weights),
                                                   factory)) {}

  std::size_t record;  // index into records_
  std::unique_ptr<TinyModelSession> session;  // null while swapped
  std::vector<BlockId> blocks;  // FCFS mode: worst-case reservation
  int last_token = -1;
  RequestState resume_state = RequestState::kPrefill;  // phase while swapped
  std::size_t swap_tokens = 0;  // KV rows in the far-tier blob while swapped
  std::size_t stall_steps = 0;  // consecutive planned steps left unscheduled
  std::size_t ordinal = 0;      // admission order (tiered priority tiebreak)
};

// A speculative swap-in staged on a background thread: a fresh session
// being deserialized from the far-tier blob while the engine computes the
// current step. The worker writes `session` and `work_s` before exiting;
// the engine reads them only after join(), so the hand-off is synchronized
// and the worker never touches the shared thread pool (the deserialize
// path is serial by construction — kvcache/kv_wire.cpp).
struct ServingEngine::StagedPrefetch {
  std::size_t record = 0;  // index into records_
  std::thread worker;
  std::unique_ptr<TinyModelSession> session;
  double work_s = 0.0;

  ~StagedPrefetch() {
    if (worker.joinable()) worker.join();
  }
};

ServingEngine::ServingEngine(
    std::shared_ptr<const TinyModelWeights> weights,
    std::function<LayerBackendFactory()> make_backend_factory,
    ServingEngineConfig config, BlockAllocator* allocator)
    : weights_(std::move(weights)),
      make_backend_factory_(std::move(make_backend_factory)),
      config_(config),
      scheduler_(config.scheduler),
      allocator_(allocator) {
  HACK_CHECK(weights_ != nullptr, "engine needs model weights");
  HACK_CHECK(make_backend_factory_ != nullptr,
             "engine needs a backend factory maker");
  if (config_.scheduler.tiered) {
    HACK_CHECK(allocator_ != nullptr,
               "tiered mode needs a block allocator (the hot pool)");
    tier_ = std::make_unique<KvTierManager>(
        *allocator_, KvTierConfig{.block_tokens = config_.scheduler
                                                      .block_tokens});
  }
}

ServingEngine::~ServingEngine() = default;

double ServingEngine::now_s() const { return steady_now_s() - run_start_s_; }

void ServingEngine::submit(ServingRequest request) {
  HACK_CHECK(!request.prompt.empty(), "request needs a non-empty prompt");
  ServingRecord record;
  record.request = std::move(request);
  records_.push_back(std::move(record));
}

void ServingEngine::admit_arrivals(std::vector<std::size_t>& queued,
                                   double now) {
  std::vector<std::size_t> ready;
  for (const std::size_t idx : queued) {
    if (records_[idx].request.arrival_time_s <= now) ready.push_back(idx);
  }
  std::sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
    const double ta = records_[a].request.arrival_time_s;
    const double tb = records_[b].request.arrival_time_s;
    return ta != tb ? ta < tb : a < b;
  });
  const bool tiered = config_.scheduler.tiered;
  for (const std::size_t idx : ready) {
    ServingRecord& rec = records_[idx];
    // Tiered admission routes through the tier manager's capacity model —
    // the request only has to fit the pool alone (residents are evictable);
    // FCFS keeps the worst-case `need + floor <= num_blocks` predicate.
    const bool ever =
        tiered ? scheduler_.can_ever_admit(rec.request, tier_.get())
               : scheduler_.can_ever_admit(rec.request, allocator_);
    if (!ever) {
      rec.state = RequestState::kRejected;
      rec.finish_time_s = now;
      ++stats_.rejected;
      continue;
    }
    // Tiered mode reserves on append, so admission is slots-only; FCFS
    // reserves the worst case up front.
    if (!scheduler_.can_admit(rec.request, running_.size(),
                              tiered ? nullptr : allocator_)) {
      break;  // FCFS: later arrivals wait behind the head of the line
    }
    auto seq = std::make_unique<RunningSeq>(idx, weights_,
                                            make_backend_factory_());
    seq->ordinal = next_ordinal_++;
    if (!tiered && allocator_ != nullptr) {
      const std::size_t need = scheduler_.blocks_needed(rec.request);
      seq->blocks.reserve(need);
      for (std::size_t b = 0; b < need; ++b) {
        const BlockId id = allocator_->allocate();
        HACK_CHECK(id != kInvalidBlock, "allocator lied about capacity");
        seq->blocks.push_back(id);
      }
      rec.kv_blocks = need;
      stats_.kv_bytes_admitted += need * allocator_->block_bytes();
    }
    rec.state = RequestState::kPrefill;
    rec.admit_time_s = now;
    running_.push_back(std::move(seq));
    stats_.peak_running = std::max(stats_.peak_running, running_.size());
  }
}

void ServingEngine::finish_sequence(RunningSeq& seq, double now) {
  ServingRecord& rec = records_[seq.record];
  rec.state = RequestState::kFinished;
  rec.finish_time_s = now;
  if (tier_ != nullptr) {
    tier_->release(seq.record);
    drop_staged(seq.record);
    return;
  }
  if (allocator_ != nullptr) {
    for (const BlockId id : seq.blocks) allocator_->release(id);
    stats_.kv_bytes_released += seq.blocks.size() * allocator_->block_bytes();
    seq.blocks.clear();
  }
}

void ServingEngine::execute_step(const StepPlan& plan) {
  const double step_begin = now_s();

  struct Lane {
    std::size_t run_idx = 0;
    bool is_prefill = false;
    std::size_t chunk_begin = 0, chunk_end = 0;  // prompt rows (prefill)
    bool completes_prefill = false;
    bool emits = false;  // computes logits + greedy token for its last row
    std::size_t start_pos = 0, rows = 0;
    std::size_t row_begin = 0;  // first row in the stacked hidden state
    int token = -1;
  };

  // Decode lanes first; the (at most one) prefill lane last, so the phase
  // runner can execute it inline on the caller, where its chunk's quantize
  // pass can use the whole pool instead of being nested into one lane.
  std::vector<Lane> lanes;
  lanes.reserve(plan.decode.size() + 1);
  for (const std::size_t idx : plan.decode) {
    Lane lane;
    lane.run_idx = idx;
    lane.rows = 1;
    lane.emits = true;
    lanes.push_back(std::move(lane));
  }
  if (plan.prefill != kNoSequence) {
    RunningSeq& seq = *running_[plan.prefill];
    const ServingRecord& rec = records_[seq.record];
    Lane lane;
    lane.run_idx = plan.prefill;
    lane.is_prefill = true;
    lane.chunk_begin = plan.prefill_begin;
    lane.chunk_end = plan.prefill_end;
    lane.rows = plan.prefill_end - plan.prefill_begin;
    lane.completes_prefill = plan.prefill_end == rec.request.prompt.size();
    lane.emits = lane.completes_prefill && rec.request.max_new_tokens > 0;
    lanes.push_back(std::move(lane));
  }
  const std::size_t n_lanes = lanes.size();
  const bool has_prefill = plan.prefill != kNoSequence;
  const std::size_t n_light = has_prefill ? n_lanes - 1 : n_lanes;
  const int threads = config_.threads;

  // Phase runner for the per-lane work: decode lanes fan out as pool tasks;
  // the prefill lane runs on the caller afterwards with the pool at its
  // disposal.
  const auto run_lanes = [&](const std::function<void(std::size_t)>& fn) {
    parallel_for_each_index(n_light, threads, fn);
    if (has_prefill) fn(n_lanes - 1);
  };

  // --- Embed every lane's input tokens into one stacked hidden state: lane
  // i owns rows [row_begin, row_begin + rows).
  std::vector<int> tokens;
  for (Lane& lane : lanes) {
    const RunningSeq& seq = *running_[lane.run_idx];
    lane.start_pos = seq.session->position();
    lane.row_begin = tokens.size();
    if (lane.is_prefill) {
      HACK_CHECK(lane.chunk_begin == lane.start_pos,
                 "prefill chunk out of order");
      const auto& prompt = records_[seq.record].request.prompt;
      tokens.insert(
          tokens.end(),
          prompt.begin() + static_cast<std::ptrdiff_t>(lane.chunk_begin),
          prompt.begin() + static_cast<std::ptrdiff_t>(lane.chunk_end));
    } else {
      tokens.push_back(seq.last_token);
    }
  }
  const TinyConfig& mc = weights_->config();
  Matrix x = weights_->embed(tokens);

  // --- Layer loop (Orca-style selective batching): the dense halves run
  // once over the stacked rows of every lane, so each weight matrix streams
  // once per step; RoPE, KV append and attention stay per sequence — one
  // fused attention launch when the backends expose a HackLayerKvState,
  // per-sequence attends otherwise. matmul's rows do not depend on what
  // they are stacked with, so every lane gets the bits it would alone.
  const std::size_t n_layers = mc.layers;
  const bool fused = n_layers > 0 &&
                     running_[lanes[0].run_idx]
                             ->session->backend(0)
                             .hack_state() != nullptr;
  std::vector<Matrix> q(n_lanes), attn(n_lanes);
  std::vector<AttentionOptions> attn_opts(n_lanes);
  Matrix attn_all(x.rows(), mc.heads * mc.d_head);
  for (std::size_t layer = 0; layer < n_layers; ++layer) {
    const TinyModelWeights::Qkv qkv = weights_->project_qkv(layer, x, threads);
    run_lanes([&](std::size_t i) {
      const std::size_t r0 = lanes[i].row_begin, r1 = r0 + lanes[i].rows;
      q[i] = running_[lanes[i].run_idx]->session->rotate_and_append(
          layer,
          {take_rows(qkv.q, r0, r1), take_rows(qkv.k, r0, r1),
           take_rows(qkv.v, r0, r1)},
          lanes[i].start_pos);
    });
    if (fused) {
      MultiAttendBatch batch;
      for (std::size_t i = 0; i < n_lanes; ++i) {
        HackLayerKvState* state =
            running_[lanes[i].run_idx]->session->backend(layer).hack_state();
        HACK_CHECK(state != nullptr, "mixed backends in a fused step");
        attn_opts[i] = {.causal = true, .key_offset = lanes[i].start_pos};
        batch.add(*state, q[i], attn_opts[i], &attn[i]);
      }
      batch.run(threads);
      ++stats_.fused_attend_launches;
    } else {
      run_lanes([&](std::size_t i) {
        attn[i] = running_[lanes[i].run_idx]->session->backend(layer).attend(
            q[i], lanes[i].start_pos);
      });
    }
    for (std::size_t i = 0; i < n_lanes; ++i) {
      std::copy(attn[i].flat().begin(), attn[i].flat().end(),
                attn_all.flat().begin() + static_cast<std::ptrdiff_t>(
                                              lanes[i].row_begin *
                                              attn_all.cols()));
    }
    x = weights_->finish_layer(layer, std::move(x), attn_all, threads);
  }

  // --- Commit positions, then one batched LM-head launch for every
  // emitting lane: the final hidden rows gather into a [batch × d] block and
  // sweep the tied embedding once ([batch × d] · [d × vocab]) instead of
  // per-lane vocab loops. Row r of logits_batch is bit-identical to the
  // per-lane logits_for_row call it replaces.
  run_lanes([&](std::size_t i) {
    running_[lanes[i].run_idx]->session->advance(lanes[i].rows);
  });
  std::vector<std::size_t> emit_idx;
  emit_idx.reserve(n_lanes);
  for (std::size_t i = 0; i < n_lanes; ++i) {
    if (lanes[i].emits) emit_idx.push_back(i);
  }
  if (!emit_idx.empty()) {
    Matrix hidden(emit_idx.size(), mc.d_model());
    for (std::size_t m = 0; m < emit_idx.size(); ++m) {
      const Lane& lane = lanes[emit_idx[m]];
      const auto row = x.row(lane.row_begin + lane.rows - 1);
      std::copy(row.begin(), row.end(), hidden.row(m).begin());
    }
    const Matrix logits = weights_->logits_batch(hidden, threads);
    for (std::size_t m = 0; m < emit_idx.size(); ++m) {
      lanes[emit_idx[m]].token = argmax_logits(logits.row(m));
    }
  }

  // --- Bookkeeping (serial: timestamps, state transitions, removals).
  const double now = now_s();
  std::size_t emitted_this_step = 0;
  std::vector<std::size_t> finished;
  for (const Lane& lane : lanes) {
    RunningSeq& seq = *running_[lane.run_idx];
    ServingRecord& rec = records_[seq.record];
    if (lane.is_prefill) {
      rec.prefill_done = lane.chunk_end;
      ++stats_.prefill_chunks;
      if (!lane.completes_prefill) continue;
      if (rec.request.max_new_tokens == 0) {
        finish_sequence(seq, now);
        finished.push_back(lane.run_idx);
        continue;
      }
      rec.state = RequestState::kDecoding;
    }
    // Greedy emission, exactly TinyTransformer::generate's rules: an eos
    // argmax stops without being recorded; max_new_tokens bounds the count.
    if (lane.token == rec.request.eos) {
      finish_sequence(seq, now);
      finished.push_back(lane.run_idx);
      continue;
    }
    rec.generated.push_back(lane.token);
    rec.token_times_s.push_back(now);
    if (rec.first_token_time_s < 0) rec.first_token_time_s = now;
    ++total_generated_;
    ++emitted_this_step;
    if (rec.generated.size() >= rec.request.max_new_tokens) {
      finish_sequence(seq, now);
      finished.push_back(lane.run_idx);
    } else {
      seq.last_token = lane.token;
    }
  }
  std::sort(finished.begin(), finished.end());
  for (auto it = finished.rbegin(); it != finished.rend(); ++it) {
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(*it));
  }

  ++stats_.steps;
  if (!plan.decode.empty()) {
    decode_time_s_ += now - step_begin;
    decode_step_tokens_ += emitted_this_step;
    if (plan.prefill == kNoSequence) {
      pure_decode_time_s_ += now - step_begin;
      pure_decode_tokens_ += emitted_this_step;
    }
  }
}

std::vector<Scheduler::TieredSeqView> ServingEngine::tiered_views() const {
  std::vector<Scheduler::TieredSeqView> views;
  views.reserve(running_.size());
  for (const auto& seq : running_) {
    const ServingRecord& rec = records_[seq->record];
    Scheduler::TieredSeqView v;
    v.state = rec.state;
    v.resume_state = seq->resume_state;
    v.prompt_len = rec.request.prompt.size();
    v.prefill_done = rec.prefill_done;
    v.tokens = seq->session != nullptr ? seq->session->position()
                                       : seq->swap_tokens;
    v.generated = rec.generated.size();
    v.max_new = rec.request.max_new_tokens;
    v.stall_steps = seq->stall_steps;
    v.ordinal = seq->ordinal;
    views.push_back(v);
  }
  return views;
}

ServingEngine::StagedPrefetch* ServingEngine::find_staged(
    std::size_t record_idx) {
  for (const auto& staged : staged_) {
    if (staged->record == record_idx) return staged.get();
  }
  return nullptr;
}

void ServingEngine::drop_staged(std::size_t record_idx) {
  for (auto it = staged_.begin(); it != staged_.end(); ++it) {
    if ((*it)->record == record_idx) {
      staged_.erase(it);  // the entry's destructor joins the worker
      return;
    }
  }
}

void ServingEngine::evict_sequence(std::size_t run_idx) {
  RunningSeq& seq = *running_[run_idx];
  ServingRecord& rec = records_[seq.record];
  HACK_CHECK(seq.session != nullptr,
             "evicting request " << rec.request.id << " which is already "
                                 << request_state_name(rec.state));
  // Sessions are committed between steps (advance() ran), which is exactly
  // the precondition serialize_session_kv checks — the far-tier blob is a
  // bit-identical checkpoint of the sequence.
  seq.swap_tokens = seq.session->position();
  std::vector<std::uint8_t> blob = serialize_session_kv(*seq.session);
  seq.session.reset();
  seq.resume_state = rec.state;
  rec.state = RequestState::kSwapped;
  ++rec.evictions;
  tier_->swap_out(seq.record, std::move(blob));
  stats_.swap_events.push_back({SwapEvent::Kind::kEvict, stats_.steps,
                                rec.request.id, seq.swap_tokens, false});
}

void ServingEngine::resume_sequence(std::size_t run_idx) {
  RunningSeq& seq = *running_[run_idx];
  ServingRecord& rec = records_[seq.record];
  HACK_CHECK(rec.state == RequestState::kSwapped,
             "resuming request " << rec.request.id << " which is "
                                 << request_state_name(rec.state));
  const double t0 = steady_now_s();
  const auto blob = tier_->take_blob(seq.record);
  StagedPrefetch* staged = find_staged(seq.record);
  bool hit = false;
  if (staged != nullptr) {
    // The speculative deserialize ran while previous steps computed; the
    // stall is only however much of it is still unfinished at join time.
    if (staged->worker.joinable()) staged->worker.join();
    const double stall = steady_now_s() - t0;
    seq.session = std::move(staged->session);
    tier_->note_prefetch_hit();
    tier_->add_swap_in_work_s(staged->work_s);
    tier_->add_swap_in_stall_s(stall);
    rec.swap_stall_s += stall;
    ++rec.prefetch_hits;
    hit = true;
    drop_staged(seq.record);
  } else {
    // Cold resume: the whole deserialize is on the critical path.
    seq.session = std::make_unique<TinyModelSession>(weights_,
                                                     make_backend_factory_());
    deserialize_session_kv(*blob, *seq.session);
    const double work = steady_now_s() - t0;
    tier_->note_prefetch_miss();
    tier_->add_swap_in_work_s(work);
    tier_->add_swap_in_stall_s(work);
    rec.swap_stall_s += work;
  }
  HACK_CHECK(seq.session->position() == seq.swap_tokens,
             "far-tier blob restored " << seq.session->position()
                                       << " tokens, expected "
                                       << seq.swap_tokens);
  ++rec.rehydrations;
  rec.state = seq.resume_state;
  stats_.swap_events.push_back({SwapEvent::Kind::kResume, stats_.steps,
                                rec.request.id, seq.swap_tokens, hit});
}

void ServingEngine::issue_prefetch(std::size_t run_idx) {
  RunningSeq& seq = *running_[run_idx];
  if (find_staged(seq.record) != nullptr) return;  // already staged
  auto blob = tier_->peek_blob(seq.record);
  if (blob == nullptr) return;
  auto staged = std::make_unique<StagedPrefetch>();
  staged->record = seq.record;
  StagedPrefetch* entry = staged.get();
  // The worker builds a fresh session and deserializes the blob — a serial,
  // pool-free path (kvcache/kv_wire.cpp) — so it never contends with the
  // engine's compute threads. The factory is made here, on the engine
  // thread, exactly like a cold resume would.
  entry->worker = std::thread(
      [entry, weights = weights_, factory = make_backend_factory_(),
       blob = std::move(blob)]() mutable {
        const double t0 = steady_now_s();
        auto session =
            std::make_unique<TinyModelSession>(std::move(weights), factory);
        deserialize_session_kv(*blob, *session);
        entry->session = std::move(session);
        entry->work_s = steady_now_s() - t0;
      });
  stats_.swap_events.push_back({SwapEvent::Kind::kPrefetchIssue, stats_.steps,
                                records_[seq.record].request.id,
                                seq.swap_tokens, false});
  staged_.push_back(std::move(staged));
}

void ServingEngine::predict_and_prefetch(
    const std::vector<Scheduler::TieredSeqView>& views,
    const TieredStepPlan& plan) {
  // Project the views past the step about to execute and re-run the pure
  // planner on the projection: its resume list is the prediction. The only
  // unpredictable outcome is an early eos finish — a deterministic
  // misprediction that wastes one staged deserialize, never correctness.
  std::vector<Scheduler::TieredSeqView> next = views;
  std::vector<char> runs(views.size(), 0);
  std::vector<char> finished(views.size(), 0);
  for (const std::size_t idx : plan.evict) {
    next[idx].resume_state = next[idx].state;
    next[idx].state = RequestState::kSwapped;
  }
  for (const std::size_t idx : plan.resume) {
    next[idx].state = next[idx].resume_state;
  }
  for (const std::size_t idx : plan.step.decode) {
    runs[idx] = 1;
    next[idx].tokens += 1;
    next[idx].generated += 1;
    if (next[idx].generated >= next[idx].max_new) finished[idx] = 1;
  }
  if (plan.step.prefill != kNoSequence) {
    const std::size_t idx = plan.step.prefill;
    runs[idx] = 1;
    next[idx].tokens += plan.step.prefill_end - plan.step.prefill_begin;
    next[idx].prefill_done = plan.step.prefill_end;
    if (next[idx].prefill_done == next[idx].prompt_len) {
      if (next[idx].max_new == 0) {
        finished[idx] = 1;
      } else {
        next[idx].state = RequestState::kDecoding;
        next[idx].generated += 1;  // the completing chunk emits a token
        if (next[idx].generated >= next[idx].max_new) finished[idx] = 1;
      }
    }
  }
  for (std::size_t i = 0; i < next.size(); ++i) {
    next[i].stall_steps = runs[i] ? 0 : next[i].stall_steps + 1;
  }
  std::vector<Scheduler::TieredSeqView> projected;
  std::vector<std::size_t> back;  // projected index -> running_ index
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (finished[i]) continue;
    projected.push_back(next[i]);
    back.push_back(i);
  }
  if (projected.empty()) return;
  const TieredStepPlan next_plan =
      scheduler_.plan_tiered(projected, tier_->pool_blocks());
  for (const std::size_t pidx : next_plan.resume) issue_prefetch(back[pidx]);
}

ServingReport ServingEngine::run() {
  HACK_CHECK(running_.empty(), "run() while an episode is active");
  run_start_s_ = steady_now_s();
  stats_ = {};
  staged_.clear();
  next_ordinal_ = 0;
  if (tier_ != nullptr) tier_->reset_stats();
  total_generated_ = 0;
  decode_time_s_ = 0.0;
  decode_step_tokens_ = 0;
  pure_decode_time_s_ = 0.0;
  pure_decode_tokens_ = 0;
  double last_finish_s = 0.0;

  for (;;) {
    std::vector<std::size_t> queued;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].state == RequestState::kQueued) queued.push_back(i);
    }
    if (queued.empty() && running_.empty()) break;

    const double scan_now = now_s();
    admit_arrivals(queued, scan_now);

    if (running_.empty()) {
      // A ready request that an idle engine cannot admit is a wedge (e.g. an
      // external tenant of a shared allocator holding every block), not a
      // queue: fail loudly instead of spinning. Judged at the admission
      // scan's own timestamp — a request whose arrival lands between two
      // clock reads is a race, not a wedge, and the next scan admits it.
      const double now = scan_now;
      for (const std::size_t idx : queued) {
        const ServingRecord& rec = records_[idx];
        HACK_CHECK(rec.state != RequestState::kQueued ||
                       rec.request.arrival_time_s > now,
                   "admission wedged: request " << rec.request.id
                       << " is due but cannot be admitted into an idle "
                          "engine");
      }
    }

    StepPlan plan;
    if (tier_ != nullptr) {
      // Tiered iteration: plan against the pool budget, execute the tier
      // transitions (evict displaced residents, rehydrate scheduled
      // swap-ins), grow the runners' hot footprints, update the stall
      // counters the priority function ages on, then stage the *next*
      // step's predicted resumes before compute so the deserializes
      // overlap it.
      const std::vector<Scheduler::TieredSeqView> views = tiered_views();
      const TieredStepPlan tiered =
          scheduler_.plan_tiered(views, tier_->pool_blocks());
      for (const std::size_t idx : tiered.evict) evict_sequence(idx);
      for (const std::size_t idx : tiered.resume) resume_sequence(idx);
      std::vector<char> ran(running_.size(), 0);
      const auto grow_runner = [&](std::size_t idx, std::size_t rows) {
        RunningSeq& seq = *running_[idx];
        ServingRecord& rec = records_[seq.record];
        HACK_CHECK(tier_->grow_hot(seq.record,
                                   seq.session->position() + rows),
                   "tiered planner overcommitted the pool for request "
                       << rec.request.id);
        rec.kv_blocks = std::max(rec.kv_blocks,
                                 tier_->blocks_held(seq.record));
        ran[idx] = 1;
      };
      for (const std::size_t idx : tiered.step.decode) grow_runner(idx, 1);
      if (tiered.step.prefill != kNoSequence) {
        grow_runner(tiered.step.prefill,
                    tiered.step.prefill_end - tiered.step.prefill_begin);
      }
      for (std::size_t i = 0; i < running_.size(); ++i) {
        running_[i]->stall_steps = ran[i] ? 0 : running_[i]->stall_steps + 1;
      }
      if (config_.scheduler.prefetch && !tiered.step.empty()) {
        predict_and_prefetch(views, tiered);
      }
      plan = tiered.step;
    } else {
      std::vector<Scheduler::SeqView> views;
      views.reserve(running_.size());
      for (const auto& seq : running_) {
        const ServingRecord& rec = records_[seq->record];
        views.push_back({rec.state, rec.request.prompt.size(),
                         rec.prefill_done});
      }
      plan = scheduler_.plan(views);
    }
    if (plan.empty()) {
      // Nothing runnable: wait for the next arrival (there must be one —
      // otherwise admission is wedged, e.g. an external allocator tenant
      // holding every block).
      double next = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < records_.size(); ++i) {
        if (records_[i].state == RequestState::kQueued) {
          next = std::min(next, records_[i].request.arrival_time_s);
        }
      }
      if (next == std::numeric_limits<double>::infinity()) break;  // all done
      HACK_CHECK(running_.empty(),
                 "empty plan with sequences in the running batch");
      const double wait = next - now_s();
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      continue;  // the arrival is due now; the next scan admits it
    }

    execute_step(plan);
    for (const auto& rec : records_) {
      if (rec.done()) last_finish_s = std::max(last_finish_s,
                                               rec.finish_time_s);
    }
  }

  ServingReport report;
  report.requests = records_;
  report.makespan_s = last_finish_s;
  report.total_generated = total_generated_;
  report.decode_time_s = decode_time_s_;
  if (last_finish_s > 0.0) {
    report.tokens_per_s =
        static_cast<double>(total_generated_) / last_finish_s;
  }
  if (decode_time_s_ > 0.0) {
    report.decode_tokens_per_s =
        static_cast<double>(decode_step_tokens_) / decode_time_s_;
  }
  report.pure_decode_time_s = pure_decode_time_s_;
  if (pure_decode_time_s_ > 0.0) {
    report.pure_decode_tokens_per_s =
        static_cast<double>(pure_decode_tokens_) / pure_decode_time_s_;
  }
  std::vector<double> ttft, jct, tbt;
  std::size_t finished_count = 0;
  for (const ServingRecord& rec : records_) {
    if (rec.state != RequestState::kFinished) continue;
    ++finished_count;
    if (rec.first_token_time_s >= 0.0) ttft.push_back(rec.ttft_s());
    jct.push_back(rec.jct_s());
    const std::vector<double> gaps = rec.tbt_s();
    tbt.insert(tbt.end(), gaps.begin(), gaps.end());
  }
  if (last_finish_s > 0.0) {
    report.goodput_rps =
        static_cast<double>(finished_count) / last_finish_s;
  }
  // Rollups stay default (count 0) over empty sample sets — a run can
  // legitimately finish with no tokens (all rejected, or max_new 0) or no
  // token gaps (single-token outputs).
  if (!ttft.empty()) report.ttft_s = compute_stats(std::move(ttft));
  if (!jct.empty()) report.jct_s = compute_stats(std::move(jct));
  if (!tbt.empty()) report.tbt_s = compute_stats(std::move(tbt));
  // Join any still-running speculative deserializes (mispredictions staged
  // for sequences that finished via eos before resuming) and fold the tier
  // counters in; tiered block traffic is grow/swap-driven, so the engine's
  // byte ledger mirrors the tier manager's.
  staged_.clear();
  if (tier_ != nullptr) {
    stats_.tier = tier_->stats();
    stats_.kv_bytes_admitted = stats_.tier.hot_bytes_admitted;
    stats_.kv_bytes_released = stats_.tier.hot_bytes_released;
  }
  report.engine = stats_;
  return report;
}

}  // namespace hack
