#include "serving/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/check.h"
#include "netsim/transfer.h"

namespace hack {
namespace {

// A contiguous byte span of the blob carried by one transfer chunk —
// retransmissions address these ranges.
struct ChunkRange {
  std::size_t off = 0;
  std::size_t len = 0;
};

std::vector<ChunkRange> chunk_ranges(std::size_t bytes, int chunks) {
  std::vector<ChunkRange> ranges(static_cast<std::size_t>(chunks));
  for (int i = 0; i < chunks; ++i) {
    const std::size_t begin = bytes * static_cast<std::size_t>(i) /
                              static_cast<std::size_t>(chunks);
    const std::size_t end = bytes * (static_cast<std::size_t>(i) + 1) /
                            static_cast<std::size_t>(chunks);
    ranges[static_cast<std::size_t>(i)] = {begin, end - begin};
  }
  return ranges;
}

// Flips one deterministically chosen bit inside the chunk's byte range — the
// transport-level realization of a FaultModel kCorrupted fate.
void corrupt_range(std::vector<std::uint8_t>& wire, const ChunkRange& range,
                   std::uint64_t entropy) {
  if (range.len == 0) return;
  const std::size_t byte =
      range.off + static_cast<std::size_t>(entropy % range.len);
  const unsigned bit = static_cast<unsigned>((entropy >> 32) % 8);
  wire[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

// Lower is better; policies never see kDown workers but rank them anyway so
// a custom policy handed a full snapshot set stays well-defined.
int health_rank(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return 0;
    case WorkerHealth::kRecovering:
      return 1;
    case WorkerHealth::kSuspect:
      return 2;
    case WorkerHealth::kDown:
      return 3;
  }
  return 4;
}

int best_rank(std::span<const WorkerSnapshot> candidates) {
  int best = 4;
  for (const WorkerSnapshot& s : candidates) {
    best = std::min(best, health_rank(s.health));
  }
  return best;
}

}  // namespace

const char* worker_health_name(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return "healthy";
    case WorkerHealth::kSuspect:
      return "suspect";
    case WorkerHealth::kDown:
      return "down";
    case WorkerHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

std::size_t dispatch_round_robin(const DispatchContext& context,
                                 std::span<const WorkerSnapshot> candidates) {
  HACK_CHECK(!candidates.empty(), "dispatch over an empty candidate set");
  const int best = best_rank(candidates);
  const std::size_t n = candidates.size();
  for (std::size_t k = 0; k < n; ++k) {
    const WorkerSnapshot& s =
        candidates[(context.rr_cursor + k) % n];
    if (health_rank(s.health) == best) return s.index;
  }
  return candidates[0].index;  // unreachable: best came from candidates
}

std::size_t dispatch_least_outstanding_bytes(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates) {
  (void)context;
  HACK_CHECK(!candidates.empty(), "dispatch over an empty candidate set");
  const int best = best_rank(candidates);
  const WorkerSnapshot* pick = nullptr;
  for (const WorkerSnapshot& s : candidates) {
    if (health_rank(s.health) != best) continue;
    if (pick == nullptr || s.outstanding_bytes < pick->outstanding_bytes ||
        (s.outstanding_bytes == pick->outstanding_bytes &&
         (s.free_at_s < pick->free_at_s ||
          (s.free_at_s == pick->free_at_s && s.index < pick->index)))) {
      pick = &s;
    }
  }
  return pick->index;
}

std::size_t dispatch_most_free_blocks(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates) {
  (void)context;
  HACK_CHECK(!candidates.empty(), "dispatch over an empty candidate set");
  const int best = best_rank(candidates);
  const WorkerSnapshot* pick = nullptr;
  for (const WorkerSnapshot& s : candidates) {
    if (health_rank(s.health) != best) continue;
    if (pick == nullptr || s.free_kv_blocks > pick->free_kv_blocks ||
        (s.free_kv_blocks == pick->free_kv_blocks &&
         (s.outstanding_bytes < pick->outstanding_bytes ||
          (s.outstanding_bytes == pick->outstanding_bytes &&
           s.index < pick->index)))) {
      pick = &s;
    }
  }
  return pick->index;
}

const char* dispatch_policy_name(DispatchPolicyFn policy) {
  if (policy == &dispatch_round_robin) return "round_robin";
  if (policy == &dispatch_least_outstanding_bytes) {
    return "least_outstanding_bytes";
  }
  if (policy == &dispatch_most_free_blocks) return "most_free_blocks";
  return "custom";
}

void FleetEngine::HealthTracker::transition(WorkerHealth to, double t) {
  if (to == state) return;
  transitions.push_back({t, state, to});
  state = to;
}

void FleetEngine::HealthTracker::recover(double t) {
  transition(WorkerHealth::kRecovering, t);
  probation = 0;
  consecutive_failures = 0;
}

void FleetEngine::HealthTracker::refresh(double t,
                                         const HealthPolicy& policy) {
  if (state == WorkerHealth::kDown &&
      t >= down_since_s + policy.down_cooldown_s) {
    // The transition is stamped when the cooldown elapsed, not when the
    // engine happened to look.
    recover(down_since_s + policy.down_cooldown_s);
  }
}

bool FleetEngine::HealthTracker::dispatchable(double t, bool sole_worker) {
  if (state != WorkerHealth::kDown) return true;
  if (!sole_worker) return false;
  // The pool's only worker has no sibling to take the request, so waiting
  // out the cooldown would only burn a retry round. Restart it on the spot:
  // a crash then costs the retry backoff alone, as on one prefill→decode
  // pair. Stamped no earlier than the fall, since t may be an overlapped
  // instant before it.
  recover(std::max(t, down_since_s));
  return true;
}

void FleetEngine::HealthTracker::on_success(double t,
                                            const HealthPolicy& policy) {
  consecutive_failures = 0;
  if (state == WorkerHealth::kSuspect) {
    transition(WorkerHealth::kHealthy, t);
  } else if (state == WorkerHealth::kRecovering) {
    if (++probation >= policy.probation_successes) {
      transition(WorkerHealth::kHealthy, t);
    }
  }
}

void FleetEngine::HealthTracker::on_failure(double t,
                                            const HealthPolicy& policy,
                                            bool fatal) {
  ++consecutive_failures;
  if (fatal || consecutive_failures >= policy.down_after) {
    transition(WorkerHealth::kDown, t);
    down_since_s = t;
  } else if (state == WorkerHealth::kHealthy &&
             consecutive_failures >= policy.suspect_after) {
    transition(WorkerHealth::kSuspect, t);
  }
}

FleetEngine::FleetEngine(std::shared_ptr<const TinyModelWeights> weights,
                         FleetConfig config)
    : weights_(std::move(weights)), config_(std::move(config)) {
  HACK_CHECK(config_.prefill_workers >= 1,
             "fleet needs at least one prefill worker");
  HACK_CHECK(config_.decode_workers >= 1,
             "fleet needs at least one decode worker");
  HACK_CHECK(config_.decode_pool_blocks.empty() ||
                 config_.decode_pool_blocks.size() == config_.decode_workers,
             "decode_pool_blocks must name every decode worker ("
                 << config_.decode_pool_blocks.size() << " sizes for "
                 << config_.decode_workers << " workers)");
  for (std::size_t i = 0; i < config_.prefill_workers; ++i) {
    prefill_.push_back(std::make_unique<PrefillWorker>(
        weights_, config_.worker, "prefill" + std::to_string(i)));
  }
  for (std::size_t j = 0; j < config_.decode_workers; ++j) {
    DisaggConfig wc = config_.worker;
    if (!config_.decode_pool_blocks.empty()) {
      wc.decode_kv_blocks = config_.decode_pool_blocks[j];
    }
    decode_.push_back(std::make_unique<DecodeWorker>(
        weights_, wc, "decode" + std::to_string(j)));
  }
  // Link (p, d) gets link id p·M + d — link 0 is (prefill0, decode0) and
  // keeps the base seed, so a 1×1 fleet's link draws exactly the configured
  // FaultConfig stream.
  for (std::size_t p = 0; p < config_.prefill_workers; ++p) {
    for (std::size_t d = 0; d < config_.decode_workers; ++d) {
      links_.push_back(std::make_unique<FaultModel>(fault_config_for_link(
          config_.worker.transfer_faults, p * config_.decode_workers + d)));
    }
  }
  prefill_pool_.books.resize(config_.prefill_workers);
  prefill_pool_.policy = config_.prefill_policy;
  decode_pool_.books.resize(config_.decode_workers);
  decode_pool_.policy = config_.decode_policy;
  for (std::size_t j = 0; j < config_.decode_workers; ++j) {
    decode_pool_.books[j].kv_pool = decode_[j]->allocator();
  }
}

FaultModel& FleetEngine::link_faults(std::size_t prefill, std::size_t decode) {
  return *links_.at(prefill * decode_.size() + decode);
}

void FleetEngine::set_link_faults(std::size_t prefill, std::size_t decode,
                                  const FaultConfig& config) {
  links_.at(prefill * decode_.size() + decode) =
      std::make_unique<FaultModel>(config);
}

FaultStats FleetEngine::fault_ledger() const {
  FaultStats total;
  for (const auto& link : links_) {
    const FaultStats& s = link->stats();
    total.chunks_seen += s.chunks_seen;
    total.drops += s.drops;
    total.corruptions += s.corruptions;
    total.latency_spikes += s.latency_spikes;
    total.down_delays += s.down_delays;
  }
  return total;
}

WorkerSnapshot FleetEngine::snapshot(const WorkerBook& book, std::size_t index,
                                     double t) const {
  WorkerSnapshot s;
  s.index = index;
  s.health = book.health.state;
  s.free_at_s = book.free_s;
  for (const Commitment& c : book.commitments) {
    if (c.until_s > t) {
      s.outstanding_bytes += c.bytes;
      ++s.active_requests;
    }
  }
  s.served_requests = book.served;
  s.free_kv_blocks = book.free_kv_blocks();
  return s;
}

std::size_t FleetEngine::dispatch(Pool& pool,
                                  const DispatchContext& context, double t) {
  std::vector<WorkerSnapshot> candidates;
  for (std::size_t i = 0; i < pool.books.size(); ++i) {
    WorkerBook& book = pool.books[i];
    book.health.refresh(t, config_.health);
    // The capacity filter runs first: dispatchable() restarts a sole down
    // worker, which must not happen for a request its pool cannot admit.
    if (context.need_kv_blocks > book.free_kv_blocks()) continue;
    if (!book.health.dispatchable(t, pool.books.size() == 1)) continue;
    candidates.push_back(snapshot(book, i, t));
  }
  if (candidates.empty()) return kNoWorker;
  // Probe-then-readmit: the stock policies all prefer the best health tier,
  // so a recovering worker can never win a dispatch while a healthy sibling
  // exists — it would sit on probation forever. Route this request at the
  // lowest-index recovering candidate as its probe; one success
  // (HealthPolicy::probation_successes) earns healthy back, one failure
  // sends it straight down again.
  for (const WorkerSnapshot& s : candidates) {
    if (s.health == WorkerHealth::kRecovering) return s.index;
  }
  DispatchContext ctx = context;
  ctx.rr_cursor = pool.rr_cursor++;
  const std::size_t pick = pool.policy(ctx, candidates);
  for (const WorkerSnapshot& s : candidates) {
    if (s.index == pick) return pick;
  }
  HACK_CHECK(false, "dispatch policy picked ineligible worker " << pick);
  return kNoWorker;
}

double FleetEngine::earliest_recovery(const Pool& pool,
                                      std::size_t need_kv_blocks) const {
  double best = std::numeric_limits<double>::infinity();
  for (const WorkerBook& b : pool.books) {
    if (b.health.state == WorkerHealth::kDown &&
        need_kv_blocks <= b.kv_capacity()) {
      best = std::min(best,
                      b.health.down_since_s + config_.health.down_cooldown_s);
    }
  }
  return best;
}

FleetReport FleetEngine::run(std::vector<ServingRequest> requests) {
  std::sort(requests.begin(), requests.end(),
            [](const ServingRequest& a, const ServingRequest& b) {
              return a.arrival_time_s < b.arrival_time_s;
            });

  FleetReport report;
  std::vector<double> ttfts, jcts;
  const TinyConfig& c = weights_->config();
  const RetryPolicy& policy = config_.worker.retry;
  const HealthPolicy& hp = config_.health;

  // Sums every per-request counter into the report; called once per request
  // on every exit path.
  const auto rollup = [&](const FleetRecord& rec) {
    report.retries_total += rec.d.retries;
    report.chunks_dropped_total += rec.d.chunks_dropped;
    report.chunks_corrupted_total += rec.d.chunks_corrupted;
    report.crc_failures_total += rec.d.crc_failures;
    report.prefill_crashes_total += rec.d.prefill_crashes;
    report.decode_crashes_total += rec.d.decode_crashes;
    report.retransmitted_bytes_total += rec.d.retransmitted_bytes;
    report.reroutes_total += rec.reroutes;
    report.prefill_failovers_total += rec.prefill_failovers;
    report.re_prefills_total += rec.re_prefills;
    report.checkpoints_total += rec.d.checkpoints;
    report.checkpoint_bytes_total += rec.d.checkpoint_bytes;
    report.checkpoint_failures_total += rec.d.checkpoint_failures;
    report.resumes_total += rec.d.resumes;
    report.tokens_replayed_total += rec.d.tokens_replayed;
    report.tokens_recomputed_total += rec.d.tokens_recomputed;
    report.migrations_total += rec.migrations;
    report.drain_events_total += rec.drains;
    if (rec.shed) ++report.shed_total;
    if (rec.d.deadline_missed) ++report.deadline_misses;
    if (rec.d.rejected) ++report.rejected;
    if (rec.d.fallback_local) ++report.fallbacks;
  };

  for (std::size_t index = 0; index < requests.size(); ++index) {
    const ServingRequest& request = requests[index];
    FleetRecord rec;
    rec.d.request = request;
    std::size_t budget = policy.max_retries;
    Rng jitter = retry_jitter_rng(policy, index);
    // One recovery round: spend a unit of the retry budget and book its
    // jittered backoff, so the next attempt may start at `from` + wait on
    // `clock`. False (nothing booked) once the budget is spent.
    const auto retry_round = [&](double from, double& clock) {
      if (budget == 0) return false;
      --budget;
      const double wait = retry_backoff_s(policy, rec.d.retries, jitter);
      ++rec.d.retries;
      rec.d.backoff_s += wait;
      clock = from + wait;
      return true;
    };

    // Fleet-wide admission preflight: a request whose worst-case block need
    // exceeds every decode pool can never be served disaggregated — shed it
    // now (reject outright, or mark it for the local-decode path) instead of
    // burning transfer retries discovering the same thing.
    const std::size_t need = decode_[0]->blocks_needed(
        request.prompt.size(), request.max_new_tokens);
    bool fits_somewhere = false;
    for (const WorkerBook& book : decode_pool_.books) {
      if (need <= book.kv_capacity()) {
        fits_somewhere = true;
        break;
      }
    }
    if (!fits_somewhere && !policy.fallback_local) {
      rec.shed = true;
      rec.d.rejected = true;
      rollup(rec);
      report.requests.push_back(std::move(rec));
      continue;
    }

    DispatchContext ctx;
    ctx.request_index = index;
    ctx.prompt_tokens = request.prompt.size();
    ctx.need_kv_blocks = need;

    // ---- Prefill: dispatch, re-dispatching to a sibling on a crash. ----
    double prefill_ready = request.arrival_time_s;
    PrefillWorker::Result pre;
    std::size_t pworker = kNoWorker;
    bool prefilled = false;
    bool prefill_exhausted = false;
    while (!prefilled && !prefill_exhausted) {
      const std::size_t pick = dispatch(prefill_pool_, ctx, prefill_ready);
      if (pick == kNoWorker) {
        // Every prefill worker is down. Wait out the earliest cooldown if
        // the budget allows — a retry round, never a deadlock.
        const double recover = earliest_recovery(prefill_pool_, need);
        if (!std::isfinite(recover) ||
            !retry_round(std::max(prefill_ready, recover), prefill_ready)) {
          prefill_exhausted = true;
          break;
        }
        continue;
      }
      rec.prefill_route.push_back(pick);
      if (rec.prefill_route.size() > 1 &&
          pick != rec.prefill_route[rec.prefill_route.size() - 2]) {
        ++rec.prefill_failovers;
      }
      WorkerBook& book = prefill_pool_.books[pick];
      const double start = std::max(prefill_ready, book.free_s);
      try {
        pre = prefill_[pick]->prefill(request, index);
        prefilled = true;
        pworker = pick;
        book.health.on_success(start, hp);
        const double busy = pre.prefill_s + pre.serialize_s;
        book.free_s = start + busy;
        book.busy_s += busy;
        book.commitments.push_back({book.free_s, pre.blob.size()});
        ++book.served;
      } catch (const WorkerCrash&) {
        ++rec.d.prefill_crashes;
        ++book.crashes;
        book.health.on_failure(start, hp, /*fatal=*/true);
        if (!retry_round(start, prefill_ready)) {
          prefill_exhausted = true;
          break;
        }
        // A prefill crash leaves no KV state anywhere — the prompt must run
        // again, on whichever sibling the policy picks next.
        ++rec.re_prefills;
      }
    }
    if (prefill_exhausted) {
      rec.d.rejected = true;  // no KV state exists; nothing to degrade to
      rollup(rec);
      report.requests.push_back(std::move(rec));
      continue;
    }
    rec.prefill_worker = pworker;
    rec.d.prefill_s = pre.prefill_s;
    rec.d.serialize_s = pre.serialize_s;
    rec.d.prefill_chunks = pre.prefill_chunks;
    rec.d.wire_bytes = pre.blob.size();
    rec.d.sections = pre.sections;
    rec.d.fp16_kv_bytes = parse_kv_wire_header(pre.blob).tokens * c.kv_heads *
                          c.d_head * 2 * 2 * c.layers;

    // ---- Transfer + decode: route the blob, re-route on failure. ----
    const double transfer_epoch = prefill_pool_.books[pworker].free_s;
    double ready = transfer_epoch;
    double first_start = -1.0;
    double last_finish = transfer_epoch;
    bool first_transmission = true;

    const auto deadline_passed = [&] {
      return policy.transfer_deadline_s > 0.0 &&
             last_finish - transfer_epoch > policy.transfer_deadline_s;
    };
    // Books one delivery pass of `wire` from src to dst over `fm`,
    // retransmitting dropped chunk ranges until all land or the budget or
    // deadline gives out. Retransmit rounds and waited-out link-down windows
    // are transfer failures against `book`'s health (the decode-side worker
    // of the link, whichever direction the bytes flow). `first` feeds the
    // retransmitted_bytes ledger: request-scoped for the base blob, fresh
    // per checkpoint-delta delivery (a delta's first copy is new bytes).
    const auto deliver_blob = [&](std::vector<std::uint8_t>& wire, Nic& src,
                                  Nic& dst, FaultModel* fm, WorkerBook& book,
                                  bool& first) {
      const int chunks = kv_wire_transfer_chunks(
          wire.size(), config_.worker.transfer_chunk_bytes);
      std::vector<ChunkRange> pending = chunk_ranges(wire.size(), chunks);
      while (true) {
        double bytes = 0.0;
        for (const ChunkRange& r : pending) {
          bytes += static_cast<double>(r.len);
        }
        if (!first) {
          rec.d.retransmitted_bytes += static_cast<std::size_t>(bytes);
        }
        const std::size_t down_before = fm->stats().down_delays;
        const FaultyTransferResult attempt = nccl_transfer_faulty(
            src, dst, ready, bytes, static_cast<int>(pending.size()), fm);
        first = false;
        if (first_start < 0.0) first_start = attempt.result.start;
        last_finish = std::max(last_finish, attempt.result.finish);
        if (fm->stats().down_delays > down_before) {
          ++book.transfer_failures;
          book.health.on_failure(attempt.result.start, hp, /*fatal=*/false);
        }

        std::vector<ChunkRange> still_pending;
        for (std::size_t i = 0; i < pending.size(); ++i) {
          const ChunkEvent& event = attempt.chunks[i];
          if (event.fate == ChunkFate::kDropped) {
            ++rec.d.chunks_dropped;
            still_pending.push_back(pending[i]);
          } else if (event.fate == ChunkFate::kCorrupted) {
            ++rec.d.chunks_corrupted;
            corrupt_range(wire, pending[i], event.corrupt_entropy);
          }
        }
        if (still_pending.empty()) return true;
        ++book.transfer_failures;
        book.health.on_failure(last_finish, hp, /*fatal=*/false);
        if (deadline_passed()) {
          rec.d.deadline_missed = true;
          return false;
        }
        if (!retry_round(last_finish, ready)) return false;
        pending = std::move(still_pending);
      }
    };
    // The prefill→decode handoff to worker j over link (pworker, j).
    const auto deliver = [&](std::vector<std::uint8_t>& wire, std::size_t j) {
      return deliver_blob(wire, prefill_[pworker]->nic(), decode_[j]->nic(),
                          link(pworker, j), decode_pool_.books[j],
                          first_transmission);
    };

    // Checkpoint store: the request's prefill worker doubles as the standby
    // — it already holds the pristine base blob, so base + latest verified
    // delta is everything a resuming replica needs. The sink buffers cuts
    // during the worker call (returning false at a cut is the drain stop
    // signal); book_checkpoints ships them decode→prefill over
    // the same faulty link afterwards, in cut order — checkpoints that left
    // a crashing worker before it died still reach the store.
    std::vector<std::uint8_t> stored_delta;
    std::size_t stored_tokens = 0;
    std::vector<DecodeCheckpoint> cut;
    bool drain_now = false;
    CheckpointSink sink;
    if (config_.worker.checkpoint_every_tokens > 0) {
      sink = [&cut, &drain_now](DecodeCheckpoint c) {
        cut.push_back(std::move(c));
        return !drain_now;
      };
    }
    const auto book_checkpoints = [&](std::size_t j) {
      for (DecodeCheckpoint& c : cut) {
        ++rec.d.checkpoints;
        rec.d.checkpoint_bytes += c.delta.size();
        WorkerBook& book = decode_pool_.books[j];
        bool stored = false;
        while (!stored) {
          std::vector<std::uint8_t> dwire = c.delta;
          bool first = true;
          if (!deliver_blob(dwire, decode_[j]->nic(), prefill_[pworker]->nic(),
                            link(pworker, j), book, first)) {
            break;
          }
          try {
            // Admission gate: a delta lands in the store only after its CRC
            // frames verify on the delivered bytes — a corrupted delivery
            // costs a redelivery round, never a poisoned store.
            verify_kv_wire(dwire);
          } catch (const KvWireError&) {
            ++rec.d.crc_failures;
            ++book.transfer_failures;
            book.health.on_failure(last_finish, hp, /*fatal=*/false);
            if (!retry_round(last_finish, ready)) break;
            continue;
          }
          stored_delta = std::move(dwire);
          stored_tokens = c.tokens_decoded;
          stored = true;
        }
        // Budget exhausted before the delta landed: the store keeps the
        // previous checkpoint; a resume just replays a longer window.
        if (!stored) ++rec.d.checkpoint_failures;
      }
      cut.clear();
    };

    DecodeWorker::Result dec;
    std::size_t dworker = kNoWorker;
    bool delivered = false;
    bool failed = false;
    while (!delivered && !failed) {
      const std::size_t pick = dispatch(decode_pool_, ctx, ready);
      if (pick == kNoWorker) {
        // No decode worker can admit the blob right now. If a down worker
        // whose pool could hold it will recover, waiting is a retry round;
        // otherwise the fleet sheds the request.
        const double recover = earliest_recovery(decode_pool_, need);
        if (!std::isfinite(recover) ||
            !retry_round(std::max(ready, recover), ready)) {
          rec.shed = true;
          failed = true;
          break;
        }
        continue;
      }
      rec.decode_route.push_back(pick);
      if (rec.decode_route.size() > 1 &&
          pick != rec.decode_route[rec.decode_route.size() - 2]) {
        // The serialized blob changes destination: a reroute, not a
        // re-prefill — the prompt never runs again for a decode failure.
        ++rec.reroutes;
      }
      std::vector<std::uint8_t> wire = pre.blob;
      if (!deliver(wire, pick)) {
        failed = true;
        break;
      }
      if (deadline_passed()) {
        rec.d.deadline_missed = true;
        failed = true;
        break;
      }
      WorkerBook& book = decode_pool_.books[pick];
      // Drain decision: the handoff's link faults may have marked this
      // worker suspect *after* dispatch picked it healthy. If a healthy
      // replica with pool headroom exists, let the worker decode only to its
      // first checkpoint cut, then migrate the request there. Bounded: each
      // drain needs a distinct healthy target, and workers only degrade
      // within one request's routing loop.
      drain_now = false;
      if (sink && book.health.state == WorkerHealth::kSuspect) {
        for (std::size_t j = 0; j < decode_.size(); ++j) {
          const WorkerBook& other = decode_pool_.books[j];
          if (j != pick && other.health.state == WorkerHealth::kHealthy &&
              need <= other.free_kv_blocks()) {
            drain_now = true;
            break;
          }
        }
      }
      // A replica resumes from base + stored delta when the store has one
      // (only ever true after a crash or drain); the delta ships back over
      // this worker's own link first. If its delivery exhausts the budget,
      // fall back to a full recompute from the base blob — the previously
      // salvaged tokens are recomputed after all. An empty delta_wire is a
      // fresh decode.
      std::vector<std::uint8_t> delta_wire;
      if (stored_tokens > 0) {
        delta_wire = stored_delta;
        bool first = true;
        if (!deliver_blob(delta_wire, prefill_[pworker]->nic(),
                          decode_[pick]->nic(), link(pworker, pick), book,
                          first)) {
          delta_wire.clear();
          rec.d.tokens_recomputed += stored_tokens;
        }
      }
      const bool resume_now = !delta_wire.empty();
      bool retransmit = false;
      try {
        dec = decode_[pick]->decode(wire, pre.first_token, request, index,
                                    sink, delta_wire);
        book_checkpoints(pick);
        if (!dec.admitted) {
          // The reservation lost to the preflight — pool pressure; shed.
          rec.shed = true;
          failed = true;
          break;
        }
        if (resume_now) {
          ++rec.d.resumes;
          rec.d.tokens_replayed += dec.replayed_tokens;
          if (rec.decode_route.size() > 1 &&
              pick != rec.decode_route[rec.decode_route.size() - 2]) {
            ++rec.migrations;  // resumed on a different replica: live move
          }
        }
        if (dec.drained) {
          // The suspect worker stopped at a consistent cut (now booked into
          // the store). Its partial service occupies it on the timeline, but
          // it did not complete the request — no served count, no health
          // verdict either way — and the next round resumes elsewhere.
          ++rec.drains;
          ++book.drains;
          const double start = std::max(last_finish, book.free_s);
          const double partial_end = start + dec.deserialize_s + dec.decode_s;
          book.free_s = partial_end;
          book.busy_s += dec.deserialize_s + dec.decode_s;
          rec.d.tokens_recomputed +=
              dec.generated.size() -
              std::min(stored_tokens, dec.generated.size());
          ready = std::max(partial_end, last_finish);
          continue;
        }
        delivered = true;
        dworker = pick;
        book.health.on_success(last_finish, hp);
      } catch (const MidDecodeCrash& crash) {
        // Mid-generation death. Checkpoints cut before the crash had already
        // left the worker — book them into the store now; the lost window
        // past the last stored cut is recomputed on whichever replica the
        // next round picks. The blob never goes back through prefill.
        ++rec.d.decode_crashes;
        ++book.crashes;
        book.health.on_failure(last_finish, hp, /*fatal=*/true);
        book_checkpoints(pick);
        rec.d.tokens_recomputed +=
            crash.tokens_decoded -
            std::min(stored_tokens, crash.tokens_decoded);
        retransmit = true;
      } catch (const WorkerCrash&) {
        // The worker lost its receive buffer with the crash; the pristine
        // blob still sits on the prefill worker, so the next round routes
        // it to whichever replica the policy picks — rehydrate elsewhere.
        ++rec.d.decode_crashes;
        ++book.crashes;
        book.health.on_failure(last_finish, hp, /*fatal=*/true);
        cut.clear();
        retransmit = true;
      } catch (const KvWireError&) {
        ++rec.d.crc_failures;
        ++book.transfer_failures;
        book.health.on_failure(last_finish, hp, /*fatal=*/false);
        cut.clear();
        retransmit = true;
      }
      if (retransmit && !retry_round(last_finish, ready)) {
        failed = true;
        break;
      }
    }
    rec.d.transfer_s = first_start < 0.0 ? 0.0 : last_finish - first_start;

    // The worker whose decode completes the request: its decode worker, or
    // — shed-to-local / exhausted-budget degradation — the prefill worker
    // that made the blob, decoding it through the same body, still
    // bit-identical.
    WorkerBook* finisher = nullptr;
    if (delivered) {
      rec.decode_worker = dworker;
      rec.d.decode_kv_blocks = dec.kv_blocks;
      finisher = &decode_pool_.books[dworker];
    } else if (policy.fallback_local) {
      rec.d.fallback_local = true;
      dec = prefill_[pworker]->local_decode(pre.blob, pre.first_token, request);
      finisher = &prefill_pool_.books[pworker];
    } else {
      rec.d.rejected = true;
    }

    rollup(rec);
    if (rec.d.rejected) {
      report.requests.push_back(std::move(rec));
      continue;
    }

    rec.d.deserialize_s = dec.deserialize_s;
    rec.d.decode_s = dec.decode_s;
    rec.d.generated = std::move(dec.generated);
    const double first_token_at =
        std::max(last_finish, finisher->free_s) + dec.deserialize_s;
    const double finish_at = first_token_at + dec.decode_s;
    finisher->free_s = finish_at;
    finisher->busy_s += dec.deserialize_s + dec.decode_s;
    if (delivered) {
      // A local fallback was already counted served at prefill time.
      finisher->commitments.push_back({finish_at, rec.d.wire_bytes});
      ++finisher->served;
    }

    rec.d.ttft_s = first_token_at - request.arrival_time_s;
    rec.d.jct_s = finish_at - request.arrival_time_s;
    ttfts.push_back(rec.d.ttft_s);
    jcts.push_back(rec.d.jct_s);

    report.total_generated += rec.d.generated.size();
    report.wire_bytes_total += rec.d.wire_bytes;
    report.fp16_kv_bytes_total += rec.d.fp16_kv_bytes;
    report.makespan_s = std::max(report.makespan_s, finish_at);
    report.requests.push_back(std::move(rec));
  }

  if (!ttfts.empty()) report.ttft_s = compute_stats(std::move(ttfts));
  if (!jcts.empty()) report.jct_s = compute_stats(std::move(jcts));

  const auto worker_stats = [&](const WorkerBook& book,
                                const std::string& name) {
    FleetWorkerStats s;
    s.name = name;
    s.served = book.served;
    s.crashes = book.crashes;
    s.transfer_failures = book.transfer_failures;
    s.drains = book.drains;
    s.busy_s = book.busy_s;
    s.utilization =
        report.makespan_s > 0.0 ? book.busy_s / report.makespan_s : 0.0;
    s.final_health = book.health.state;
    s.transitions = book.health.transitions;
    report.health_transitions_total += s.transitions.size();
    return s;
  };
  for (std::size_t i = 0; i < prefill_.size(); ++i) {
    report.prefill_workers.push_back(
        worker_stats(prefill_pool_.books[i], prefill_[i]->name()));
  }
  for (std::size_t j = 0; j < decode_.size(); ++j) {
    FleetWorkerStats s =
        worker_stats(decode_pool_.books[j], decode_[j]->name());
    if (const BlockAllocator* pool = decode_pool_.books[j].kv_pool) {
      s.failed_allocations = pool->failed_allocations();
      s.min_free_watermark = pool->min_free_watermark();
    }
    report.decode_workers.push_back(std::move(s));
  }
  return report;
}

}  // namespace hack
