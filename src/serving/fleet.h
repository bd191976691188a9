// Disaggregated serving engine: N prefill workers × M decode workers
// (default 1×1).
//
// This is the one disaggregated engine; its default 1×1 shape is the single
// prefill→decode pair, where a worker crash means retrying the same worker
// or degrading to a local decode. With replicas the right answer is
// *routing*: a dead decode worker is a reason to send the already-serialized
// KV blob to a replica (rehydrate-elsewhere, never re-prefill), a dead
// prefill worker a reason to re-dispatch the prompt to a sibling, and a full
// decode pool a reason to shed load — FlowKV (PAPERS.md) makes the case for
// treating KV-transfer health as a first-class scheduling input:
//
//   Health      every worker carries a state machine
//                 healthy → suspect → down → recovering → healthy
//               driven by crash injection (fatal: straight to down),
//               consecutive transfer failures on its links (drop-retransmit
//               rounds, CRC failures — suspect, then down), and FaultModel
//               link-down windows (a waited-out window marks the link's
//               worker suspect). Down workers leave the candidate set until
//               a cooldown elapses; recovering workers rejoin and earn
//               healthy back with successes. A pool's *only* worker never
//               leaves: with no sibling to take the request it restarts
//               (down → recovering) the moment it is re-dispatched, so a
//               crash costs just the retry backoff. Every transition is
//               stamped with the engine-timeline instant for the report.
//   Dispatch    a pluggable function-pointer policy (the Archfx SchedulerFn
//               shape, running on real kv_wire blob sizes instead of the
//               cluster simulator's modeled costs) picks a worker from the
//               eligible snapshots — round-robin, least-outstanding-bytes,
//               or free-KV-blocks-aware — and is consulted *again* on every
//               failure, so failover is just dispatch with fresher health.
//   Failover    a decode crash mid-handoff re-routes the serialized blob to
//               a replica over that replica's own link (a reroute, counted;
//               the prompt is never recomputed — re_prefills_from_decode
//               stays zero by construction). A prefill crash re-dispatches
//               the prompt to a sibling prefill worker. Both burn one
//               bounded per-request retry budget (RetryPolicy).
//   Resume      with a checkpoint cadence on (DisaggConfig::
//               checkpoint_every_tokens), a decode worker dying *mid-
//               generation* costs at most one checkpoint window: the
//               request's prefill worker doubles as the standby store
//               (base blob + latest CRC-verified wire v3 delta), and the
//               replica the next dispatch round picks resumes from base +
//               delta + replayed suffix instead of recomputing from the
//               blob — re_prefills_from_decode stays zero even for
//               mid-decode crashes.
//   Drain       link faults during the handoff can mark a worker suspect
//               after dispatch picked it healthy. With checkpointing on,
//               such a worker decodes only to its first checkpoint cut;
//               the request then migrates live (resume from that cut) to a
//               healthy replica with pool headroom rather than gambling the
//               whole decode on failing hardware.
//   Shedding    fleet-wide admission control: a request no decode pool can
//               ever hold (or that exhausts its budget with every decode
//               worker down) is shed — decoded locally on its prefill
//               worker when RetryPolicy::fallback_local is on, rejected
//               otherwise — never deadlocked on a full fleet.
//
// Every prefill worker owns a NIC, every decode worker owns a NIC, and every
// (prefill, decode) link owns an independent seeded FaultModel
// (fault_config_for_link), so chaos on one link never shifts the fate stream
// of another and concurrent blobs contend on the shared NICs realistically.
//
// The bit-identity contract extends fleet-wide (docs/robustness.md): any
// schedule of crashes, link-down windows, drops, and corruptions that does
// not exhaust a request's budget yields token streams identical to the
// fault-free single-pair run — workers are replicas of one model + backend
// seed, and the blob rehydrates the same bytes wherever it lands.
// tests/test_fleet.cpp pins the contract and tests/test_disagg_faults.cpp
// the 1×1 recovery ledger; bench_serving_throughput --disagg (1×1) and
// --fleet=NxM (with --kill=worker:request schedules) measure it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "metrics/stats.h"
#include "serving/disagg.h"

namespace hack {

// "No worker" sentinel for routing fields (e.g. a shed request's decode
// worker) and policy results on an empty candidate set.
inline constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

enum class WorkerHealth {
  kHealthy,     // full candidate
  kSuspect,     // recent transfer trouble; deprioritized by the policies
  kDown,        // crashed or failed past threshold; not a candidate
  kRecovering,  // cooldown served; candidate again, on probation
};

const char* worker_health_name(WorkerHealth health);

// When failures move a worker along the state machine. Crashes are fatal
// (straight to down); transfer failures (a retransmit round on the worker's
// link, a receiver CRC rejection, a waited-out link-down window) accumulate.
struct HealthPolicy {
  std::size_t suspect_after = 1;  // consecutive non-fatal failures → suspect
  std::size_t down_after = 3;     // consecutive non-fatal failures → down
  double down_cooldown_s = 0.05;  // time spent down before recovering
  std::size_t probation_successes = 1;  // successes to earn healthy back
};

// One edge of a worker's health trajectory, stamped with the engine-timeline
// instant it happened.
struct HealthTransition {
  double time_s = 0.0;
  WorkerHealth from = WorkerHealth::kHealthy;
  WorkerHealth to = WorkerHealth::kHealthy;
};

// What a dispatch policy sees about one eligible worker at decision time.
struct WorkerSnapshot {
  std::size_t index = 0;  // worker index within its pool
  WorkerHealth health = WorkerHealth::kHealthy;
  double free_at_s = 0.0;            // compute busy horizon
  std::size_t outstanding_bytes = 0; // wire bytes routed here, still in service
  std::size_t active_requests = 0;   // requests in flight on this worker
  std::size_t served_requests = 0;
  std::size_t free_kv_blocks = SIZE_MAX;  // decode pool headroom (SIZE_MAX:
                                          // no admission control)
};

struct DispatchContext {
  std::size_t request_index = 0;  // arrival-order index
  std::size_t need_kv_blocks = 0;  // worst-case decode-pool need
  std::uint64_t rr_cursor = 0;     // engine-advanced per-pool rotation state
};

// Picks one of `candidates` (non-empty; down workers and pools that cannot
// admit the request are already filtered out) and returns its .index. The
// provided policies prefer the best available health tier (healthy, then
// recovering, then suspect) and break ties deterministically, so a routing
// decision is a pure function of (context, snapshots) — same seed + same
// kill schedule ⇒ same routes, pinned in tests/test_fleet.cpp.
using DispatchPolicyFn =
    std::size_t (*)(const DispatchContext& context,
                    std::span<const WorkerSnapshot> candidates);

// Rotates over the eligible list: cursor picks the starting position, the
// first best-tier worker from there wins.
std::size_t dispatch_round_robin(const DispatchContext& context,
                                 std::span<const WorkerSnapshot> candidates);
// Fewest outstanding wire bytes; ties → earlier free_at_s → lower index.
std::size_t dispatch_least_outstanding_bytes(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates);
// Most free KV blocks; ties → fewer outstanding bytes → lower index.
std::size_t dispatch_most_free_blocks(
    const DispatchContext& context,
    std::span<const WorkerSnapshot> candidates);

const char* dispatch_policy_name(DispatchPolicyFn policy);

struct FleetConfig {
  // Per-worker knobs: attention config, backend seed, NIC rates, transfer
  // chunking, retry policy, and the base fault config every link's model is
  // derived from (fault_config_for_link).
  DisaggConfig worker;
  std::size_t prefill_workers = 1;
  std::size_t decode_workers = 1;
  DispatchPolicyFn prefill_policy = &dispatch_round_robin;
  DispatchPolicyFn decode_policy = &dispatch_least_outstanding_bytes;
  HealthPolicy health;
  // Per-decode-worker pool sizes (blocks). Empty: every worker gets
  // worker.decode_kv_blocks. A heterogeneous fleet makes the
  // free-KV-blocks-aware policy meaningful.
  std::vector<std::size_t> decode_pool_blocks;
};

// Per-worker rollup for the report.
struct FleetWorkerStats {
  std::string name;  // "prefill0", "decode1", ...
  std::size_t served = 0;             // requests this worker completed
  std::size_t crashes = 0;
  std::size_t transfer_failures = 0;  // non-fatal health inputs
  double busy_s = 0.0;
  double utilization = 0.0;           // busy_s / fleet makespan
  WorkerHealth final_health = WorkerHealth::kHealthy;
  std::vector<HealthTransition> transitions;
  // Decode pools only (0 when admission control is off).
  std::size_t failed_allocations = 0;
  std::size_t min_free_watermark = 0;
  // Decode only: requests this worker gave up at a checkpoint cut because
  // the engine drained it while suspect.
  std::size_t drains = 0;
};

// One request's route through the fleet, on top of the single-pair record
// (timings, tokens, and fault counters live in `d`).
struct FleetRecord {
  DisaggRecord d;
  std::size_t prefill_worker = kNoWorker;  // worker that produced the blob
  std::size_t decode_worker = kNoWorker;   // worker that decoded (kNoWorker:
                                           // shed/rejected)
  std::vector<std::size_t> prefill_route;  // every prefill worker tried
  std::vector<std::size_t> decode_route;   // every decode worker targeted
  std::size_t reroutes = 0;           // blob re-routed to a different replica
  std::size_t prefill_failovers = 0;  // prompt re-dispatched to a sibling
  std::size_t re_prefills = 0;        // prefill executions past the first
  std::size_t migrations = 0;  // resumes (base + delta) on a different
                               // replica than the one that checkpointed
  std::size_t drains = 0;      // drain stops at a checkpoint cut
  bool shed = false;  // admission control shed it (local decode or reject)
};

struct FleetReport {
  std::vector<FleetRecord> requests;  // arrival order
  std::vector<FleetWorkerStats> prefill_workers;
  std::vector<FleetWorkerStats> decode_workers;

  std::size_t total_generated = 0;
  std::size_t wire_bytes_total = 0;
  std::size_t fp16_kv_bytes_total = 0;
  double makespan_s = 0.0;
  SampleStats ttft_s;
  SampleStats jct_s;

  // Fleet-level rollups.
  std::size_t reroutes_total = 0;
  std::size_t prefill_failovers_total = 0;
  std::size_t shed_total = 0;
  std::size_t re_prefills_total = 0;
  // The headline contract: decode-worker failures re-route the serialized
  // blob, they never send the prompt back through prefill. Zero by
  // construction; kept as a counter so tests and the CI chaos leg assert it
  // non-vacuously.
  std::size_t re_prefills_from_decode_crashes = 0;
  std::size_t health_transitions_total = 0;

  // Checkpoint / live-migration rollups (all zero unless the worker config's
  // checkpoint_every_tokens is on).
  std::size_t checkpoints_total = 0;
  std::size_t checkpoint_bytes_total = 0;
  std::size_t checkpoint_failures_total = 0;
  std::size_t resumes_total = 0;
  std::size_t tokens_replayed_total = 0;
  std::size_t tokens_recomputed_total = 0;
  std::size_t migrations_total = 0;
  std::size_t drain_events_total = 0;

  // Fault/recovery rollups (sums of the per-request counters).
  std::size_t retries_total = 0;
  std::size_t chunks_dropped_total = 0;
  std::size_t chunks_corrupted_total = 0;
  std::size_t crc_failures_total = 0;
  std::size_t prefill_crashes_total = 0;
  std::size_t decode_crashes_total = 0;
  std::size_t retransmitted_bytes_total = 0;
  std::size_t fallbacks = 0;        // shed requests decoded locally
  std::size_t deadline_misses = 0;
  std::size_t rejected = 0;         // shed/failed requests dropped outright
};

// Orchestrates the fleet over one FCFS arrival timeline: measured compute,
// netsim-modeled per-link transfers, health-gated policy dispatch, and a
// bounded retry budget per request. Worker busy horizons and health persist
// across run() calls, so back-to-back runs share one timeline.
class FleetEngine {
 public:
  FleetEngine(std::shared_ptr<const TinyModelWeights> weights,
              FleetConfig config = {});

  std::size_t prefill_count() const { return prefill_.size(); }
  std::size_t decode_count() const { return decode_.size(); }
  PrefillWorker& prefill_worker(std::size_t i) { return *prefill_.at(i); }
  DecodeWorker& decode_worker(std::size_t j) { return *decode_.at(j); }

  // The (prefill × decode) link's fault injector. Each link's model is
  // seeded independently from config.worker.transfer_faults via
  // fault_config_for_link; set_link_faults replaces one link's config (e.g.
  // to schedule a down window on exactly one path).
  FaultModel& link_faults(std::size_t prefill, std::size_t decode);
  void set_link_faults(std::size_t prefill, std::size_t decode,
                       const FaultConfig& config);

  // Sum of every link's injection ledger — the ground truth the report's
  // fault counters are asserted against.
  FaultStats fault_ledger() const;

  FleetReport run(std::vector<ServingRequest> requests);

 private:
  struct HealthTracker {
    WorkerHealth state = WorkerHealth::kHealthy;
    std::size_t consecutive_failures = 0;
    std::size_t probation = 0;
    double down_since_s = 0.0;
    std::vector<HealthTransition> transitions;

    void transition(WorkerHealth to, double t);
    void recover(double t);  // down → recovering at t
    void refresh(double t, const HealthPolicy& policy);
    // Whether the worker is a dispatch candidate at t. A down worker is not,
    // unless it is its pool's sole worker — then it recovers at t.
    bool dispatchable(double t, bool sole_worker);
    void on_success(double t, const HealthPolicy& policy);
    void on_failure(double t, const HealthPolicy& policy, bool fatal);
  };

  // Bytes committed to a worker until their service completes on the
  // timeline — what outstanding_bytes/active_requests snapshots count.
  struct Commitment {
    double until_s = 0.0;
    std::size_t bytes = 0;
  };

  struct WorkerBook {
    HealthTracker health;
    double free_s = 0.0;
    double busy_s = 0.0;
    std::vector<Commitment> commitments;
    std::size_t served = 0;
    std::size_t crashes = 0;
    std::size_t transfer_failures = 0;
    std::size_t drains = 0;  // decode books only
    // The worker's KV block pool; null for prefill workers and for decode
    // workers without admission control.
    const BlockAllocator* kv_pool = nullptr;

    std::size_t free_kv_blocks() const {
      return kv_pool == nullptr ? SIZE_MAX : kv_pool->blocks_free();
    }
    std::size_t kv_capacity() const {
      return kv_pool == nullptr ? SIZE_MAX : kv_pool->num_blocks();
    }
  };

  // One worker pool: its books, its dispatch policy and that policy's
  // round-robin cursor.
  struct Pool {
    std::vector<WorkerBook> books;
    DispatchPolicyFn policy = nullptr;
    std::uint64_t rr_cursor = 0;
  };

  FaultModel* link(std::size_t prefill, std::size_t decode) {
    return links_.at(prefill * decode_.size() + decode).get();
  }

  WorkerSnapshot snapshot(const WorkerBook& book, std::size_t index,
                          double t) const;
  // Builds the pool's eligible candidate set at time t (workers whose KV
  // pool can admit context.need_kv_blocks and that are dispatchable) and
  // consults its policy. Returns kNoWorker when no worker is eligible.
  std::size_t dispatch(Pool& pool, const DispatchContext& context, double t);
  // Earliest instant a down worker in `pool` whose KV pool could hold
  // `need_kv_blocks` becomes recovering (infinity when there is none).
  double earliest_recovery(const Pool& pool, std::size_t need_kv_blocks) const;

  std::shared_ptr<const TinyModelWeights> weights_;
  FleetConfig config_;
  std::vector<std::unique_ptr<PrefillWorker>> prefill_;
  std::vector<std::unique_ptr<DecodeWorker>> decode_;
  std::vector<std::unique_ptr<FaultModel>> links_;  // row-major [p][d]
  Pool prefill_pool_;
  Pool decode_pool_;
};

}  // namespace hack
