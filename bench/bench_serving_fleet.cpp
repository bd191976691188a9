// The disaggregated serving bench: N prefill × M decode workers of one
// FleetEngine (serving/fleet.h). Every request prefills on one worker, ships
// its KV wire blob (kvcache/kv_wire.h) over a netsim link and decodes on
// another, and its tokens must equal a solo generate() of it: the binary
// exits 1 if any request's do not. `--fleet=1x1` is the single
// prefill→decode pair; `--kv-bits=2,4,8` runs the leg once per KV bit width.
//
// Chaos knobs: `--drop=`/`--corrupt=` inject chunk loss/corruption on every
// link, seeded by `--fault-seed=`; `--kill=worker:request[@token],...`
// schedules crashes (prefill0:1 crashes prefill0 when request 1 reaches it,
// decode1:2@6 crashes decode1 after request 2's sixth generated token);
// `--checkpoint-every=K` cuts a compressed-KV delta every K decoded tokens
// and ships it back to the request's prefill worker, so a mid-decode crash
// resumes on a replica from base + delta instead of re-prefilling.
//
// Per bit width it prints one "serving_fleet" line — throughput, latency,
// the wire bytes by section against FP16, the handoff timing means, the
// fault ledger, the decode pools' pressure, the failover and checkpoint
// counters — and one "serving_fleet_worker" line per worker
// (docs/disaggregation.md).
//
// Usage: bench_serving_fleet [--fleet=1x1] [--kv-bits=4] [--quick] ...; an
// unknown flag prints them all. --quick sets input 48 / output 12.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.h"
#include "serving/fleet.h"
#include "serving_bench.h"

namespace {

using namespace hack;
using namespace hack::bench;

// One --kill entry: crash the worker when `request` reaches it or, with a
// token (decode workers only, ≥ 1), after the request's token'th token.
struct Kill {
  bool prefill = false;
  std::size_t worker = 0;
  std::size_t request = 0;
  std::size_t token = 0;
};

bool parse_kill(std::string_view spec, Kill* kill) {
  const std::size_t colon = spec.find(':');
  const std::size_t at = spec.find('@');
  kill->prefill = spec.rfind("prefill", 0) == 0;
  if (colon == std::string_view::npos ||
      (!kill->prefill && spec.rfind("decode", 0) != 0) ||
      (at != std::string_view::npos &&
       (kill->prefill || !parse_size(spec.substr(at + 1), &kill->token) ||
        kill->token == 0))) {
    return false;
  }
  const std::size_t name_end = kill->prefill ? 7 : 6;
  return parse_size(spec.substr(name_end, colon - name_end), &kill->worker) &&
         parse_size(spec.substr(colon + 1, at - colon - 1), &kill->request);
}

struct FleetOptions {
  std::size_t prefill_workers = 1;
  std::size_t decode_workers = 1;
  std::vector<std::size_t> kv_bits = {4};
  DispatchPolicyFn policy = &dispatch_round_robin;  // decode dispatch
  std::string kill_spec;
  std::vector<Kill> kills;
  std::size_t checkpoint_every = 0;
  std::size_t kv_blocks = 0;  // decode pool size; 0: no admission control
  std::size_t chunk_bytes = 1 << 20;  // transfer chunk (fault granularity)
  double drop = 0.0;
  double corrupt = 0.0;
  std::size_t fault_seed = 0x5EED;
};

// Runs the fleet at one KV bit width and prints its lines; returns whether
// every served request matched its solo run.
bool run_fleet_leg(const Shape& shape, const Workload& w, const FleetOptions& o,
                   const std::shared_ptr<const TinyModelWeights>& weights,
                   const std::vector<ServingRequest>& requests, int kv_bits) {
  FleetConfig fc;
  fc.worker.attn.pi = shape.pi;
  fc.worker.attn.kv_bits = kv_bits;
  fc.worker.decode_kv_blocks = o.kv_blocks;
  fc.worker.transfer_chunk_bytes = o.chunk_bytes;
  fc.worker.transfer_faults.chunk_drop_prob = o.drop;
  fc.worker.transfer_faults.chunk_corrupt_prob = o.corrupt;
  fc.worker.transfer_faults.seed = o.fault_seed;
  fc.worker.checkpoint_every_tokens = o.checkpoint_every;
  // Every scheduled crash burns a retry: give a kill schedule budget to
  // route around. Link noise alone keeps the default budget.
  if (!o.kills.empty()) fc.worker.retry.max_retries = 16;
  fc.prefill_workers = o.prefill_workers;
  fc.decode_workers = o.decode_workers;
  // Prefill dispatch stays round-robin so a --kill schedule addressed by
  // worker name is reproducible.
  fc.prefill_policy = &dispatch_round_robin;
  fc.decode_policy = o.policy;
  FleetEngine engine(weights, fc);
  for (const Kill& k : o.kills) {
    if (k.prefill) {
      engine.prefill_worker(k.worker).inject_crash(k.request);
    } else if (k.token > 0) {
      engine.decode_worker(k.worker).inject_crash_at_token(k.request, k.token);
    } else {
      engine.decode_worker(k.worker).inject_crash(k.request);
    }
  }
  const FleetReport report = engine.run(requests);

  // Every request not rejected — rerouted, failed over, resumed or decoded
  // locally — must match its solo run. Rejections are a capacity event, not
  // a correctness one, and stay out of the byte and time means.
  bool bit_identical = true;
  std::vector<const DisaggRecord*> served;
  double resume_s = 0.0;  // rehydration of requests that ended in a resume
  std::size_t resumed = 0;
  for (const FleetRecord& route : report.requests) {
    const DisaggRecord& rec = route.d;
    if (rec.rejected) continue;
    served.push_back(&rec);
    bit_identical &= matches_solo(weights, fc.worker.attn,
                                  fc.worker.backend_seed, rec.request,
                                  rec.generated);
    if (rec.resumes > 0 && !rec.fallback_local) {
      resume_s += rec.deserialize_s;
      ++resumed;
    }
  }
  const auto mean = [&served](double DisaggRecord::*field) {
    double sum = 0.0;
    for (const DisaggRecord* rec : served) sum += rec->*field;
    return sum / std::max<double>(1.0, static_cast<double>(served.size()));
  };
  const auto section = [&served](std::size_t KvWireSections::*field) {
    std::size_t sum = 0;
    for (const DisaggRecord* rec : served) sum += rec->sections.*field;
    return sum;
  };
  // The decode pools' pressure: failed allocations summed, the lowest
  // free-block watermark any pool reached.
  std::size_t failed_allocations = 0;
  std::size_t min_free_watermark = SIZE_MAX;
  for (const FleetWorkerStats& s : report.decode_workers) {
    failed_allocations += s.failed_allocations;
    min_free_watermark = std::min(min_free_watermark, s.min_free_watermark);
  }

  std::printf(
      "{\"bench\":\"serving_fleet\",\"prefill_workers\":%zu,"
      "\"decode_workers\":%zu,\"policy\":\"%s\",\"kills\":\"%s\","
      "\"kv_bits\":%d,\"requests\":%zu,\"heads\":%zu,\"kv_heads\":%zu,"
      "\"d_head\":%zu,\"pi\":%zu,\"layers\":%zu,\"input_mean\":%zu,"
      "\"output_mean\":%zu,\"lanes\":%zu,\"drop_prob\":%.3f,"
      "\"corrupt_prob\":%.3f,\"fault_seed\":%zu,\"tokens_per_s\":%.1f,"
      "\"total_tokens\":%zu,\"makespan_s\":%.3f,\"ttft_p50_s\":%.4f,"
      "\"ttft_p99_s\":%.4f,\"jct_p50_s\":%.4f,\"jct_p99_s\":%.4f,"
      "\"wire_bytes_total\":%zu,\"fp16_kv_bytes_total\":%zu,"
      "\"wire_vs_fp16\":%.4f,\"wire_codes_bytes\":%zu,"
      "\"wire_metadata_bytes\":%zu,\"wire_sums_bytes\":%zu,"
      "\"wire_tail_bytes\":%zu,\"prefill_s_mean\":%.3f,"
      "\"serialize_s_mean\":%.4f,\"transfer_ms_mean\":%.3f,"
      "\"deserialize_s_mean\":%.4f,\"decode_s_mean\":%.3f,"
      "\"reroutes\":%zu,\"prefill_failovers\":%zu,"
      "\"shed\":%zu,\"re_prefills\":%zu,\"re_prefills_from_decode\":%zu,"
      "\"health_transitions\":%zu,\"retries\":%zu,\"chunks_dropped\":%zu,"
      "\"chunks_corrupted\":%zu,\"crc_failures\":%zu,"
      "\"prefill_crashes\":%zu,\"decode_crashes\":%zu,"
      "\"retransmitted_bytes\":%zu,\"fallbacks\":%zu,\"rejected\":%zu,"
      "\"deadline_misses\":%zu,\"failed_allocations\":%zu,"
      "\"min_free_watermark\":%zu,"
      "\"checkpoint_every\":%zu,\"checkpoints\":%zu,"
      "\"checkpoint_bytes\":%zu,\"delta_bytes_per_checkpoint\":%.1f,"
      "\"checkpoint_failures\":%zu,\"resumes\":%zu,"
      "\"resume_latency_mean_s\":%.6f,\"tokens_replayed\":%zu,"
      "\"tokens_recomputed\":%zu,\"migrations\":%zu,\"drains\":%zu,"
      "\"bit_identical\":%s}\n",
      fc.prefill_workers, fc.decode_workers,
      dispatch_policy_name(fc.decode_policy), o.kill_spec.c_str(), kv_bits,
      w.requests, shape.heads, shape.kv_heads, shape.d_head, shape.pi,
      w.layers, w.input, w.output, ThreadPool::global().lanes(), o.drop,
      o.corrupt, o.fault_seed,
      ratio(static_cast<double>(report.total_generated), report.makespan_s),
      report.total_generated, report.makespan_s, report.ttft_s.p50,
      report.ttft_s.p99, report.jct_s.p50, report.jct_s.p99,
      report.wire_bytes_total, report.fp16_kv_bytes_total,
      ratio(static_cast<double>(report.wire_bytes_total),
            static_cast<double>(report.fp16_kv_bytes_total)),
      section(&KvWireSections::packed_codes),
      section(&KvWireSections::metadata), section(&KvWireSections::sums),
      section(&KvWireSections::fp16_tail), mean(&DisaggRecord::prefill_s),
      mean(&DisaggRecord::serialize_s),
      1000.0 * mean(&DisaggRecord::transfer_s),
      mean(&DisaggRecord::deserialize_s), mean(&DisaggRecord::decode_s),
      report.reroutes_total, report.prefill_failovers_total,
      report.shed_total, report.re_prefills_total,
      report.re_prefills_from_decode_crashes,
      report.health_transitions_total, report.retries_total,
      report.chunks_dropped_total, report.chunks_corrupted_total,
      report.crc_failures_total, report.prefill_crashes_total,
      report.decode_crashes_total, report.retransmitted_bytes_total,
      report.fallbacks, report.rejected, report.deadline_misses,
      failed_allocations, min_free_watermark, o.checkpoint_every,
      report.checkpoints_total, report.checkpoint_bytes_total,
      ratio(static_cast<double>(report.checkpoint_bytes_total),
            static_cast<double>(report.checkpoints_total)),
      report.checkpoint_failures_total, report.resumes_total,
      ratio(resume_s, static_cast<double>(resumed)),
      report.tokens_replayed_total, report.tokens_recomputed_total,
      report.migrations_total, report.drain_events_total,
      bit_identical ? "true" : "false");
  for (const auto& [pool, role] :
       {std::pair{&report.prefill_workers, "prefill"},
        std::pair{&report.decode_workers, "decode"}}) {
    for (const FleetWorkerStats& s : *pool) {
      std::printf(
          "{\"bench\":\"serving_fleet_worker\",\"kv_bits\":%d,"
          "\"worker\":\"%s\",\"role\":\"%s\",\"served\":%zu,\"crashes\":%zu,"
          "\"transfer_failures\":%zu,\"drains\":%zu,\"busy_s\":%.3f,"
          "\"utilization\":%.3f,\"health_transitions\":%zu,"
          "\"final_health\":\"%s\"}\n",
          kv_bits, s.name.c_str(), role, s.served, s.crashes,
          s.transfer_failures, s.drains, s.busy_s, s.utilization,
          s.transitions.size(), worker_health_name(s.final_health));
    }
  }
  std::fflush(stdout);
  return bit_identical;
}

}  // namespace

int main(int argc, char** argv) {
  Shape shape;
  Workload w;
  FleetOptions o;
  Flags flags;
  flags.toggle("--quick", [&w] {
    w.input = 48;  // requests stay as given: concurrency is the point
    w.output = 12;
  });
  add_workload_flags(flags, shape, w);
  flags.add("--fleet", "NxM", [&o](std::string_view v) {
    const std::size_t x = v.find('x');
    return parse_size(v.substr(0, x), &o.prefill_workers) &&
           x != std::string_view::npos &&
           parse_size(v.substr(x + 1), &o.decode_workers) &&
           o.prefill_workers > 0 && o.decode_workers > 0;
  });
  flags.add("--kv-bits", "N,...", [&o](std::string_view v) {
    const auto supported = [](std::size_t b) {
      return b == 2 || b == 4 || b == 8;
    };
    return parse_list(v, &o.kv_bits, parse_size) &&
           std::all_of(o.kv_bits.begin(), o.kv_bits.end(), supported);
  });
  flags.add("--kill", "worker:request[@token],...", [&o](std::string_view v) {
    o.kill_spec = v;
    return parse_list(v, &o.kills, parse_kill);
  });
  flags.add("--policy", "round_robin|least_bytes|free_blocks",
            [&o](std::string_view v) {
              o.policy = v == "round_robin" ? &dispatch_round_robin
                         : v == "least_bytes"
                             ? &dispatch_least_outstanding_bytes
                         : v == "free_blocks" ? &dispatch_most_free_blocks
                                              : nullptr;
              return o.policy != nullptr;
            });
  flags.size("--checkpoint-every", &o.checkpoint_every);
  flags.size("--kv-blocks", &o.kv_blocks);
  flags.size("--chunk-bytes", &o.chunk_bytes);
  const auto probability = [](double* out) {
    return [out](std::string_view v) {
      return parse_number(v, out) && *out >= 0.0 && *out <= 1.0;
    };
  };
  flags.add("--drop", "P", probability(&o.drop));
  flags.add("--corrupt", "P", probability(&o.corrupt));
  flags.size("--fault-seed", &o.fault_seed);
  flags.parse(argc, argv);
  check_workload(shape, w);
  for (const Kill& k : o.kills) {
    if (k.worker >= (k.prefill ? o.prefill_workers : o.decode_workers)) {
      fail("--kill names a worker the fleet does not have: " + o.kill_spec);
    }
  }

  const auto weights = make_weights(shape, w.layers);
  const auto requests = make_requests(w);
  bool bit_identical = true;
  for (const std::size_t kv_bits : o.kv_bits) {
    bit_identical &= run_fleet_leg(shape, w, o, weights, requests,
                                   static_cast<int>(kv_bits));
  }
  if (!bit_identical) fail("a served request diverged from solo generate()");
  return 0;
}
