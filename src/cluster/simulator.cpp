#include "cluster/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "cluster/event_queue.h"
#include "netsim/transfer.h"

namespace hack {
namespace {

constexpr double kPcieGBps = 25.0;  // CPU<->GPU staging for swapped KV

struct RequestState {
  RequestRecord record;
  double prefill_done = 0.0;
  int prefill_replica = -1;
  int decode_replica = -1;
  double kv_wire_bytes = 0.0;
  double kv_mem_bytes = 0.0;   // reservation at final length
  bool pipelined_reservation = false;
};

class Simulation {
 public:
  explicit Simulation(const ClusterConfig& config)
      : config_(config),
        cost_(make_cost_model(config.model, config.prefill_instance.gpu,
                              config.method, config.pi, config.kv_bits)),
        decode_cost_(make_cost_model(config.model, config.decode_instance.gpu,
                                     config.method, config.pi,
                                     config.kv_bits)) {
    // Only tensor parallelism crossing an instance boundary wrecks MFU;
    // pipeline stages exchange activations, which Ethernet handles fine.
    const bool prefill_multi_node =
        cost_.plan.tp > config.prefill_instance.gpus;
    cost_.mfu = prefill_multi_node ? config.mfu_multi_node
                                   : config.mfu_single_node;
    decode_cost_.plan = parallelism_for(config.model, GpuFamily::kA100);
    const bool decode_multi_node =
        decode_cost_.plan.tp > config.decode_instance.gpus;
    decode_cost_.mfu = decode_multi_node ? config.mfu_multi_node
                                         : config.mfu_single_node;
    decode_cost_.decode_overhead = config.decode_overhead;

    for (int i = 0; i < config.prefill_replicas; ++i) {
      prefill_.emplace_back(i,
                            config.prefill_nic_gbps * config.nic_efficiency);
    }
    const double budget =
        decode_mem_capacity_bytes() -
        decode_cost_.weight_bytes_per_replica() -
        config.activation_reserve_gb * 1e9;
    HACK_CHECK(budget > 0,
               "decode replica cannot even hold the model weights");
    for (int i = 0; i < config.decode_replicas; ++i) {
      decode_.emplace_back(i, config.decode_nic_gbps * config.nic_efficiency);
      decode_.back().mem_budget_bytes = budget;
    }
  }

  double decode_mem_capacity_bytes() const {
    return decode_cost_.plan.gpus() * config_.decode_instance.gpu.mem_gb * 1e9;
  }

  SimSummary run() {
    Rng rng(config_.seed);
    const auto arrivals = generate_arrivals(config_.dataset, config_.rps,
                                            config_.num_requests, rng);
    requests_.resize(arrivals.size());
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      RequestState& req = requests_[i];
      req.record.id = static_cast<RequestId>(i);
      req.record.arrival = arrivals[i].time;
      req.record.shape = arrivals[i].shape;
      req.kv_wire_bytes = cost_.kv_wire_bytes(arrivals[i].shape.input_tokens);
      req.kv_mem_bytes = decode_cost_.kv_mem_bytes(
          arrivals[i].shape.input_tokens + arrivals[i].shape.output_tokens);
      events_.schedule(arrivals[i].time,
                       [this, i](double now) { on_arrival(i, now); });
    }
    events_.run();
    return summarize();
  }

 private:
  // ---- prefill side -------------------------------------------------------

  void on_arrival(std::size_t i, double now) {
    // Dispatch to the prefill replica with the shortest token queue (§7.1).
    PrefillReplica* best = &prefill_[0];
    for (PrefillReplica& replica : prefill_) {
      if (replica.queued_tokens < best->queued_tokens) best = &replica;
    }
    best->queue.push_back(static_cast<RequestId>(i));
    best->queued_tokens += requests_[i].record.shape.input_tokens;
    requests_[i].prefill_replica = best->id;
    pump_prefill(*best, now);
  }

  void pump_prefill(PrefillReplica& replica, double now) {
    if (replica.busy_until > now + 1e-12 || replica.queue.empty()) return;
    const std::size_t i = replica.queue.front();
    replica.queue.pop_front();
    RequestState& req = requests_[i];

    const double start = now;
    req.record.prefill_wait_s = start - req.record.arrival;
    req.record.prefill_s = cost_.prefill_s(req.record.shape.input_tokens);
    req.record.quant_s =
        cost_.prefill_quant_s(req.record.shape.input_tokens);
    const double done = start + req.record.prefill_s + req.record.quant_s;
    replica.busy_until = done;
    req.prefill_done = done;

    // Pipelining: reserve a decode replica now so the KV transfer can
    // overlap prefill compute (§2.1). Falls back to the swap path when no
    // replica has memory — exactly the case where pipelining is infeasible.
    if (config_.pipelining) {
      DecodeReplica* target = pick_decode(req.kv_mem_bytes);
      if (target != nullptr) {
        target->reserve(req.kv_mem_bytes);
        target->queued_tokens += req.record.shape.output_tokens;
        req.decode_replica = target->id;
        req.pipelined_reservation = true;
        // Book the NICs from prefill start; only the tail past `done` is
        // exposed in JCT.
        const TransferResult xfer =
            nccl_transfer(prefill_[static_cast<std::size_t>(replica.id)].nic,
                          target->nic, start, req.kv_wire_bytes);
        const double arrive = std::max(done, xfer.finish);
        req.record.comm_s = arrive - done;
        events_.schedule(arrive,
                         [this, i](double t) { on_decode_join(i, t); });
        events_.schedule(done, [this, id = replica.id](double t) {
          pump_prefill(prefill_[static_cast<std::size_t>(id)], t);
        });
        replica.queued_tokens -= req.record.shape.input_tokens;
        return;
      }
    }

    events_.schedule(done, [this, i](double t) { on_prefill_done(i, t); });
    events_.schedule(done, [this, id = replica.id](double t) {
      pump_prefill(prefill_[static_cast<std::size_t>(id)], t);
    });
    replica.queued_tokens -= req.record.shape.input_tokens;
  }

  void on_prefill_done(std::size_t i, double now) {
    RequestState& req = requests_[i];
    DecodeReplica* target = pick_decode(req.kv_mem_bytes);
    if (target == nullptr) {
      // No decode replica has memory: KV moves to prefill-side CPU memory
      // (Fig. 5 step 6) and waits. PCIe staging is paid on the way out.
      req.record.swapped = true;
      ++swapped_count_;
      waiting_.push_back(static_cast<RequestId>(i));
      return;
    }
    start_transfer(i, *target, now);
  }

  DecodeReplica* pick_decode(double bytes) {
    DecodeReplica* best = nullptr;
    for (DecodeReplica& replica : decode_) {
      if (!replica.has_memory_for(bytes)) continue;
      if (best == nullptr || replica.queued_tokens < best->queued_tokens) {
        best = &replica;
      }
    }
    return best;
  }

  void start_transfer(std::size_t i, DecodeReplica& target, double now) {
    RequestState& req = requests_[i];
    target.reserve(req.kv_mem_bytes);
    target.queued_tokens += req.record.shape.output_tokens;
    req.decode_replica = target.id;
    req.record.swap_wait_s = now - req.prefill_done;

    double ready = now;
    if (req.record.swapped) {
      // Read the parked KV back across PCIe before it can hit the wire.
      ready += req.kv_wire_bytes / (kPcieGBps * 1e9);
    }
    const TransferResult xfer = nccl_transfer(
        prefill_[static_cast<std::size_t>(req.prefill_replica)].nic,
        target.nic, ready, req.kv_wire_bytes);
    req.record.comm_s = xfer.finish - now;
    events_.schedule(xfer.finish,
                     [this, i](double t) { on_decode_join(i, t); });
  }

  // ---- decode side --------------------------------------------------------

  void on_decode_join(std::size_t i, double now) {
    RequestState& req = requests_[i];
    DecodeReplica& replica =
        decode_[static_cast<std::size_t>(req.decode_replica)];
    replica.active.push_back(
        {.request = static_cast<RequestId>(i),
         .context_len = req.record.shape.input_tokens,
         .remaining = static_cast<std::size_t>(
             std::max(1.0, req.record.shape.output_tokens)),
         .joined_at = now});
    req.record.decode_total_s = -now;  // completed on finish
    schedule_iteration(replica, now);
  }

  void schedule_iteration(DecodeReplica& replica, double now) {
    if (replica.iteration_pending || replica.active.empty()) return;
    double iter =
        decode_cost_.decode_weight_read_s() + decode_cost_.decode_iter_fixed_s();
    for (const DecodeResident& resident : replica.active) {
      if (resident.joined_at > now + 1e-12) continue;
      iter += decode_cost_.decode_request_iter_s(resident.context_len);
    }
    replica.iteration_pending = true;
    replica.iteration_started = now;
    events_.schedule(now + iter, [this, id = replica.id](double t) {
      on_iteration_done(decode_[static_cast<std::size_t>(id)], t);
    });
  }

  void on_iteration_done(DecodeReplica& replica, double now) {
    replica.iteration_pending = false;
    const double started = replica.iteration_started;
    bool memory_freed = false;

    // A request's per-token latency includes the *batch's* work for that
    // iteration, so stage attribution uses the iteration aggregates — this
    // matches how the paper measures per-request stage times (§2.1).
    double iter_kv = 0.0, iter_dequant = 0.0, iter_approx = 0.0;
    const double fixed = decode_cost_.decode_iter_fixed_s();
    if (decode_cost_.traits.hack_approx) {
      iter_approx += fixed;
    } else {
      iter_dequant += fixed;
    }
    for (const DecodeResident& resident : replica.active) {
      if (resident.joined_at > started + 1e-12) continue;
      iter_kv += decode_cost_.decode_kv_read_s(resident.context_len);
      iter_dequant += decode_cost_.decode_dequant_s(resident.context_len);
      iter_approx += decode_cost_.decode_approx_s(resident.context_len);
    }

    std::vector<DecodeResident> still_active;
    still_active.reserve(replica.active.size());
    for (DecodeResident& resident : replica.active) {
      if (resident.joined_at > started + 1e-12) {
        still_active.push_back(resident);  // joins the next iteration
        continue;
      }
      RequestState& req = requests_[resident.request];
      req.record.kv_access_s += iter_kv;
      req.record.dequant_s += iter_dequant;
      req.record.approx_s += iter_approx;
      resident.context_len += 1.0;
      --resident.remaining;
      if (resident.remaining == 0) {
        req.record.completion = now;
        req.record.decode_total_s += now;
        replica.release(req.kv_mem_bytes);
        replica.queued_tokens -= req.record.shape.output_tokens;
        memory_freed = true;
        ++completed_;
      } else {
        still_active.push_back(resident);
      }
    }
    replica.active = std::move(still_active);

    if (memory_freed) {
      admit_waiting(now);
    }
    schedule_iteration(replica, now);
  }

  void admit_waiting(double now) {
    while (!waiting_.empty()) {
      const std::size_t i = waiting_.front();
      DecodeReplica* target = pick_decode(requests_[i].kv_mem_bytes);
      if (target == nullptr) return;
      waiting_.pop_front();
      start_transfer(i, *target, now);
    }
  }

  // ---- aggregation --------------------------------------------------------

  SimSummary summarize() const {
    HACK_CHECK(completed_ == requests_.size(),
               "simulation ended with " << requests_.size() - completed_
                                        << " unfinished requests");
    SimSummary s;
    s.records.reserve(requests_.size());
    const double n = static_cast<double>(requests_.size());
    for (const RequestState& req : requests_) {
      const RequestRecord& r = req.record;
      s.records.push_back(r);
      const double jct = r.jct();
      HACK_CHECK(jct > 0.0, "non-positive JCT");
      const double dq_or_ap = r.dequant_s + r.approx_s;
      s.avg_jct_s += jct / n;
      s.prefill_ratio += r.prefill_s / jct / n;
      s.quant_ratio += r.quant_s / jct / n;
      s.comm_ratio += r.comm_s / jct / n;
      s.dequant_or_approx_ratio += dq_or_ap / jct / n;
      s.decode_ratio += (r.decode_total_s - dq_or_ap) / jct / n;
      s.kv_access_ratio += r.kv_access_s / jct / n;
      s.mean_prefill_s += r.prefill_s / n;
      s.mean_quant_s += r.quant_s / n;
      s.mean_comm_s += r.comm_s / n;
      s.mean_dequant_or_approx_s += dq_or_ap / n;
      s.mean_decode_s += (r.decode_total_s - dq_or_ap) / n;
    }
    const double capacity = decode_mem_capacity_bytes();
    for (const DecodeReplica& replica : decode_) {
      const double peak =
          (decode_cost_.weight_bytes_per_replica() +
           config_.activation_reserve_gb * 1e9 + replica.peak_mem_reserved) /
          capacity;
      s.peak_decode_mem_fraction = std::max(s.peak_decode_mem_fraction, peak);
    }
    s.swapped_requests = swapped_count_;
    return s;
  }

  ClusterConfig config_;
  KernelCostModel cost_;         // prefill-side (prefill GPU)
  KernelCostModel decode_cost_;  // decode-side (A100 fleet)
  EventQueue events_;
  std::vector<PrefillReplica> prefill_;
  std::vector<DecodeReplica> decode_;
  std::vector<RequestState> requests_;
  std::deque<RequestId> waiting_;
  std::size_t completed_ = 0;
  int swapped_count_ = 0;
};

}  // namespace

SimSummary run_cluster_sim(const ClusterConfig& config) {
  Simulation sim(config);
  return sim.run();
}

namespace {

// The auto-calibrated arrival rate for a config (baseline-method capacity).
double auto_rps(const ClusterConfig& config) {
  // Capacity estimate under the *baseline* method so that every compared
  // method serves an identical workload (§7.1 fixes RPS per scenario).
  ClusterConfig base = config;
  base.method = Method::kBaseline;
  KernelCostModel pre = make_cost_model(base.model, base.prefill_instance.gpu,
                                        base.method, base.pi);
  pre.mfu = pre.plan.tp > base.prefill_instance.gpus ? base.mfu_multi_node
                                                       : base.mfu_single_node;
  KernelCostModel dec = make_cost_model(base.model, base.decode_instance.gpu,
                                        base.method, base.pi);
  dec.decode_overhead = base.decode_overhead;

  const double l_in = base.dataset.input.avg;
  const double l_out = std::max(1.0, base.dataset.output.avg);
  const double prefill_each = pre.prefill_s(l_in) + pre.prefill_quant_s(l_in);
  const double rps_prefill = base.prefill_replicas / prefill_each;

  const double capacity = dec.plan.gpus() * base.decode_instance.gpu.mem_gb *
                          1e9;
  const double budget = capacity - dec.weight_bytes_per_replica() -
                        base.activation_reserve_gb * 1e9;
  const double concurrency =
      std::max(1.0, budget / dec.kv_mem_bytes(l_in + l_out));
  const double iter = dec.decode_weight_read_s() +
                      concurrency * dec.decode_request_iter_s(l_in);
  // Each iteration advances `concurrency` requests one token, so a replica
  // sustains concurrency/iter tokens/s and finishes a request every
  // l_out/(concurrency/iter) seconds.
  const double rps_decode =
      base.decode_replicas * concurrency / iter / l_out;

  const double nic_bps = base.prefill_nic_gbps * base.nic_efficiency * 1e9 /
                         8.0;
  const double rps_net =
      base.prefill_replicas * nic_bps / pre.kv_wire_bytes(l_in);

  const double cap = std::min({rps_prefill, rps_decode, rps_net});
  // 70% of the binding bottleneck: high enough to load the fleet (the paper
  // runs at "maximum processing capacity"), low enough that queueing delay
  // does not dominate JCT.
  return 0.70 * cap;
}

}  // namespace

ClusterConfig standard_cluster(const std::string& prefill_gpu,
                               const std::string& model_letter,
                               const std::string& dataset_name, Method method,
                               double rps) {
  ClusterConfig config;
  config.model = model_by_letter(model_letter);
  config.prefill_instance = instance_for_gpu(prefill_gpu);
  config.decode_instance = instance_for_gpu("A100");
  config.method = method;
  config.dataset = dataset_by_name(dataset_name);

  const ParallelismPlan prefill_plan =
      parallelism_for(config.model, config.prefill_instance.gpu.family);
  const int prefill_gpus = paper_prefill_gpu_count(prefill_gpu);
  config.prefill_replicas =
      std::max(1, prefill_gpus / prefill_plan.gpus());
  // Effective per-replica NIC: the replica's share of one instance NIC; a
  // replica spanning several instances is still gated by per-stage egress
  // (Table 2's bandwidth column is the operative rate — §7.6 confirms the
  // "share of the instance NIC" reading for sub-instance replicas).
  config.prefill_nic_gbps =
      config.prefill_instance.net_gbps *
      std::min(1.0, static_cast<double>(prefill_plan.gpus()) /
                        config.prefill_instance.gpus);

  const ParallelismPlan decode_plan =
      parallelism_for(config.model, GpuFamily::kA100);
  const int decode_gpus = 2 * config.decode_instance.gpus;  // two p4de (§7.1)
  config.decode_replicas = std::max(1, decode_gpus / decode_plan.gpus());
  config.decode_nic_gbps =
      config.decode_instance.net_gbps *
      std::min(1.0, static_cast<double>(decode_plan.gpus()) /
                        config.decode_instance.gpus);

  config.rps = rps > 0.0 ? rps : auto_rps(config);
  return config;
}

}  // namespace hack
