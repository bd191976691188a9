// Discrete-event simulator for disaggregated LLM inference.
//
// Reproduces the paper's serving pipeline (Fig. 5): Poisson arrivals are
// dispatched to the prefill replica with the shortest token queue; prefill
// computes (and, for quantizing methods, quantizes) the prompt KV; KV is
// transferred over the replicas' NICs with NCCL-style chunking to the decode
// replica with the shortest queue that has memory; when none has memory the
// KV parks in the prefill instance's CPU memory (swap) until capacity frees.
// Decode replicas run batched iterations — every iteration each resident
// request advances one token, paying its marginal KV-read, dequantization
// (CacheGen/KVQuant), approximation (HACK) and attention costs on top of the
// shared weight stream. Optional pipelining overlaps the KV transfer with
// prefill compute when a decode replica can be reserved up front (Fig. 1d).
#pragma once

#include <string>
#include <vector>

#include "cluster/instance.h"
#include "cluster/kernel_cost.h"
#include "workload/arrivals.h"
#include "workload/dataset.h"

namespace hack {

struct ClusterConfig {
  ModelConfig model;
  InstanceSpec prefill_instance;
  int prefill_replicas = 1;
  double prefill_nic_gbps = 40.0;  // effective per-replica rate
  InstanceSpec decode_instance;
  int decode_replicas = 1;
  double decode_nic_gbps = 200.0;
  Method method = Method::kBaseline;
  DatasetSpec dataset;
  double rps = 0.1;
  int num_requests = 60;
  std::uint64_t seed = 42;
  bool pipelining = false;
  std::size_t pi = 64;  // HACK partition size
  int kv_bits = 2;      // HACK KV precision (§8 future work explores 4-bit)
  double activation_reserve_gb = 4.0;

  // Efficiency knobs; defaults calibrated against the paper's ratio bands.
  double mfu_single_node = 0.45;  // replica fits in one cloud instance
  double mfu_multi_node = 0.18;   // TP/PP over Ethernet
  double nic_efficiency = 0.35;   // NCCL goodput over instance Ethernet
  double decode_overhead = 2.0;   // decode kernel/scheduler inflation
};

struct RequestRecord {
  RequestId id = 0;
  double arrival = 0.0;
  RequestShape shape;
  double prefill_wait_s = 0.0;
  double prefill_s = 0.0;
  double quant_s = 0.0;
  double swap_wait_s = 0.0;
  double comm_s = 0.0;
  double decode_total_s = 0.0;   // decode-join to completion
  double kv_access_s = 0.0;      // component: KV reads across iterations
  double dequant_s = 0.0;        // component: codec dequantization
  double approx_s = 0.0;         // component: Eq. (4) approximation
  double completion = 0.0;
  bool swapped = false;

  double jct() const { return completion - arrival; }
};

struct SimSummary {
  std::vector<RequestRecord> records;

  double avg_jct_s = 0.0;
  // Average per-request time ratios, 1/N Σ component_i / JCT_i (§2.1).
  double prefill_ratio = 0.0;
  double quant_ratio = 0.0;
  double comm_ratio = 0.0;
  double dequant_or_approx_ratio = 0.0;
  double decode_ratio = 0.0;     // decode_total minus dequant/approx
  double kv_access_ratio = 0.0;  // within decode

  // Average absolute component times (Fig. 10 rows).
  double mean_prefill_s = 0.0;
  double mean_quant_s = 0.0;
  double mean_comm_s = 0.0;
  double mean_dequant_or_approx_s = 0.0;
  double mean_decode_s = 0.0;

  // Peak decode memory fraction: (weights + reserve + peak KV) / capacity,
  // max across replicas (Table 5).
  double peak_decode_mem_fraction = 0.0;
  int swapped_requests = 0;
};

SimSummary run_cluster_sim(const ClusterConfig& config);

// Builds the paper's standard testbed (§7.1) for (prefill GPU, model,
// dataset, method): fleet sizes, Table 3 plans, per-replica NIC shares.
// rps <= 0 selects the auto-calibrated "maximum processing capacity" rate
// (computed for the baseline method so every method sees the same load).
ClusterConfig standard_cluster(const std::string& prefill_gpu,
                               const std::string& model_letter,
                               const std::string& dataset_name, Method method,
                               double rps = 0.0);

}  // namespace hack
