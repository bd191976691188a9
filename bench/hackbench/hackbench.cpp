// hackbench: end-to-end serving benchmark with a per-layer replay trace.
//
//   hackbench --workload NAME [--seed N] [--seconds S] [--trace 0|1|PATH]
//             [--trace-dir DIR] [--smoke]
//   hackbench --list
//
// One process runs one workload (workloads.h): set-up (timed nine times),
// then a run that serves whole request rounds for --seconds. After each
// round, a sample of its requests is replayed with spans (replay.h), which
// checks tokens and the wire and yields the per-layer numbers. The
// end-to-end metrics come from the serving alone. Output, on stdout:
//
//   {"provenance":{...}}                       commit, host, ISA, canary
//   {"workload":..,"metric":..,"value":..,"unit":..,"n":..}   every metric
//   verified=<n>
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}  last line
//
// The last line carries the end-to-end metrics, or with --trace 1 the
// per-layer ones; --trace 1 also writes the spans as Chrome trace JSON.
// The exit code is non-zero when any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.h"
#include "metrics/stats.h"
#include "replay.h"
#include "workloads.h"

namespace {

using namespace hackbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string trace_path;  // explicit --trace PATH
  std::string trace_dir = ".";
  bool smoke = false;
  bool list = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hackbench: %s\nusage: hackbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1|PATH] [--trace-dir DIR] "
               "[--smoke] | --list\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const bool flag = arg == "--smoke" || arg == "--list";
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (!flag) {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || o.seconds < 0) {
        usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      o.trace = value != "0";
      if (value != "0" && value != "1") o.trace_path = value;
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--list") {
      o.list = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  return o;
}

double median(std::vector<double> v) {
  return v.empty() ? 0.0 : hack::percentile(std::move(v), 0.5);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// A fixed single-thread integer/float loop: the same work on every run, so
// its time tracks how fast this host is right now. Median of three.
volatile double canary_sink = 0.0;  // keeps the loop from being folded

double canary_ms() {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = now_s();
    std::uint64_t x = 88172645463325252ULL;
    double acc = 0.0;
    for (int i = 0; i < 8'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc = acc * 0.999999 + double(x & 0xffff);
    }
    canary_sink = acc;
    ms.push_back((now_s() - start) * 1e3);
  }
  return median(ms);
}

const char* isa_string() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vnni")) return "avx512_vnni";
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "none";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
  std::size_t n = 0;
};

// The metric catalogue. BENCHMARK.json lists the same names; every one is
// printed for every workload (0 where a layer is not used, see README.md).
constexpr const char* kEndToEnd[] = {
    "setup_s",   "ttft_p50_s",   "tpot_p50_s",
    "jct_p50_s", "tokens_per_s", "peak_rss_mib",
};

constexpr SpanKind kLayerSpans[] = {SpanKind::kQkv, SpanKind::kAppend,
                                    SpanKind::kAttend, SpanKind::kFfn,
                                    SpanKind::kLmHead};

constexpr const char* kCounters[][2] = {
    {"serving.steps", "count"},
    {"serving.rows_per_step", "rows"},
    {"serving.prefill_chunks", "count"},
    {"serving.fused_attend_launches", "count"},
    {"serving.peak_running", "count"},
    {"serving.decode_tokens_per_s", "tok/s"},
    {"fleet.prefill_util_max", "ratio"},
    {"fleet.decode_util_max", "ratio"},
    {"fleet.decode_imbalance", "ratio"},
    {"kvcache.tier.evictions", "count"},
    {"kvcache.tier.rehydrations", "count"},
    {"kvcache.tier.prefetch_hit_ratio", "ratio"},
    {"kvcache.tier.swap_bytes", "B"},
    {"kvcache.tier.far_bytes_peak", "B"},
    {"kvcache.tier.swap_in_work_share", "ratio"},
    {"kvcache.tier.swap_in_stall_share", "ratio"},
    {"netsim.transfer_share", "ratio"},
    {"netsim.retries", "count"},
};

std::map<std::string, Metric> end_to_end(const RunResult& run,
                                         double setup_s, std::size_t setups,
                                         double rss_mib) {
  std::vector<double> ttft, tpot, jct;
  double tokens = 0;
  for (const Served& s : run.served) {
    if (!s.ok) continue;
    ttft.push_back(s.ttft_s);
    jct.push_back(s.jct_s);
    if (s.tokens.size() >= 2) {
      tpot.push_back((s.jct_s - s.ttft_s) / double(s.tokens.size() - 1));
    }
    tokens += double(s.tokens.size());
  }
  // Medians only: a run serves at most a few dozen requests, too few for a
  // tail percentile with ten samples beyond it.
  std::map<std::string, Metric> m;
  m["setup_s"] = {setup_s, "s", setups};
  m["ttft_p50_s"] = {median(ttft), "s", ttft.size()};
  m["tpot_p50_s"] = {median(tpot), "s", tpot.size()};
  m["jct_p50_s"] = {median(jct), "s", jct.size()};
  m["tokens_per_s"] = {ratio(tokens, run.busiest_s), "tok/s", jct.size()};
  m["peak_rss_mib"] = {rss_mib, "MiB", 1};
  return m;
}

std::map<std::string, Metric> per_layer(const RunResult& run,
                                        const ReplayResult& rp,
                                        const Tracer& tracer,
                                        double canary) {
  const std::vector<Span>& spans = tracer.spans();
  // Self time: a span's duration minus the time its direct children cover.
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_s - spans[i].begin_s;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[std::size_t(s.parent)] -= s.end_s - s.begin_s;
  }
  // [phase][kind] self-time sums and counts; phase walls from the roots.
  constexpr std::size_t kKinds = std::size_t(SpanKind::kDeserialize) + 1;
  double busy[2][kKinds] = {}, count[2][kKinds] = {};
  double wall[2] = {}, roots[2] = {};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::size_t ph = s.decode ? 1 : 0;
    busy[ph][std::size_t(s.kind)] += self[i];
    count[ph][std::size_t(s.kind)] += 1;
    if (s.kind == SpanKind::kPrefillChunk || s.kind == SpanKind::kDecodeStep) {
      wall[ph] += s.end_s - s.begin_s;
      roots[ph] += 1;
    }
  }

  std::map<std::string, Metric> m;
  const char* phases[2] = {"prefill", "decode"};
  double dense_s = 0, attend_s = 0;
  for (std::size_t ph = 0; ph < 2; ++ph) {
    for (const SpanKind kind : kLayerSpans) {
      const std::size_t k = std::size_t(kind);
      const std::string base =
          std::string(phases[ph]) + "." + span_name(kind);
      const auto n = std::size_t(count[ph][k]);
      m[base + ".busy_s"] = {busy[ph][k], "s", n};
      m[base + ".share"] = {ratio(busy[ph][k], wall[ph]), "ratio", n};
    }
    dense_s += busy[ph][std::size_t(SpanKind::kQkv)] +
               busy[ph][std::size_t(SpanKind::kFfn)] +
               busy[ph][std::size_t(SpanKind::kLmHead)];
    attend_s += busy[ph][std::size_t(SpanKind::kAttend)];
  }
  const auto serialize = std::size_t(SpanKind::kSerialize);
  const auto deserialize = std::size_t(SpanKind::kDeserialize);
  m["kvcache.serialize.busy_s"] = {busy[0][serialize], "s",
                                   std::size_t(count[0][serialize])};
  m["kvcache.deserialize.busy_s"] = {busy[0][deserialize], "s",
                                     std::size_t(count[0][deserialize])};
  m["model.dense.gflop_per_s"] = {ratio(rp.dense_flops, dense_s) / 1e9,
                                  "GFLOP/s", std::size_t(roots[0] + roots[1])};
  m["attention.attend.gop_per_s"] = {ratio(rp.attend_ops, attend_s) / 1e9,
                                     "GOP/s",
                                     std::size_t(roots[0] + roots[1])};
  m["kvcache.wire_bytes_per_token"] = {ratio(rp.wire_bytes, rp.prompt_tokens),
                                       "B/token", rp.replayed};
  m["kvcache.wire_vs_fp16"] = {ratio(rp.wire_bytes, rp.fp16_kv_bytes),
                               "ratio", rp.replayed};
  // Only the fleets record per-request compute; 0 on the engine workloads.
  m["trace.coverage"] = {ratio(wall[0] + wall[1], rp.served_compute_s),
                         "ratio", rp.replayed};
  double queue = 0, jct = 0;
  std::size_t ok = 0;
  for (const Served& s : run.served) {
    if (!s.ok) continue;
    queue += s.queue_s;
    jct += s.jct_s;
    ++ok;
  }
  m["sched.queue_wait_share"] = {ratio(queue, jct), "ratio", ok};
  for (const auto& [name, unit] : kCounters) {
    const auto it = run.counters.find(name);
    m[name] = {it == run.counters.end() ? 0.0 : it->second, unit, run.rounds};
  }
  m["host.canary_ms"] = {canary, "ms", 3};
  return m;
}

void print_metric(const char* workload, const std::string& name,
                  const Metric& m) {
  std::printf(
      "{\"workload\":\"%s\",\"metric\":\"%s\",\"value\":%.17g,"
      "\"unit\":\"%s\",\"n\":%zu}\n",
      workload, name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit,
      m.n);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.list) {
    for (const Workload& w : workloads()) std::printf("%s\n", w.name);
    return 0;
  }
  const Workload* found = find_workload(opt.workload);
  if (found == nullptr) usage(("unknown workload '" + opt.workload + "'").c_str());
  Workload w = *found;
  std::size_t round_requests = w.round_requests;
  std::size_t setups = 9;
  double seconds = opt.seconds;
  if (opt.smoke) {
    // One round at about a tenth of the size: enough to exercise every
    // path and check, not to measure.
    round_requests = std::max<std::size_t>(3, (w.round_requests + 9) / 10);
    w.max_input = std::min<std::size_t>(w.max_input ? w.max_input : 256, 256);
    w.max_output = 24;
    setups = 1;
    seconds = 0;
  }

  const double canary = canary_ms();
  std::printf(
      "{\"provenance\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"smoke\":%s,\"commit\":\"%s\",\"src_digest\":\"%s\",\"nproc\":%u,"
      "\"lanes\":%zu,\"isa\":\"%s\",\"build\":\"%s\","
      "\"host.canary_ms\":%.4f}}\n",
      w.name, static_cast<unsigned long long>(opt.seed), seconds,
      opt.smoke ? "true" : "false",
      env_or("HACKBENCH_COMMIT", "none").c_str(),
      env_or("HACKBENCH_SRC_DIGEST", "none").c_str(),
      std::thread::hardware_concurrency(), hack::ThreadPool::global().lanes(),
      isa_string(), HACKBENCH_BUILD_TYPE, canary);
  std::fflush(stdout);

  std::shared_ptr<const hack::TinyModelWeights> weights;
  std::vector<double> setup_times;
  for (std::size_t i = 0; i < setups; ++i) {
    setup_times.push_back(setup_once(w, &weights));
  }

  // Each round's sample is replayed right after the round, inside the time
  // budget, so the replay and the run are timed in the same host period.
  RequestStream stream(w, opt.seed, round_requests);
  Tracer tracer;
  ReplayResult rp;
  double replay_s = 0;
  const double run_start = now_s();
  const RunResult run = run_workload(
      w, weights, stream, seconds,
      [&](const std::vector<Served>& served, std::size_t first) {
        const double start = now_s();
        replay(w, weights, served, replay_sample(served, first), tracer, rp);
        replay_s += now_s() - start;
      });
  const double rss = peak_rss_mib();
  std::fprintf(stderr,
               "hackbench: %s: set-up %.2f s x%zu, run %.2f s (%zu rounds, "
               "%zu requests) of which replay %.2f s (%zu requests)\n",
               w.name, median(setup_times), setups, now_s() - run_start,
               run.rounds, run.served.size(), replay_s, rp.replayed);

  std::size_t undelivered = 0;
  for (const Served& s : run.served) undelivered += s.ok ? 0 : 1;
  const std::size_t attempted = run.served.size();
  const std::size_t failed =
      undelivered + rp.token_mismatches + rp.wire_mismatches;
  std::vector<std::string> problems = run.gate_failures;
  if (rp.token_mismatches > 0) problems.push_back("token mismatch");
  if (rp.wire_mismatches > 0) problems.push_back("wire byte mismatch");
  if (undelivered > 0) problems.push_back("requests not delivered");
  if (rp.replayed * 4 < attempted) {
    problems.push_back("verified < 25% of requests");
  }

  const auto e2e = end_to_end(run, median(setup_times), setups, rss);
  const auto layers = per_layer(run, rp, tracer, canary);
  for (const auto& [name, m] : e2e) print_metric(w.name, name, m);
  for (const auto& [name, m] : layers) print_metric(w.name, name, m);
  std::printf("verified=%zu\n", rp.replayed);
  for (const std::string& p : problems) {
    std::fprintf(stderr, "hackbench: %s: check failed: %s\n", w.name,
                 p.c_str());
  }

  if (opt.trace) {
    const std::string path =
        !opt.trace_path.empty()
            ? opt.trace_path
            : opt.trace_dir + "/trace-" + w.name + "-" +
                  std::to_string(opt.seed) + ".json";
    if (!tracer.write_chrome_trace(path)) {
      std::fprintf(stderr, "hackbench: cannot write %s\n", path.c_str());
      problems.push_back("trace not written");
    }
  }

  const bool correct = problems.empty();
  std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
              "\"metrics\":{",
              correct ? "true" : "false", attempted, failed);
  std::vector<std::pair<std::string, Metric>> shown;
  if (opt.trace) {
    shown.assign(layers.begin(), layers.end());
  } else {
    for (const char* name : kEndToEnd) shown.emplace_back(name, e2e.at(name));
  }
  bool first = true;
  for (const auto& [name, m] : shown) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                first ? "" : ",", name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit);
    first = false;
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
