// Shared setup for the three serving benches — bench_serving_layer (one
// batched attention layer), bench_serving_engine (the continuous-batching
// ServingEngine) and bench_serving_fleet (the disaggregated FleetEngine): the
// attention shape, the served model's weights, the arrival process turned
// into requests, the solo-generate() bit-identity check, and the flag table
// every binary parses its command line with.
#pragma once

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "attention/hack_attention.h"
#include "model/tiny_transformer.h"
#include "serving/engine.h"
#include "workload/trace.h"

namespace hack::bench {

struct Shape {
  std::size_t heads = 32;
  std::size_t kv_heads = 8;
  std::size_t d_head = 128;
  std::size_t pi = 64;
};

// The request stream the engine and fleet benches serve.
struct Workload {
  std::size_t requests = 8;
  std::size_t input = 128;   // mean prompt tokens
  std::size_t output = 32;   // mean output tokens
  std::size_t layers = 2;
  std::string arrival = "poisson:8";
};

// A whole-string number: an empty string, a trailing character or a sign on
// an unsigned type is malformed (std::strtoul reads "x" as 0 and "-1" as
// 2^64-1).
template <typename T>
bool parse_number(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && p == end;
}
inline constexpr auto parse_size = parse_number<std::size_t>;

// A comma-separated list, every element read by `parse_one`.
template <typename T, typename ParseOne>
bool parse_list(std::string_view s, std::vector<T>* out, ParseOne parse_one) {
  out->clear();
  while (true) {
    const std::size_t comma = s.find(',');
    T v{};
    if (!parse_one(s.substr(0, comma), &v)) return false;
    out->push_back(v);
    if (comma == std::string_view::npos) return true;
    s.remove_prefix(comma + 1);
  }
}

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// Wall-clock seconds one call of `fn` takes.
template <typename Fn>
double time_s(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

[[noreturn]] inline void fail(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(1);
}

// A binary's flags as a table: each entry names one flag, its value's
// placeholder (null: the flag takes no value) and how it stores the value.
// parse() walks argv in order, so a later --input overrides an earlier
// --quick, and exits 1 with the usage on a flag the table does not hold, on
// a flag given twice and on a malformed value.
class Flags {
 public:
  using Set = std::function<bool(std::string_view)>;

  void add(const char* name, const char* hint, Set set) {
    flags_.push_back({name, hint, std::move(set)});
  }
  void size(const char* name, std::size_t* out) {
    add(name, "N", [out](std::string_view v) { return parse_size(v, out); });
  }
  void sizes(const char* name, std::vector<std::size_t>* out) {
    add(name, "N,...",
        [out](std::string_view v) { return parse_list(v, out, parse_size); });
  }
  void toggle(const char* name, std::function<void()> on) {
    add(name, nullptr, [on](std::string_view) {
      on();
      return true;
    });
  }

  void parse(int argc, char** argv) {
    std::vector<bool> seen(flags_.size(), false);
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const std::size_t eq = arg.find('=');
      const bool has_value = eq != std::string_view::npos;
      std::size_t f = 0;
      while (f < flags_.size() && flags_[f].name != arg.substr(0, eq)) ++f;
      const char* error =
          f == flags_.size() ? "unknown flag"
          : seen[f]          ? "flag given twice"
          : has_value != (flags_[f].hint != nullptr) ||
                  !flags_[f].set(has_value ? arg.substr(eq + 1) : "")
              ? "malformed flag"
              : nullptr;
      if (error != nullptr) {
        std::string text = error + (": " + std::string(arg)) + "\nusage: " +
                           argv[0];
        for (const Flag& flag : flags_) {
          text += " [" + flag.name +
                  (flag.hint != nullptr ? "=" + std::string(flag.hint) : "") +
                  "]";
        }
        fail(text);
      }
      seen[f] = true;
    }
  }

 private:
  struct Flag {
    std::string name;
    const char* hint;
    Set set;
  };
  std::vector<Flag> flags_;
};

// The flags every bench that serves a request stream reads.
inline void add_workload_flags(Flags& flags, Shape& shape, Workload& w) {
  flags.size("--heads", &shape.heads);
  flags.size("--kv-heads", &shape.kv_heads);
  flags.size("--requests", &w.requests);
  flags.size("--input", &w.input);
  flags.size("--output", &w.output);
  flags.size("--layers", &w.layers);
  flags.add("--arrival", "poisson:<rps>|trace:<file>",
            [&w](std::string_view v) {
              w.arrival = v;
              return true;
            });
}

inline void check_shape(const Shape& shape) {
  if (shape.heads == 0 || shape.kv_heads == 0 ||
      shape.heads % shape.kv_heads != 0) {
    fail("heads must be a positive multiple of kv_heads");
  }
}

inline void check_workload(const Shape& shape, const Workload& w) {
  check_shape(shape);
  if (w.requests == 0 || w.output == 0) {
    fail("--requests and --output must be positive");
  }
}

// The arrival process (--arrival=poisson:<rps> or trace:<file>) turned into
// requests with seeded prompts over a 256-token vocabulary.
inline std::vector<ServingRequest> make_requests(const Workload& w) {
  std::vector<ArrivalRecord> arrivals;
  double rps = 0.0;
  if (w.arrival.rfind("trace:", 0) == 0) {
    const std::string path = w.arrival.substr(6);
    std::ifstream in(path);
    if (!in) fail("cannot open trace file " + path);
    std::stringstream buf;
    buf << in.rdbuf();
    arrivals = Trace::parse(buf.str()).requests;
  } else if (w.arrival.rfind("poisson:", 0) == 0 &&
             parse_number(std::string_view(w.arrival).substr(8), &rps) &&
             rps > 0.0) {
    const auto mean = [](std::size_t v) { return static_cast<double>(v); };
    const DatasetSpec spec{
        "bench",
        {mean(w.input), mean(std::max<std::size_t>(w.input / 2, 1)),
         mean(w.input * 2)},
        {mean(w.output), mean(std::max<std::size_t>(w.output / 2, 1)),
         mean(w.output * 2)}};
    Rng rng(42);
    arrivals = generate_arrivals(spec, rps, static_cast<int>(w.requests), rng);
  } else {
    fail("bad --arrival (want poisson:<rps> with rps > 0, or trace:<file>): " +
         w.arrival);
  }
  return requests_from_arrivals(arrivals, /*vocab=*/256, /*prompt_seed=*/7777,
                                /*max_input=*/w.input * 2,
                                /*max_output=*/w.output * 2);
}

// The model every serving bench runs: the bench shape's attention geometry
// with a 256-token vocabulary and a 512-wide FFN.
inline std::shared_ptr<const TinyModelWeights> make_weights(
    const Shape& shape, std::size_t layers) {
  return make_tiny_weights({.vocab = 256, .layers = layers,
                            .heads = shape.heads, .kv_heads = shape.kv_heads,
                            .d_head = shape.d_head, .d_ff = 512});
}

// The contract every served path keeps: a request's tokens equal a solo
// single-node generate() of the same request on the same weights and
// backend.
inline bool matches_solo(const std::shared_ptr<const TinyModelWeights>& weights,
                         const HackAttentionConfig& attn,
                         std::uint64_t backend_seed,
                         const ServingRequest& request,
                         const std::vector<int>& generated) {
  TinyTransformer solo(weights, make_hack_layer_backend(attn, backend_seed));
  return solo.generate(request.prompt, request.max_new_tokens, request.eos) ==
         generated;
}

}  // namespace hack::bench
