// Deterministic random number generation.
//
// Every stochastic component in the library (stochastic rounding, workload
// sampling, Poisson arrivals, synthetic weights) draws from an explicitly
// seeded Rng so that experiments, tests, and benchmarks are reproducible
// bit-for-bit across runs. The generator is xoshiro256**, seeded through
// splitmix64 per the reference recommendation.
#pragma once

#include <array>
#include <cstdint>

namespace hack {

// xoshiro256** PRNG. Cheap, high quality, and deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double next_double();

  // Uniform float in [0, 1).
  float next_float();

  // Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Standard normal via Box–Muller (no cached second value; keeps state flat).
  double next_gaussian();

  // Advances the state exactly as next_gaussian() would, without computing
  // the value (no transcendentals). Lets a caller find where each chunk of
  // a long gaussian stream starts, then fill the chunks in parallel.
  void skip_gaussian();

  // Exponential with the given rate (for Poisson inter-arrival times).
  double next_exponential(double rate);

  // Creates an independent generator; streams do not overlap in practice
  // because the child is seeded from a full 64-bit draw.
  Rng fork();

  // Raw xoshiro256** state words. The KV wire format (kvcache/kv_wire.h)
  // ships these so a rehydrated decode instance resumes every stochastic
  // stream exactly where the prefill instance left it.
  std::array<std::uint64_t, 4> state() const { return state_; }
  void set_state(const std::array<std::uint64_t, 4>& state);

 private:
  // Uniform double in (1e-300, 1): next_double() redrawn until it is far
  // enough from zero for log() to stay finite.
  double next_double_above_tiny();

  std::array<std::uint64_t, 4> state_;
};

// Stochastic rounding of x to one of {floor(x), ceil(x)}: rounds down with
// probability (ceil(x) - x), up otherwise; integers are returned unchanged.
// This is the rounding rule of the paper's asymmetric stochastic quantizer.
std::int64_t stochastic_round(double x, Rng& rng);

// Round-to-nearest-even companion used where determinism without an Rng is
// preferred (e.g. codec baselines).
std::int64_t nearest_round(double x);

}  // namespace hack
