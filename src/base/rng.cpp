#include "base/rng.h"

#include <cmath>

#include "base/check.h"

namespace hack {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
}

float Rng::next_float() {
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  HACK_CHECK(bound > 0, "next_below requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::next_double_above_tiny() {
  double u = 0.0;
  do {
    u = next_double();
  } while (u <= 1e-300);
  return u;
}

double Rng::next_gaussian() {
  // Box–Muller; u1 is kept away from zero so log() stays finite.
  const double u1 = next_double_above_tiny();
  const double u2 = next_double();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return radius * std::cos(2.0 * M_PI * u2);
}

void Rng::skip_gaussian() {
  next_double_above_tiny();
  next_double();
}

double Rng::next_exponential(double rate) {
  HACK_CHECK(rate > 0.0, "exponential rate must be positive");
  return -std::log(next_double_above_tiny()) / rate;
}

Rng Rng::fork() {
  return Rng(next_u64());
}

void Rng::set_state(const std::array<std::uint64_t, 4>& state) {
  HACK_CHECK(state[0] != 0 || state[1] != 0 || state[2] != 0 || state[3] != 0,
             "all-zero xoshiro256** state is a fixed point");
  state_ = state;
}

std::int64_t stochastic_round(double x, Rng& rng) {
  const double lo = std::floor(x);
  const double frac = x - lo;
  if (frac == 0.0) {
    return static_cast<std::int64_t>(lo);
  }
  // Round up with probability equal to the fractional part, so the result is
  // an unbiased estimator of x.
  return static_cast<std::int64_t>(lo) + (rng.next_double() < frac ? 1 : 0);
}

std::int64_t nearest_round(double x) {
  return static_cast<std::int64_t>(std::llround(x));
}

}  // namespace hack
