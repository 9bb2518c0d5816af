// Deterministic random number generation for the simulation substrate.
//
// Everything in this repository that needs randomness derives it from a
// seeded Pcg32 stream. Streams are cheap value types; a stream can be
// derived from an (entity, time-bin) pair so that every simulated hour of
// every simulated subscriber line is reproducible in isolation, no matter
// in which order the simulation visits them.
#pragma once

#include <cstdint>
#include <limits>

namespace haystack::util {

/// SplitMix64 mixing step. Used both as a stand-alone generator for seeding
/// and as a finalizer to decorrelate low-entropy seeds (entity ids, hours).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// PCG32 (XSH-RR variant, O'Neill 2014): small, fast, statistically strong
/// 32-bit generator with a 64-bit state and a selectable stream.
///
/// Satisfies UniformRandomBitGenerator so it can be plugged into
/// <random> distributions, but we provide the handful of distributions the
/// simulator needs directly because the standard ones are not guaranteed to
/// be reproducible across library implementations.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  /// Seeds the generator. `seq` selects one of 2^63 independent streams.
  constexpr explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                           std::uint64_t seq = 0xda3e39cb94b95bdbULL) noexcept
      : state_{0}, inc_{(seq << 1U) | 1U} {
    next();
    state_ += seed;
    next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Advances the state and returns the next 32 random bits.
  constexpr result_type operator()() noexcept { return next(); }

  /// Uniform integer in [0, bound). bound == 0 yields 0.
  /// Uses Lemire-style rejection to avoid modulo bias.
  constexpr std::uint32_t bounded(std::uint32_t bound) noexcept {
    if (bound <= 1) return 0;
    // Threshold below which values would be biased.
    const std::uint32_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint32_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1) with 32 bits of resolution.
  constexpr double uniform() noexcept {
    return static_cast<double>(next()) * 0x1p-32;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  constexpr bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Poisson-distributed count with the given mean.
  ///
  /// Knuth's product method for means below 30; for larger means a Gaussian
  /// approximation keeps the cost O(1). The simulator draws per-domain
  /// hourly packet counts from this, so it is on the hot path.
  std::uint64_t poisson(double mean) noexcept;

  /// poisson(mean), draw for draw, with `limit` = std::exp(-mean) supplied
  /// by a caller that draws many counts of one mean.
  std::uint64_t poisson(double mean, double limit) noexcept;

  /// Geometric number of failures before the first success, p in (0,1].
  std::uint64_t geometric(double p) noexcept;

  /// Exponentially distributed value with the given mean.
  double exponential(double mean) noexcept;

  /// log-normal sample where the *underlying normal* has mean mu and
  /// standard deviation sigma. Used for heavy-tailed traffic volumes.
  double lognormal(double mu, double sigma) noexcept;

  /// Standard normal via Box-Muller (one value per call; no caching so the
  /// generator stays a regular value type).
  double normal() noexcept;

 private:
  constexpr result_type next() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31U));
  }

  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Derives an independent generator for an (entity, bin) pair from a global
/// seed. The triple is mixed through SplitMix64 so neighbouring entities and
/// consecutive bins land in unrelated parts of the PCG state space.
[[nodiscard]] Pcg32 derive_rng(std::uint64_t global_seed, std::uint64_t entity,
                               std::uint64_t bin) noexcept;

}  // namespace haystack::util
