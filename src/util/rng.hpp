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
#include <utility>

namespace haystack::util {

/// SplitMix64 mixing step. Used both as a stand-alone generator for seeding
/// and as a finalizer to decorrelate low-entropy seeds (entity ids, hours).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The integer form of a Bernoulli trial. Pcg32::chance(p) draws one word
/// r and succeeds when r · 2^-32 < p. Scaling by 2^32 is exact and r is an
/// integer, so for p in (0, 1) that holds exactly when r < ⌈p · 2^32⌉,
/// which this returns. p ≤ 0 gives 0 (never) and p ≥ 1 gives 2^32
/// (always); chance() draws no word for those two, so a caller comparing
/// a drawn word against the threshold must not draw one either. p must
/// not be NaN.
[[nodiscard]] constexpr std::uint64_t chance_threshold(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 32;
  const double scaled = p * 0x1p32;
  const auto whole = static_cast<std::uint64_t>(scaled);  // ⌊scaled⌋
  return static_cast<double>(whole) < scaled ? whole + 1 : whole;
}

/// The integer form of a zero count from Knuth's Poisson loop, for a mean
/// in (0, 30) whose limit e^−mean lies in (0, 1). poisson(mean, limit)
/// returns 0 exactly when its first uniform r · 2^-32 is ≤ limit, that
/// is when r ≤ ⌊limit · 2^32⌋, so when r < the returned bound.
[[nodiscard]] constexpr std::uint64_t poisson_zero_bound(
    double limit) noexcept {
  return static_cast<std::uint64_t>(limit * 0x1p32) + 1;
}

/// A divisor for Pcg32::bounded prepared once: bounded(Bound{n}) equals
/// bounded(n) draw for draw. It keeps bounded's rejection threshold
/// 2^32 mod n and the fastmod multiplier ⌈2^64 / n⌉ (Lemire, Kaser &
/// Kurz 2019), with which r mod n is two multiplications for every 32-bit
/// r and every n ≥ 2.
class Bound {
 public:
  constexpr Bound() noexcept = default;
  constexpr explicit Bound(std::uint32_t n) noexcept
      : n_{n},
        threshold_{n > 1 ? (0U - n) % n : 0U},
        multiplier_{n > 1 ? std::numeric_limits<std::uint64_t>::max() / n + 1
                          : 0} {}

  [[nodiscard]] constexpr std::uint32_t n() const noexcept { return n_; }
  [[nodiscard]] constexpr std::uint32_t threshold() const noexcept {
    return threshold_;
  }
  /// r mod n, for n ≥ 2.
  [[nodiscard]] constexpr std::uint32_t mod(std::uint32_t r) const noexcept {
    __extension__ using Wide = unsigned __int128;
    const std::uint64_t low = multiplier_ * r;
    return static_cast<std::uint32_t>((Wide{low} * n_) >> 64);
  }

 private:
  std::uint32_t n_ = 0;
  std::uint32_t threshold_ = 0;
  std::uint64_t multiplier_ = 0;
};

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

  /// bounded(b.n()), draw for draw, with the divisor prepared once.
  constexpr std::uint32_t bounded(const Bound& b) noexcept {
    if (b.n() <= 1) return 0;
    for (;;) {
      const std::uint32_t r = next();
      if (r >= b.threshold()) return b.mod(r);
    }
  }

  /// Draws a word r1 and, only when r1 < gate, the word r2 after it:
  /// returns {r1 < gate, r2}, where r2 is the word the next draw would
  /// return when the gate is shut. Equal draw for draw to
  /// `r1 = (*this)(); if (r1 < gate) r2 = (*this)();`, but it computes
  /// both words and picks the state by a select instead of a branch.
  constexpr std::pair<bool, std::uint32_t> gated_pair(
      std::uint64_t gate) noexcept {
    const std::uint64_t s1 = step(state_);
    const std::uint64_t s2 = step(s1);
    const bool open = output(state_) < gate;
    state_ = open ? s2 : s1;
    return {open, output(s1)};
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

  /// The rest of poisson(mean, limit) for a mean in (0, 30), whose first
  /// draw the caller already made and got the word `first`: the same count
  /// from the same words.
  std::uint64_t poisson_after(std::uint32_t first, double limit) noexcept;

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
  constexpr std::uint64_t step(std::uint64_t state) const noexcept {
    return state * 6364136223846793005ULL + inc_;
  }
  static constexpr result_type output(std::uint64_t old) noexcept {
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18U) ^ old) >> 27U);
    const auto rot = static_cast<std::uint32_t>(old >> 59U);
    return (xorshifted >> rot) | (xorshifted << ((-rot) & 31U));
  }
  constexpr result_type next() noexcept {
    const std::uint64_t old = state_;
    state_ = step(old);
    return output(old);
  }

  std::uint64_t state_;
  std::uint64_t inc_;
};

/// The generators derive_rng gives for one global seed, with the
/// seed-only mixing step done once: RngFamily{seed}.at(entity, bin) ==
/// derive_rng(seed, entity, bin).
class RngFamily {
 public:
  constexpr explicit RngFamily(std::uint64_t global_seed) noexcept
      : key_{splitmix64(global_seed ^ 0x6a09e667f3bcc908ULL)} {}

  [[nodiscard]] constexpr Pcg32 at(std::uint64_t entity,
                                   std::uint64_t bin) const noexcept {
    const std::uint64_t b = splitmix64(key_ ^ entity);
    const std::uint64_t c = splitmix64(b ^ bin);
    return Pcg32{c, splitmix64(c ^ 0xbb67ae8584caa73bULL)};
  }

 private:
  std::uint64_t key_;
};

/// Derives an independent generator for an (entity, bin) pair from a global
/// seed. The triple is mixed through SplitMix64 so neighbouring entities and
/// consecutive bins land in unrelated parts of the PCG state space.
[[nodiscard]] constexpr Pcg32 derive_rng(std::uint64_t global_seed,
                                         std::uint64_t entity,
                                         std::uint64_t bin) noexcept {
  return RngFamily{global_seed}.at(entity, bin);
}

}  // namespace haystack::util
